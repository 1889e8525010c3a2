"""Output checks written against the definitions, not against the library.

Nothing here imports ``lospre``: the checks parse the IR text the library
prints, re-run it on their own interpreter, and recompute objectives,
calculation sets and safety closures from plain node and edge sets.
"""
from __future__ import annotations

_BINOPS = ("+", "-", "*", "/", "<<", ">>", "&", "|", "^")


class StepLimit(Exception):
    pass


def _operand(tok):
    try:
        return int(tok)
    except ValueError:
        return tok


def parse_program(text: str) -> list:
    """Parse IR text into (label, kind, fields) tuples.

    Accepts what ``format_ir`` prints for the instruction forms the frozen
    generator and the rewriter produce; directives are ignored (costs do
    not affect execution).
    """
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("!"):
            continue
        label = None
        head = line.split()[0]
        if head.endswith(":"):
            label = head[:-1]
            line = line[len(head):].strip()
        t = line.split()
        if t == ["ret"]:
            out.append((label, "ret", ()))
        elif t[0] == "goto" and len(t) == 2:
            out.append((label, "jump", (t[1],)))
        elif t[0] == "if" and len(t) == 4 and t[2] == "goto":
            out.append((label, "branch", (_operand(t[1]), t[3])))
        elif t[0].startswith("*") and len(t) == 3 and t[1] == "=":
            out.append((label, "store", (_operand(t[0][1:]), _operand(t[2]))))
        elif len(t) == 3 and t[1] == "=":
            if t[2].startswith("*"):
                out.append((label, "load", (t[0], _operand(t[2][1:]))))
            else:
                out.append((label, "assign", (t[0], _operand(t[2]))))
        elif len(t) == 4 and t[1] == "=" and t[2] in ("-", "~"):
            out.append((label, "unop", (t[0], t[2], _operand(t[3]))))
        elif len(t) == 5 and t[1] == "=" and t[3] in _BINOPS:
            out.append((label, "binop", (t[0], t[3], _operand(t[2]), _operand(t[4]))))
        else:
            raise ValueError(f"unparseable instruction {raw!r}")
    return out


def static_computations(prog: list) -> int:
    return sum(1 for _, kind, _ in prog if kind in ("binop", "unop", "load"))


def variables(prog: list) -> set:
    out = set()
    for _, kind, f in prog:
        if kind == "jump":
            continue
        if kind == "branch":
            f = f[:1]
        elif kind in ("binop", "unop"):
            f = (f[0],) + f[2:]
        out.update(x for x in f if isinstance(x, str))
    return out


def _binop(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return 0 if b == 0 else a // b
    if op == "<<":
        return a << (b & 63)
    if op == ">>":
        return a >> (b & 63)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    return a ^ b


def execute(prog: list, values: dict, memory: dict, max_steps: int):
    """Run to ``ret`` or off the end.

    Returns (variables, nonzero memory, dynamic computations); raises
    StepLimit past ``max_steps``.  Semantics: unset variables and memory
    read 0, division by zero gives 0 and floors otherwise, shift amounts
    are masked to 0..63.
    """
    labels = {lab: i for i, (lab, _, _) in enumerate(prog) if lab}
    env = dict(values)
    mem = dict(memory)

    def val(o):
        return o if isinstance(o, int) else env.get(o, 0)

    pc = 0
    steps = 0
    comps = 0
    n = len(prog)
    while pc < n:
        steps += 1
        if steps > max_steps:
            raise StepLimit
        _, kind, f = prog[pc]
        if kind == "assign":
            env[f[0]] = val(f[1])
        elif kind == "binop":
            env[f[0]] = _binop(f[1], val(f[2]), val(f[3]))
            comps += 1
        elif kind == "load":
            env[f[0]] = mem.get(val(f[1]), 0)
            comps += 1
        elif kind == "unop":
            env[f[0]] = -val(f[2]) if f[1] == "-" else ~val(f[2])
            comps += 1
        elif kind == "store":
            mem[val(f[0])] = val(f[1])
        elif kind == "branch":
            if val(f[0]) != 0:
                pc = labels[f[1]]
                continue
        elif kind == "jump":
            pc = labels[f[0]]
            continue
        else:  # ret
            break
        pc += 1
    return env, {a: v for a, v in mem.items() if v != 0}, comps


def compare_runs(before: list, after: list, inputs: list, max_steps: int):
    """Check that ``after`` agrees with ``before`` on every input.

    Agreement means equal final memory and equal values of every variable
    of ``before``, or both programs hitting the step limit.  Returns
    (error message or None, dynamic computations before, after).
    """
    names = variables(before)
    dyn_before = dyn_after = 0
    for k, (values, memory) in enumerate(inputs):
        try:
            env_b, mem_b, c_b = execute(before, values, memory, max_steps)
        except StepLimit:
            env_b = None
        try:
            env_a, mem_a, c_a = execute(after, values, memory, max_steps)
        except StepLimit:
            env_a = None
        if env_b is None or env_a is None:
            if (env_b is None) != (env_a is None):
                return f"input {k}: only one program hit the step limit", 0, 0
            continue
        if mem_b != mem_a:
            return f"input {k}: final memory differs", 0, 0
        for v in names:
            if env_b.get(v, 0) != env_a.get(v, 0):
                return f"input {k}: variable {v} differs", 0, 0
        dyn_before += c_b
        dyn_after += c_a
    return None, dyn_before, dyn_after


# ---------------------------------------------------------------------------
# Graph problems.  Graphs are given as node counts and edge lists whose node
# ids are topologically ordered (every edge goes from a lower to a higher id).

def calc_edges(edges, use, inv, life) -> frozenset:
    """Edges (x, y) with x not in life-minus-invalidation and y a use or live."""
    return frozenset((x, y) for (x, y) in edges
                     if not (x in life and x not in inv) and (y in use or y in life))


def walk_probabilities(n, edges):
    """Visit probability of each node and edge on a uniform random walk from 0."""
    succ = [[] for _ in range(n)]
    for (x, y) in sorted(edges):
        succ[x].append(y)
    node_p = [0.0] * n
    node_p[0] = 1.0
    edge_p = {}
    for x in range(n):
        if not succ[x]:
            continue
        share = node_p[x] / len(succ[x])
        for y in succ[x]:
            edge_p[(x, y)] = share
            node_p[y] += share
    return node_p, edge_p


def dynamic_ratio(walk, use, calc) -> tuple:
    """(expected computations after, expected computations before) per walk."""
    node_p, edge_p = walk
    return sum(edge_p[e] for e in sorted(calc)), sum(node_p[v] for v in sorted(use))


def safety_closure(n, edges, use, inv) -> frozenset:
    """Invalidation set enlarged by every non-use node that lies on a path
    between two invalidating nodes whose interior avoids the use set."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for (x, y) in edges:
        succ[x].append(y)
        pred[y].append(x)

    def sweep(adj):
        seen = set()
        stack = [y for a in inv for y in adj[a] if y not in use]
        seen.update(stack)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in use and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    return frozenset(inv) | (sweep(succ) & sweep(pred))


def banded_optimum(n, edges, use, inv, band, node_cost) -> tuple:
    """Exact optimum of the objective on a graph whose edges (x, y) all have
    0 < y - x <= ``band``.

    A dynamic program over node ids whose state is the life bits of the
    last ``band`` nodes (bit k: node j-1-k).  Every edge costs (1, 0);
    ``node_cost(v, b)`` gives node v's (primary, secondary) cost for life
    bit b.  Shares nothing with the library's tree-decomposition solver.
    """
    preds = [[] for _ in range(n)]
    for (x, y) in edges:
        if not 0 < y - x <= band:
            raise ValueError(f"edge ({x}, {y}) is outside the band")
        preds[y].append(x)
    keep = (1 << band) - 1
    best = {0: (0, 0)}
    for j in range(n):
        step = {}
        for mask, (p, s) in best.items():
            for b in (0, 1):
                calcs = sum(1 for x in preds[j]
                            if not ((mask >> (j - 1 - x)) & 1 and x not in inv)
                            and (b or j in use))
                np_, ns = node_cost(j, b)
                c = (p + calcs + np_, s + ns)
                key = ((mask << 1) | b) & keep
                if key not in step or c < step[key]:
                    step[key] = c
        best = step
    return min(best.values())
