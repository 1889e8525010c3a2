"""Brute-force reference implementations and reproducible instance generation.

These are the ground truth the solvers are checked against.  They share no
code with the solver modules beyond the objective definition itself
(``calc_set``/``total_cost``) and the exact integer keys of costs
(``dp.cost_keys``); ``brute_safety`` sweeps its own fixpoints and shares
no graph search with ``solve_safety``.  ``brute_lospre`` and
``brute_extended`` share one enumeration of all 2**|V| life sets, a
Gray-code walk over a restatement of the objective in those keys; the
reported cost is recomputed from the objective, and the tests check the
walk against a plain ``total_cost`` loop.
When every assignment has infinite cost, both raise NoFeasibleSolutionError,
as the solvers do.

Tie-breaking matches the solvers' one tie rule, so whole solutions, not
just costs, are comparable: among equal-cost assignments, scan node ids
upward and prefer the dead state (lexicographically smallest bit string),
which with edge costs of at least [0,0] is the least optimal life set the
solvers report, and give each node the lowest permitted (bl, br) pair of
minimum cost for its value bit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .cfg import (Cfg, DEFAULT_EDGE_COST, DEFAULT_NODE_COST, ExprProblem, calc_set, make_problem,
                  total_cost)
from .cost import INFINITY, ZERO, CostVec, sum_costs
from .dp import LospreSolution, cost_keys
from .errors import NoFeasibleSolutionError, SizeGuardError
from .safety import SafetySolution


BRUTE_LOSPRE_MAX_NODES = 20


def _least_optimal_life(cfg: Cfg, problem: ExprProblem, dead_costs: list,
                        live_costs: list) -> frozenset:
    """The lexicographically least life set of minimum cost over all 2**|V|.

    The cost is the edge costs over the calculation set plus ``dead_costs[v]``
    or ``live_costs[v]`` per node v, in the exact integer keys of
    ``cost_keys``.  In those keys a life set costs a constant, plus a gain
    per live node, less a weight per edge from a non-invalidating node to a
    non-use node with both ends live.  A Gray-code walk flips one node per
    step and updates the cost from that node's gain and the weights to its
    live neighbours; nodes with fewer neighbours flip more often.  A cost
    holding an infinity is above ``bound`` and every other cost below it:
    NoFeasibleSolutionError when the least cost is above ``bound``.
    """
    n = cfg.node_count
    key, bound = cost_keys(list(cfg.edge_cost.values()) + dead_costs + live_costs)
    use, inv = problem.use_set, problem.invalidation_set
    base = sum(key(c) for c in dead_costs)
    gain = [key(live_costs[v]) - key(dead_costs[v]) for v in range(n)]
    adj = [[] for _ in range(n)]
    for (x, y), c in cfg.edge_cost.items():
        k = key(c)
        if y in use:  # charged unless x is live and valid
            base += k
            if x not in inv:
                gain[x] -= k
        elif x in inv:  # charged iff y is live
            gain[y] += k
        elif x != y:  # charged iff y is live and x is not; never on a self-loop
            gain[y] += k
            adj[x].append((y, k))
            adj[y].append((x, k))
    flips = []
    for v in sorted(range(n), key=lambda v: len(adj[v])):
        flips = flips + [v] + flips
    pull = [0] * n  # per node, the weights to its live neighbours
    mask = best_mask = 0
    cur = best = base
    for v in flips:
        mask ^= 1 << v
        if mask >> v & 1:
            cur += gain[v] - pull[v]
            for u, k in adj[v]:
                pull[u] += k
        else:
            cur -= gain[v] - pull[v]
            for u, k in adj[v]:
                pull[u] -= k
        if cur <= best:
            if cur < best:
                best, best_mask = cur, mask
            else:
                # equal cost: keep the mask dead at the lowest node where they differ
                d = mask ^ best_mask
                if not mask & d & -d:
                    best_mask = mask
    if best >= bound:
        raise NoFeasibleSolutionError("no feasible solution: all assignments have infinite cost")
    return frozenset(v for v in range(n) if best_mask >> v & 1)


def brute_lospre(cfg: Cfg, problem: ExprProblem) -> LospreSolution:
    """Global minimum of the objective over all 2**|V| life sets;
    NoFeasibleSolutionError when every life set has infinite cost."""
    n = cfg.node_count
    if n > BRUTE_LOSPRE_MAX_NODES:
        raise SizeGuardError(f"brute_lospre is limited to {BRUTE_LOSPRE_MAX_NODES} nodes, got {n}")
    life = _least_optimal_life(cfg, problem, [ZERO] * n, [cfg.node_cost[v] for v in range(n)])
    return LospreSolution(life_set=life, calc_set=calc_set(cfg, problem, life),
                          cost=total_cost(cfg, problem, life))


def brute_safety(cfg: Cfg, problem: ExprProblem) -> SafetySolution:
    """Dataflow reference for invalidation enlargement, on any graph at any size.

    Two must-analyses on node entry, each swept until a sweep changes
    nothing.  Up-safety, a greatest fixpoint swept in node order: the value
    is available at v when every predecessor other than v itself uses it or
    has it available, and does not invalidate.  Down-safety, a least
    fixpoint swept in reverse order, so that a use-free cycle never becomes
    down-safe: v is down-safe when it uses the value, or invalidates
    nothing and every successor other than v itself is down-safe.  A node
    outside the use and invalidation sets that is neither joins the set.
    """
    n, use, inv = cfg.node_count, problem.use_set, problem.invalidation_set
    up, down = [True] * n, [False] * n
    changed = True
    while changed:
        changed = False
        for v in range(n):
            new = all((u in use or up[u]) and u not in inv for u in cfg.pred[v] if u != v)
            changed |= new != up[v]
            up[v] = new
    changed = True
    while changed:
        changed = False
        for v in reversed(range(n)):
            new = v in use or v not in inv and all(down[w] for w in cfg.succ[v] if w != v)
            changed |= new != down[v]
            down[v] = new
    added = frozenset(v for v in range(n)
                      if v not in use and v not in inv and not up[v] and not down[v])
    return SafetySolution(i_prime=frozenset(inv | added), added=added)


def _permits(allowed_combos):
    """Predicate (v, (b, bl, br)) -> bool for an ``allowed_combos`` map."""
    allowed = {v: {tuple(c) for c in combos} for v, combos in (allowed_combos or {}).items()}
    return lambda v, combo: v not in allowed or combo in allowed[v]


def _extended_solution(cfg, problem, bits, lifetime_cost) -> LospreSolution:
    """The solution for per-node (b, bl, br) bits, its cost recomputed."""
    life = frozenset(v for v, t in enumerate(bits) if t[0])
    cset = calc_set(cfg, problem, life)
    cost = sum_costs([cfg.edge_cost[e] for e in cset] +
                     [lifetime_cost(v, *t) for v, t in enumerate(bits)])
    return LospreSolution(life_set=life, calc_set=cset, cost=cost,
                          life_left=frozenset(v for v, t in enumerate(bits) if t[1]),
                          life_right=frozenset(v for v, t in enumerate(bits) if t[2]))


def brute_extended(cfg: Cfg, problem: ExprProblem,
                   lifetime_cost: Callable[[int, int, int, int], CostVec],
                   allowed_combos=None) -> LospreSolution:
    """Global minimum over all 8**|V| (value, left, right) liveness assignments.

    The edge term depends only on the value bits, and the node term is a
    per-node table lookup, so for each value bit every node takes its
    cheapest permitted operand bits (the lowest (bl, br) pair of equal cost)
    and the 2**|V| value masks are enumerated on the resulting dead and live
    costs; the result and its tie-breaking equal full enumeration
    (cross-checked in tests).  ``allowed_combos`` maps a node to its
    permitted (b, bl, br) triples, as in ``solve_extended``;
    NoFeasibleSolutionError when every permitted assignment has infinite
    cost, or none is permitted.
    """
    n = cfg.node_count
    if n > 8:
        raise SizeGuardError(f"brute_extended is limited to 8 nodes, got {n}")
    permits = _permits(allowed_combos)
    # picks[v][b]: node v's cheapest permitted (cost, (bl, br)) for value bit b
    picks = [[min([(lifetime_cost(v, b, bl, br), (bl, br)) for bl in (0, 1) for br in (0, 1)
                   if permits(v, (b, bl, br))], default=(INFINITY, None)) for b in (0, 1)]
             for v in range(n)]
    life = _least_optimal_life(cfg, problem, [p[0][0] for p in picks], [p[1][0] for p in picks])
    bits = [(int(v in life), *picks[v][v in life][1]) for v in range(n)]
    return _extended_solution(cfg, problem, bits, lifetime_cost)


def brute_extended_full(cfg: Cfg, problem: ExprProblem, lifetime_cost,
                        allowed_combos=None) -> LospreSolution:
    """Literal 8**|V| enumeration, for cross-checking brute_extended on tiny
    graphs: every assignment is costed over its own calculation set, with
    ``lifetime_cost`` tabulated once per node and (b, bl, br) triple, and the
    solution is built once, for the least (cost, bits) pair."""
    n = cfg.node_count
    if n > 5:
        raise SizeGuardError(f"brute_extended_full is limited to 5 nodes, got {n}")
    permits = _permits(allowed_combos)
    combos = [((d >> 2) & 1, (d >> 1) & 1, d & 1) for d in range(8)]  # (b, bl, br)
    node_cost = [[lifetime_cost(v, *t) for t in combos] for v in range(n)]
    permitted = [[permits(v, t) for t in combos] for v in range(n)]
    best = None
    for assign in range(8 ** n):
        digits = []
        a = assign
        for _ in range(n):
            digits.append(a % 8)
            a //= 8
        if not all(permitted[v][d] for v, d in enumerate(digits)):
            continue
        life = frozenset(v for v, d in enumerate(digits) if d >> 2)
        cost = sum_costs([cfg.edge_cost[e] for e in calc_set(cfg, problem, life)] +
                         [node_cost[v][d] for v, d in enumerate(digits)])
        key = (cost, tuple(combos[d] for d in digits))
        if best is None or key < best:
            best = key
    if best is None:
        raise NoFeasibleSolutionError("no permitted assignment")
    return _extended_solution(cfg, problem, list(best[1]), lifetime_cost)


# ---------------------------------------------------------------------------
# Instance generation

STYLES = ("series-parallel", "random-sparse", "chained-diamonds")


@dataclass(frozen=True)
class InstanceGenerator:
    """Reproducible random instances: same seed, same instance.

    All styles produce acyclic graphs with a unique source, and problems
    whose use set avoids the source, the sinks and the extra invalidating
    nodes.  Tests that need use/invalidation overlap (a node such as
    ``v = *v`` that uses and invalidates) add it to the generated problem.
    """

    seed: int
    node_range: tuple = (4, 12)
    style: str = "random-sparse"
    cost_style: str = "unit"  # or "random"


def _series_parallel_edges(rng, n):
    """Random two-terminal series/parallel DAG on nodes 0..n-1 (0 -> n-1)."""
    edges = set()

    def build(lo, hi, interior):
        if not interior:
            edges.add((lo, hi))
        elif len(interior) >= 2 and rng.random() < 0.5:
            cut = rng.randrange(1, len(interior))
            build(lo, hi, interior[:cut])
            build(lo, hi, interior[cut:])
        else:
            mid = interior[0]
            rest = interior[1:]
            cut = rng.randrange(0, len(rest) + 1)
            build(lo, mid, rest[:cut])
            build(mid, hi, rest[cut:])

    build(0, n - 1, list(range(1, n - 1)) if n > 2 else [])
    return edges


def generate(gen: InstanceGenerator):
    """Build ``(cfg, problem)`` from a generator description."""
    rng = random.Random(gen.seed)
    lo, hi = gen.node_range
    if gen.style == "chained-diamonds":
        n = lo if lo == hi else 4 * rng.randint(max(1, lo // 4), max(1, hi // 4))
        if n <= 0 or n % 4:
            raise ValueError("chained-diamonds sizes must be positive multiples of 4")
        edges = set()
        for d in range(n // 4):
            a = 4 * d
            edges.update({(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)})
            if a + 4 < n:
                edges.add((a + 3, a + 4))
    elif gen.style == "series-parallel":
        n = rng.randint(max(3, lo), max(3, hi))
        edges = _series_parallel_edges(rng, n)
    elif gen.style == "random-sparse":
        n = rng.randint(max(2, lo), max(2, hi))
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.25:
                    edges.add((i, j))
        for j in range(1, n):
            if not any(e[1] == j for e in edges):
                edges.add((rng.randrange(0, j), j))
    else:
        raise ValueError(f"unknown style {gen.style!r}; expected one of {STYLES}")

    if gen.cost_style == "random":
        edge_cost = {e: CostVec(rng.randint(0, 5), rng.randint(0, 3)) for e in edges}
        node_cost = {v: CostVec(rng.randint(0, 2), rng.randint(0, 3)) for v in range(n)}
    else:
        edge_cost = {e: DEFAULT_EDGE_COST for e in edges}
        node_cost = {v: DEFAULT_NODE_COST for v in range(n)}
    cfg = Cfg(n, edges, edge_cost, node_cost)

    interior = [v for v in range(n) if v != cfg.source and v not in cfg.sinks]
    rng.shuffle(interior)
    n_use = rng.randint(0, max(0, len(interior) // 2)) if interior else 0
    use = interior[:n_use]
    rest = interior[n_use:]
    n_inv = rng.randint(0, len(rest) // 3) if rest else 0
    extra_inv = rest[:n_inv]
    problem = make_problem(cfg, use, extra_inv)
    return cfg, problem


# ---------------------------------------------------------------------------
# Random structured programs for end-to-end semantics checks

_OPS = ("+", "-", "*", "/", "<<", ">>", "&", "|", "^")


def generate_program_text(seed: int, *, max_statements: int = 14) -> str:
    """Emit a random structured program: straight-line code, nested
    if/else, bounded counter loops, loads and stores on small literal
    addresses.  Gotos appear only in structured patterns, keeping the
    treewidth of the extracted graph small.  Recently computed expressions
    are re-emitted with some probability so the programs actually contain
    redundancy; loop counters come from a reserved namespace that ordinary
    statements never write, which guarantees termination."""
    rng = random.Random(seed)
    variables = [f"v{k}" for k in range(6)]
    lines = []
    label_counter = [0]
    loop_counter = [0]
    recent = []  # recently seen (op, a, b) computations, for deliberate redundancy

    def fresh_label(tag):
        label_counter[0] += 1
        return f"{tag}{label_counter[0]}"

    def operand():
        return rng.choice(variables) if rng.random() < 0.7 else str(rng.randint(-8, 8))

    def address():
        return str(rng.randint(0, 15)) if rng.random() < 0.8 else rng.choice(variables)

    def computation():
        if recent and rng.random() < 0.55:
            op, a, b = rng.choice(recent)
        else:
            op, a, b = rng.choice(_OPS), operand(), operand()
            recent.append((op, a, b))
            if len(recent) > 4:
                recent.pop(0)
        return f"{rng.choice(variables)} = {a} {op} {b}"

    budget = [3 * max_statements]

    def statement(depth):
        budget[0] -= 1
        kind = rng.random()
        if depth >= 2 or budget[0] <= 0:
            kind = min(kind, 0.7)  # no further nesting
        if kind < 0.45:
            lines.append(computation())
        elif kind < 0.6:
            lines.append(f"{rng.choice(variables)} = *{address()}")
        elif kind < 0.72:
            lines.append(f"*{address()} = {rng.choice(variables)}")
        elif kind < 0.78:
            lines.append(f"{rng.choice(variables)} = {operand()}")
        elif kind < 0.92:
            then_label = fresh_label("then")
            end_label = fresh_label("end")
            lines.append(f"if {rng.choice(variables)} goto {then_label}")
            block(depth + 1)
            lines.append(f"goto {end_label}")
            lines.append(f"{then_label}: " + computation())
            block(depth + 1)
            lines.append(f"{end_label}: " + computation())
        else:
            loop_counter[0] += 1
            counter = f"cnt{loop_counter[0]}"
            head = fresh_label("loop")
            lines.append(f"{counter} = {rng.randint(1, 3)}")
            lines.append(f"{head}: " + computation())
            block(depth + 1)
            lines.append(f"{counter} = {counter} - 1")
            lines.append(f"if {counter} goto {head}")

    def block(depth):
        for _ in range(rng.randint(1, 3 if depth else max_statements // 3)):
            statement(depth)

    for _ in range(rng.randint(2, max(2, max_statements // 3))):
        statement(0)
    lines.append("ret")
    return "\n".join(lines) + "\n"


def generate_inputs(seed: int, variables) -> tuple:
    """Reproducible initial variable values and memory for the interpreter."""
    rng = random.Random(seed)
    values = {v: rng.randint(-64, 64) for v in sorted(variables)}
    memory = {addr: rng.randint(-64, 64) for addr in range(16)}
    return values, memory
