"""Input generators owned by the benchmark.

Everything here is seeded from the command line and frozen: the library's
own generators may change between commits, and two commits compared on
one seed must see identical inputs.  The generators return plain data
(program text, edge lists, node sets, cost rows); ``run.py`` turns them
into library objects.
"""
from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# Structured programs: a frozen copy of ``generate_program_text`` as of the
# commit that introduced this benchmark.  Do not edit: it defines the
# pipeline workload's inputs.

_OPS = ("+", "-", "*", "/", "<<", ">>", "&", "|", "^")


def program_text(seed: int, *, max_statements: int = 14) -> str:
    rng = random.Random(seed)
    variables = [f"v{k}" for k in range(6)]
    lines = []
    label_counter = [0]
    loop_counter = [0]
    recent = []

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
            kind = min(kind, 0.7)
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


def program_corpus(seed: int, count: int, *, max_statements: int,
                   min_instrs: int, max_instrs: int) -> list:
    """``count`` program texts whose instruction count lies in the given range.

    Sub-seeds are drawn from ``seed``; programs outside the size range are
    skipped, which narrows the spread of per-program work.
    """
    rng = random.Random(f"programs/{seed}")
    out = []
    while len(out) < count:
        text = program_text(rng.getrandbits(48), max_statements=max_statements)
        if min_instrs <= text.count("\n") <= max_instrs:
            out.append(text)
    return out


def interp_inputs(seed: int, variables, count: int) -> list:
    """``count`` (variables, memory) pairs for the reference interpreter."""
    rng = random.Random(f"inputs/{seed}")
    out = []
    for _ in range(count):
        values = {v: rng.randint(-64, 64) for v in sorted(variables)}
        memory = {addr: rng.randint(-64, 64) for addr in range(16)}
        out.append((values, memory))
    return out


# ---------------------------------------------------------------------------
# Graphs for the solver workloads.  Node 0 is the unique source and the last
# node the unique sink in every graph below.

def diamond_chain(n: int) -> list:
    """Edges of a chain of n // 4 diamonds (treewidth 2)."""
    if n <= 0 or n % 4:
        raise ValueError("diamond chains need a positive multiple of 4 nodes")
    edges = []
    for a in range(0, n, 4):
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
        if a + 4 < n:
            edges.append((a + 3, a + 4))
    return edges


def banded_dag(rng: random.Random, n: int, band: int, p: float) -> list:
    """Acyclic banded graph: i -> i+1 always, i -> j for 2 <= j-i <= band w.p. p."""
    edges = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, min(n, i + band + 1)):
            if rng.random() < p:
                edges.append((i, j))
    return edges


def use_inv(rng: random.Random, n: int, use_frac: float, inv_frac: float):
    """Disjoint use and extra-invalidation sets of fixed sizes over interior nodes."""
    interior = list(range(1, n - 1))
    rng.shuffle(interior)
    n_use = round(use_frac * len(interior))
    n_inv = round(inv_frac * len(interior))
    return sorted(interior[:n_use]), sorted(interior[n_use:n_use + n_inv])


def pressure_tables(rng: random.Random, n: int, restricted_frac: float):
    """Per-node register-pressure costs for the extended solver.

    Row ``v`` maps (b, bl, br) to a (primary, secondary) pair: spilling
    beyond the node's free registers costs primary units, each live value
    costs secondary units.  On a fraction of nodes only the combinations
    with both operands live or both dead are allowed.
    """
    rows = []
    allowed = {}
    for v in range(n):
        regs = rng.randint(1, 3)
        weight = rng.randint(1, 2)
        row = {}
        for b in (0, 1):
            for bl in (0, 1):
                for br in (0, 1):
                    live = b + bl + br
                    row[(b, bl, br)] = (max(0, live - regs), weight * live + rng.randint(0, 1))
        rows.append(row)
        if rng.random() < restricted_frac:
            allowed[v] = [c for c in row if c[1] == c[2]]
    return rows, allowed
