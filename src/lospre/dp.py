"""Optimal life-set computation by dynamic programming over a nice decomposition.

Bag assignments are bitmasks over the sorted bag, one liveness bit per
vertex.  Leaf tables hold the single zero entry; introduce nodes reindex the
child table; join nodes add the two child tables entrywise; forget nodes
minimize over the departing vertex's bit, charging that vertex's dead or
live cost and the costs of its incident edges whose other endpoint is still
in the bag.  Every graph edge is charged at exactly one forget node: the one
where the earlier forgotten endpoint departs with the other endpoint still
present.

Both solvers share this kernel.  ``solve`` charges nothing for a dead
vertex and the node's liveness cost for a live one.  ``solve_extended``
adds two operand bits per vertex, but they enter only the vertex's own cost
table, so for each value bit it picks the cheapest permitted operand bits
up front and hands the kernel the resulting (dead, live) cost pair.

Costs are exact integers of any size.  Each solve maps its own costs to
one integer key (``cost_keys``), so the tables hold plain integers that
add with ``+`` and compare with ``<`` exactly as the cost pairs do, however
large the pairs are.  One tie rule picks the reported optimum among
equal-cost ones, for both solvers.  On graphs of at most
``CANONICAL_TIES_MAX_NODES`` nodes, small enough to compare against brute
force, an extra low-order key (2**(n-1-v) per live vertex v) makes the
life set the lexicographic minimum among optimal ones, scanning vertex
ids upward and preferring dead; on larger graphs an exact tie at a forget
node keeps the vertex dead.  ``solve_extended`` then gives every node the
lowest permitted (bl, br) pair of minimum cost for its value bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .cfg import Cfg, ExprProblem, calc_set, total_cost, validate_problem
from .cost import INFINITY, ZERO, CostVec, format_cost, parse_cost
from .errors import (DecompositionError, LospreError, NoFeasibleSolutionError,
                     WidthExceededError)
from .treedec import INTRODUCE, JOIN, LEAF, NiceTreeDec

# The canonical tie key adds one low-order bit per graph node to every table
# entry, so beyond this size it is off; only the optimum reported changes.
CANONICAL_TIES_MAX_NODES = 24


@dataclass(frozen=True)
class LospreSolution:
    """A life set with its derived calculation set and recomputed cost.

    ``cost`` always equals ``total_cost(cfg, problem, life_set)`` recomputed
    from the reference definition, never a value trusted from the tables.
    ``transitions`` counts DP table operations for work-bound checks.
    """

    life_set: frozenset
    calc_set: frozenset
    cost: CostVec
    life_left: Optional[frozenset] = None
    life_right: Optional[frozenset] = None
    transitions: int = 0


def assign_edges_to_forgets(cfg: Cfg, nice: NiceTreeDec) -> dict:
    """Partition the graph edges over forget nodes for cost charging.

    Edge (x, y) belongs to the forget node of whichever endpoint departs
    first; the other endpoint is then still in the child bag, so both bits
    are available to the membership test.  Raises if the decomposition does
    not cover the graph.
    """
    fm = nice.forget_map()
    if set(fm) != set(range(cfg.node_count)):
        missing = sorted(set(range(cfg.node_count)) - set(fm))
        raise DecompositionError(f"decomposition does not cover vertices {missing[:8]}")
    child_bag_sets = {}
    for v, i in fm.items():
        child_bag_sets[i] = frozenset(nice.bags[nice.children[i][0]])
    assignment = {i: [] for i in fm.values()}
    for (x, y) in sorted(cfg.edges):
        fx = fm[x]
        if y in child_bag_sets[fx]:
            assignment[fx].append((x, y))
            continue
        fy = fm[y]
        if x in child_bag_sets[fy]:
            assignment[fy].append((x, y))
            continue
        raise DecompositionError(f"edge ({x}, {y}) is covered by no bag of the decomposition")
    return assignment


def cost_keys(costs) -> tuple:
    """The exact integer key of one solve over ``costs``: ``(key, bound)``.

    A finite (p, s) maps to p*scale + s with scale = 2*sum|s| + 1, so two
    sums of distinct members of ``costs`` compare as their keys do; INFINITY
    maps to 2*bound, with bound above every finite key sum in absolute
    value, so a key sum holding an infinity is >= bound and one holding
    none is < bound.
    """
    # INFINITY's components are 0, so it adds nothing to scale or bound
    scale = 2 * sum(abs(c.secondary) for c in costs) + 1
    bound = (sum(abs(c.primary) for c in costs) + 1) * scale
    inf = 2 * bound
    return (lambda c: inf if c.infinite else c.primary * scale + c.secondary), bound


def _unswept(i: int, j: int) -> DecompositionError:
    return DecompositionError(f"node {i} has no table for its child {j}: children must be "
                              "numbered below their parents, and each used once")


def _life_dp(cfg: Cfg, problem: ExprProblem, nice: NiceTreeDec, dead_costs: list,
             live_costs: list, *, max_width: int = 16):
    """Minimize edge costs plus each vertex's dead or live cost; the shared kernel.

    ``dead_costs[v]`` and ``live_costs[v]`` are the costs of vertex v dead
    and live; either may be INFINITY.  Ties follow the module's one rule.
    Returns (life set, optimum key, key map, transitions); the caller checks
    the optimum key against the key of the cost it recomputes.
    """
    validate_problem(cfg, problem)
    width = nice.width
    if width > max_width:
        raise WidthExceededError(f"decomposition width {width} exceeds the guard {max_width}")
    use = problem.use_set
    inv = problem.invalidation_set
    n = cfg.node_count
    shift = n if n <= CANONICAL_TIES_MAX_NODES else 0
    key, bound = cost_keys(list(cfg.edge_cost.values()) + dead_costs + live_costs)
    # a table entry is infinite iff it is >= inf; none_key starts a minimum
    inf = bound << shift
    none_key = key(INFINITY) << shift

    edge_assignment = assign_edges_to_forgets(cfg, nice)

    kinds = nice.kinds
    vertex = nice.vertex
    bags = nice.bags
    children = nice.children
    tables = [None] * nice.node_count
    choices = {}
    transitions = 0

    for i in range(nice.node_count):
        kind = kinds[i]
        if kind == LEAF:
            tables[i] = [0]
            transitions += 1
        elif kind == INTRODUCE:
            j = children[i][0]
            child = tables[j]
            if child is None:
                raise _unswept(i, j)
            p = bags[i].index(vertex[i])
            low = (1 << p) - 1
            size = 1 << len(bags[i])
            tables[i] = [child[((m >> (p + 1)) << p) | (m & low)] for m in range(size)]
            tables[j] = None
            transitions += size
        elif kind == JOIN:
            j1, j2 = children[i]
            a, b = tables[j1], tables[j2]
            if a is None or b is None:
                raise _unswept(i, j1 if a is None else j2)
            tables[i] = [x + y for x, y in zip(a, b)]
            tables[j1] = tables[j2] = None
            transitions += len(a)
        else:  # forget
            j = children[i][0]
            child = tables[j]
            if child is None:
                raise _unswept(i, j)
            v = vertex[i]
            child_bag = bags[j]
            p = child_bag.index(v)
            pos = {u: q for q, u in enumerate(child_bag)}
            # (x_pos, y_pos, cost key); -1 marks a statically true side
            edges_local = []
            for (x, y) in edge_assignment.get(i, ()):
                cx = -1 if x in inv else pos[x]
                cy = -1 if y in use else pos[y]
                edges_local.append((cx, cy, key(cfg.edge_cost[(x, y)]) << shift))
            dead = key(dead_costs[v]) << shift
            live = key(live_costs[v]) << shift
            if shift:
                live += 1 << (n - 1 - v)
            low = (1 << p) - 1
            bit = 1 << p
            # (bit offset, value bit, cost): strict < below keeps the vertex
            # dead on an exact tie
            options = ((0, 0, dead), (bit, 1, live))
            size = 1 << len(bags[i])
            table = [0] * size
            choice = bytearray(size)
            for m in range(size):
                g0 = ((m >> p) << (p + 1)) | (m & low)
                best = none_key
                for off, b, extra in options:
                    g = g0 | off
                    c = child[g]
                    if c >= inf:
                        continue
                    c += extra
                    for (cx, cy, pc) in edges_local:
                        if (cx < 0 or not (g >> cx) & 1) and (cy < 0 or (g >> cy) & 1):
                            c += pc
                    if c < best:
                        best = c
                        choice[m] = b
                table[m] = best
            tables[i] = table
            tables[j] = None
            choices[i] = choice
            transitions += 2 * size * (1 + len(edges_local))

    root_table = tables[nice.root]
    if len(root_table) != 1:
        raise DecompositionError("root bag of the nice decomposition must be empty")
    root_cost = root_table[0]
    if root_cost >= inf:
        raise NoFeasibleSolutionError("no feasible solution: all assignments have infinite cost")

    life = set()
    stack = [(nice.root, 0)]
    while stack:
        i, m = stack.pop()
        kind = kinds[i]
        if kind == LEAF:
            continue
        if kind == JOIN:
            stack.append((children[i][0], m))
            stack.append((children[i][1], m))
        elif kind == INTRODUCE:
            p = bags[i].index(vertex[i])
            stack.append((children[i][0], ((m >> (p + 1)) << p) | (m & ((1 << p) - 1))))
        else:  # forget
            p = bags[children[i][0]].index(vertex[i])
            b = choices[i][m]
            if b:
                life.add(vertex[i])
            stack.append((children[i][0], ((m >> p) << (p + 1)) | (m & ((1 << p) - 1)) | (b << p)))
    return frozenset(life), root_cost >> shift, key, transitions


def _check_optimum(key: Callable, cost: CostVec, root_key: int) -> None:
    if key(cost) != root_key:
        raise LospreError("internal error: table cost disagrees with recomputed objective")


def solve(cfg: Cfg, problem: ExprProblem, nice: NiceTreeDec, *,
          max_width: int = 16) -> LospreSolution:
    """Minimize the objective exactly over all life sets.

    Requires a valid nice decomposition of ``cfg``; raises
    WidthExceededError when its width exceeds ``max_width`` (the tables grow
    as 2**width) and NoFeasibleSolutionError when every assignment has
    infinite cost.
    """
    n = cfg.node_count
    life, root_key, key, transitions = _life_dp(
        cfg, problem, nice, [ZERO] * n, [cfg.node_cost[v] for v in range(n)], max_width=max_width)
    cost = total_cost(cfg, problem, life)
    _check_optimum(key, cost, root_key)
    return LospreSolution(life_set=life, calc_set=calc_set(cfg, problem, life),
                          cost=cost, transitions=transitions)


# Extended variant: each vertex carries three bits (value life, left operand
# life, right operand life).  Only the value bit feeds the calculation-set
# predicate; the operand bits enter only the vertex's own cost table.  So for
# each value bit the cheapest permitted operand bits are fixed per vertex,
# and the one-bit kernel runs on the resulting (dead, live) cost pairs.
# Combinations are stored as digits d = b | bl << 1 | br << 2.

_COMBOS = [(d & 1, (d >> 1) & 1, (d >> 2) & 1) for d in range(8)]
# digits per value bit, lowest (bl, br) pair first
_TIE_ORDER = ((0, 4, 2, 6), (1, 5, 3, 7))


def solve_extended(cfg: Cfg, problem: ExprProblem, nice: NiceTreeDec,
                   lifetime_cost: Callable[[int, int, int, int], CostVec], *,
                   allowed_combos: Optional[dict] = None) -> LospreSolution:
    """Minimize edge costs plus ``lifetime_cost(v, b, bl, br)`` summed over all nodes.

    ``lifetime_cost`` must be total over the eight bit combinations per
    node.  ``allowed_combos`` optionally maps a node to an iterable of
    permitted (b, bl, br) triples, as a feasibility-coupling hook; by
    default all eight are permitted.
    """
    n = cfg.node_count
    allowed = {v: set(map(tuple, combos)) for v, combos in (allowed_combos or {}).items()}
    if any(not 0 <= v < n for v in allowed):
        raise LospreError("allowed_combos names a node outside the graph")
    rows, picks, dead_costs, live_costs = [], [], [], []
    for v in range(n):
        row = [lifetime_cost(v, *combo) for combo in _COMBOS]
        if not all(isinstance(c, CostVec) for c in row):
            raise LospreError("lifetime_cost must return CostVec values")
        permitted = allowed.get(v)
        # min keeps the first of equal costs: the lowest (bl, br) pair
        d0, d1 = pick = [min((d for d in _TIE_ORDER[b]
                              if permitted is None or _COMBOS[d] in permitted),
                             key=row.__getitem__, default=None) for b in (0, 1)]
        rows.append(row)
        picks.append(pick)
        dead_costs.append(INFINITY if d0 is None else row[d0])
        live_costs.append(INFINITY if d1 is None else row[d1])

    life, root_key, key, transitions = _life_dp(cfg, problem, nice, dead_costs, live_costs)

    chosen = [picks[v][v in life] for v in range(n)]
    cset = calc_set(cfg, problem, life)
    cost = sum([cfg.edge_cost[e] for e in cset] + [rows[v][d] for v, d in enumerate(chosen)], ZERO)
    _check_optimum(key, cost, root_key)
    return LospreSolution(life_set=life, calc_set=cset, cost=cost,
                          life_left=frozenset(v for v in range(n) if chosen[v] & 2),
                          life_right=frozenset(v for v in range(n) if chosen[v] & 4),
                          transitions=transitions)


@dataclass
class EliminationStats:
    """Static computation-count deltas, per candidate and in total."""

    per_candidate: list = field(default_factory=list)  # (display, uses, calcs, delta)
    total: int = 0


def eliminated_count(before) -> EliminationStats:
    """Sum |use set| - |calculation set| over solved (candidate, solution) pairs."""
    stats = EliminationStats()
    for candidate, solution in before:
        uses = len(candidate.occurrence_nodes)
        calcs = len(solution.calc_set)
        stats.per_candidate.append((candidate.display(), uses, calcs, uses - calcs))
        stats.total += uses - calcs
    return stats


def format_solution(solution: LospreSolution, *, index: Optional[int] = None) -> str:
    """Serialize a solution: cost pair, life node ids, calculation edges."""
    lines = []
    if index is not None:
        lines.append(f"problem {index}")
    lines.append(f"cost {format_cost(solution.cost)}")
    lines.append("life " + " ".join(str(v) for v in sorted(solution.life_set)))
    lines.append("calc " + " ".join(f"{u}->{v}" for (u, v) in sorted(solution.calc_set)))
    if solution.life_left is not None:
        lines.append("life_left " + " ".join(str(v) for v in sorted(solution.life_left)))
    if solution.life_right is not None:
        lines.append("life_right " + " ".join(str(v) for v in sorted(solution.life_right)))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> LospreSolution:
    cost = None
    life = frozenset()
    calc = frozenset()
    life_l = life_r = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("problem"):
            continue
        head, _, rest = line.partition(" ")
        if head == "cost":
            cost = parse_cost(rest)
        elif head == "life":
            life = frozenset(int(t) for t in rest.split())
        elif head == "calc":
            calc = frozenset(tuple(int(x) for x in t.split("->")) for t in rest.split())
        elif head == "life_left":
            life_l = frozenset(int(t) for t in rest.split())
        elif head == "life_right":
            life_r = frozenset(int(t) for t in rest.split())
        else:
            raise LospreError(f"unknown solution line {line!r}")
    if cost is None:
        raise LospreError("solution text has no cost line")
    return LospreSolution(life_set=life, calc_set=calc, cost=cost,
                          life_left=life_l, life_right=life_r)
