"""Optimal life-set computation by dynamic programming over a nice decomposition.

Bag assignments are bitmasks over the sorted bag, one liveness bit per
vertex.  Leaf tables hold the single zero entry; introduce nodes reindex the
child table; join nodes add the two child tables entrywise; forget nodes
minimize over the departing vertex's bit, charging that vertex's dead or
live cost and the costs of its incident edges whose other endpoint is still
in the bag.  Every graph edge is charged at exactly one forget node: the one
where the earlier forgotten endpoint departs with the other endpoint still
present.  The sweep finds those edges as it goes, with no assignment built
beforehand: at the forget node of v it walks v's successors and
predecessors and charges each edge whose other end is v itself, or is not
yet forgotten (a bytearray marks the forgotten vertices) and is in the
child bag; ``assign_edges_to_forgets`` is the reference of that charging.

The kernel only detects defects of the decomposition, with checks a valid
form pays anyway: a leaf with a non-empty bag, a node of unknown kind, a
missing child table, a vertex outside the graph or forgotten twice, a
failed lookup, and after the sweep a vertex never forgotten, an uncharged
edge, a root (the last node) whose bag is not empty, and a node the root
does not reach.  ``validate_nice`` words each
as a ``DecompositionError``; if it accepts the form, the kernel's own
error stands.

The table steps run as gathers through index maps, tuples that depend only
on a step's shape and are cached per shape (``_index_map``), so no step
shifts or masks per entry.  An introduce step is ``[child[g] for g in
idx]``, with ``idx`` cached per (bag size, position).  A forget step first
adds each charged edge's cost key to the child entries cached for its (bag
size, x position or static, y position or static) shape, then gathers the
(dead, live) child entry pairs cached per (bag size, position) and keeps
the cheaper of each pair.

The traceback keeps, per node, the index map or forget pair it gathered
through in one list and each forget node's choice bytes in another, and
walks the nodes once in descending order.

Both solvers share this kernel.  ``solve`` charges nothing for a dead
vertex and the node's liveness cost for a live one.  ``solve_extended``
adds two operand bits per vertex, but they enter only the vertex's own cost
table, so for each value bit it picks the cheapest permitted operand bits
up front and hands the kernel the resulting (dead, live) cost pair.

Costs are exact integers of any size.  Each solve maps its own costs to
one integer key (``cost_keys``), so the tables hold plain integers that
add with ``+`` and compare with ``<`` exactly as the cost pairs do, however
large the pairs are.  One tie rule, for both solvers and every
decomposition, reports the least optimal life set: keys are shifted left
by ``n.bit_length()`` bits and each live vertex adds 1, so the tables
minimize the cost, then the live count.  Edge costs are at least [0,0] (the
parsers reject others), so the objective is submodular and the optimal life
sets are closed under intersection; theirs is the one optimum of fewest
live vertices, and the lexicographic minimum.  ``solve_extended`` then gives
every node the lowest permitted (bl, br) pair of minimum cost for its value bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, lt
from typing import Callable, Optional

from .cfg import Cfg, ExprProblem, calc_set, total_cost, validate_problem
from .cost import INFINITY, ZERO, CostVec, format_cost, sum_costs
from .errors import (DecompositionError, LospreError, NoFeasibleSolutionError,
                     WidthExceededError)
from .treedec import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDec, validate_nice


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
    """Partition the graph edges over forget nodes: the reference of the sweep's charging.

    Edge (x, y) belongs to the forget node of whichever endpoint the
    bottom-up sweep forgets first (the lower node id), and the other
    endpoint is then in that node's child bag, so both bits are available
    to the membership test.  ``_life_dp`` charges each edge where this
    assigns it, without building the assignment.  ``nice`` must be a form
    that ``validate_nice`` accepts.
    """
    fm = {v: i for i, (kind, v) in enumerate(zip(nice.kinds, nice.vertex)) if kind == FORGET}
    assignment = {i: [] for i in fm.values()}
    for (x, y) in sorted(cfg.edges):
        assignment[min(fm[x], fm[y])].append((x, y))
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


def _defect(cfg: Cfg, nice: NiceTreeDec, cause: Optional[Exception] = None) -> LospreError:
    """The error for a defect the kernel detected, worded by ``validate_nice``; when
    that accepts ``nice``, the kernel is at fault: ``cause`` or an internal error."""
    problem = validate_nice(cfg, nice)
    if problem is not None:
        return DecompositionError(problem)
    if cause is not None:
        return cause
    return LospreError("internal error: the sweep rejected a form that validate_nice accepts")


# Index maps by shape, built on first use.  Up to bags of 8 vertices every
# index is below 256, a shared small int, so those maps (under 0.2 MB in
# all) stay cached across solves; a wider solve builds its own.
_SHARED_MAPS: dict = {}


def _index_map(maps: dict, shape: tuple) -> tuple:
    """Build, cache and return the index tuple(s) of ``shape``, one of:

    - ("introduce", s, p): for each entry of a bag of s vertices, its child
      entry, the entry with bit p removed;
    - ("forget", k, p): for each entry of a bag of k - 1 vertices, the child
      entries with a 0 and with a 1 inserted at bit p, as (dead, live);
    - ("edge", k, cx, cy): the entries of a bag of k vertices that charge an
      edge: bit cx clear and bit cy set, where -1 is a statically true side.
    """
    kind, size, p = shape[:3]
    if kind == "introduce":
        found = tuple(((m >> (p + 1)) << p) | (m & ((1 << p) - 1)) for m in range(1 << size))
    elif kind == "forget":
        dead = tuple(((m >> p) << (p + 1)) | (m & ((1 << p) - 1)) for m in range(1 << (size - 1)))
        found = dead, tuple(g | 1 << p for g in dead)
    else:
        cy = shape[3]
        found = tuple(g for g in range(1 << size)
                      if (p < 0 or not (g >> p) & 1) and (cy < 0 or (g >> cy) & 1))
    maps[shape] = found
    return found


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
    shift = n.bit_length()  # room for the live count below the cost
    key, bound = cost_keys(list(cfg.edge_cost.values()) + dead_costs + live_costs)
    # every entry is the key sum of one assignment, so it is infinite iff >= inf
    inf = bound << shift

    edge_cost = cfg.edge_cost
    succ, pred = cfg.succ, cfg.pred
    maps = _SHARED_MAPS if width < 8 else {}

    kinds = nice.kinds
    vertex = nice.vertex
    bags = nice.bags
    children = nice.children
    tables = [None] * nice.node_count
    # per introduce node its index map, per forget node its (dead, live) maps
    # and in ``choices`` the bytes of its live-beats-dead choices
    trace = [None] * nice.node_count
    choices = [None] * nice.node_count
    forgotten = bytearray(n)
    charged = 0
    transitions = 0

    # a detected defect raises through ``_defect``, and so does a malformed
    # form that fails a lookup or a comparison first: a vertex not in its
    # bag, a missing child, a forget node without a vertex
    try:
        for i in range(nice.node_count):
            kind = kinds[i]
            if kind == LEAF:
                if bags[i]:
                    raise _defect(cfg, nice)
                tables[i] = [0]
                transitions += 1
                continue
            ch = children[i]
            child = tables[ch[0]]
            if child is None:
                raise _defect(cfg, nice)
            tables[ch[0]] = None
            if kind == INTRODUCE:
                bag = bags[i]
                shape = ("introduce", len(bag), bag.index(vertex[i]))
                trace[i] = idx = maps.get(shape) or _index_map(maps, shape)
                tables[i] = [child[g] for g in idx]
                transitions += len(idx)
            elif kind == JOIN:
                other = tables[ch[1]]
                if other is None:
                    raise _defect(cfg, nice)
                tables[ch[1]] = None
                tables[i] = list(map(add, child, other))
                transitions += len(child)
            elif kind == FORGET:  # charge v's edges on the child table, then minimize
                v = vertex[i]
                if not 0 <= v < n or forgotten[v]:
                    raise _defect(cfg, nice)
                forgotten[v] = 1
                child_bag = bags[ch[0]]
                k = len(child_bag)
                p = child_bag.index(v)
                # v departs first of each edge to a vertex still in the bag: a
                # self-loop, or an edge whose other end is not yet forgotten
                edges = 0
                cx = -1 if v in inv else p
                for y in succ[v]:
                    if y == v or not forgotten[y] and y in child_bag:
                        pc = key(edge_cost[v, y]) << shift
                        shape = ("edge", k, cx, -1 if y in use else child_bag.index(y))
                        idx = maps.get(shape)
                        for g in _index_map(maps, shape) if idx is None else idx:
                            child[g] += pc
                        edges += 1
                cy = -1 if v in use else p
                for x in pred[v]:
                    if not forgotten[x] and x in child_bag:
                        pc = key(edge_cost[x, v]) << shift
                        shape = ("edge", k, -1 if x in inv else child_bag.index(x), cy)
                        idx = maps.get(shape)
                        for g in _index_map(maps, shape) if idx is None else idx:
                            child[g] += pc
                        edges += 1
                charged += edges
                shape = ("forget", k, p)
                dead_idx, live_idx = trace[i] = maps.get(shape) or _index_map(maps, shape)
                dead = key(dead_costs[v]) << shift
                live = (key(live_costs[v]) << shift) + 1
                d = [child[g] + dead for g in dead_idx] if dead else [child[g] for g in dead_idx]
                lv = [child[g] + live for g in live_idx]
                # an exact tie keeps the vertex dead
                tables[i] = [a if a <= b else b for a, b in zip(d, lv)]
                choices[i] = bytes(map(lt, lv, d))
                transitions += 2 * len(d) * (1 + edges)
            else:
                raise _defect(cfg, nice)
    except (IndexError, TypeError, ValueError) as exc:
        raise _defect(cfg, nice, exc)

    if 0 in forgotten or charged != len(cfg.edges) or len(tables[-1]) != 1:
        raise _defect(cfg, nice)
    root_cost = tables[-1][0]
    if root_cost >= inf:
        raise NoFeasibleSolutionError("no feasible solution: all assignments have infinite cost")

    # the sweep checked that children are numbered below their parents, so a
    # descending scan reaches each node after its parent has set its entry;
    # an entry left at -1 marks a node the root does not reach
    life = set()
    entry = [-1] * nice.node_count
    entry[-1] = 0
    for i in range(nice.node_count - 1, -1, -1):
        m = entry[i]
        if m < 0:
            raise _defect(cfg, nice)
        kind = kinds[i]
        if kind == INTRODUCE:
            entry[children[i][0]] = trace[i][m]
        elif kind == JOIN:
            a, b = children[i]
            entry[a] = entry[b] = m
        elif kind != LEAF:  # forget
            live = choices[i][m]
            if live:
                life.add(vertex[i])
            entry[children[i][0]] = trace[i][live][m]
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
# all eight digits, each value bit's lowest (bl, br) pair first
_SCAN = (0, 1, 4, 5, 2, 3, 6, 7)


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
    picks, dead_costs, live_costs = [], [], []
    for v in range(n):
        permitted = allowed.get(v)
        pick, best = [None, None], [INFINITY, INFINITY]
        for d in _SCAN:
            c = lifetime_cost(v, *_COMBOS[d])
            if not isinstance(c, CostVec):
                raise LospreError("lifetime_cost must return CostVec values")
            # strict < keeps the first of equal costs: the lowest (bl, br) pair
            if (permitted is None or _COMBOS[d] in permitted) and \
                    (pick[d & 1] is None or c < best[d & 1]):
                pick[d & 1], best[d & 1] = d, c
        picks.append(pick)
        dead_costs.append(best[0])
        live_costs.append(best[1])

    life, root_key, key, transitions = _life_dp(cfg, problem, nice, dead_costs, live_costs)

    chosen = [picks[v][v in life] for v in range(n)]
    cset = calc_set(cfg, problem, life)
    cost = sum_costs([cfg.edge_cost[e] for e in cset] +
                     [live_costs[v] if v in life else dead_costs[v] for v in range(n)])
    _check_optimum(key, cost, root_key)
    return LospreSolution(life_set=life, calc_set=cset, cost=cost,
                          life_left=frozenset(v for v in range(n) if chosen[v] & 2),
                          life_right=frozenset(v for v in range(n) if chosen[v] & 4),
                          transitions=transitions)


def format_solution(solution: LospreSolution, *, index: int) -> str:
    """Serialize a solution: problem index, cost pair, life node ids, calculation edges."""
    lines = [f"problem {index}", f"cost {format_cost(solution.cost)}"]
    lines.append("life " + " ".join(str(v) for v in sorted(solution.life_set)))
    lines.append("calc " + " ".join(f"{u}->{v}" for (u, v) in sorted(solution.calc_set)))
    if solution.life_left is not None:
        lines.append("life_left " + " ".join(str(v) for v in sorted(solution.life_left)))
    if solution.life_right is not None:
        lines.append("life_right " + " ".join(str(v) for v in sorted(solution.life_right)))
    return "\n".join(lines) + "\n"
