"""Weighted directed control-flow graphs and the optimization objective.

A graph holds instruction-level nodes with dense integer ids, a unique
source (the only node without predecessors), per-edge subdivision costs
and per-node liveness costs.  ``calc_set`` and ``total_cost`` are the
reference definitions of the objective; both the solvers and the
brute-force oracles are checked against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

from .cost import ZERO, CostVec, format_cost, parse_cost, sum_costs
from .errors import CfgError, GraphFormatError

Edge = tuple[int, int]

DEFAULT_EDGE_COST = CostVec(1, 0)
DEFAULT_NODE_COST = CostVec(0, 1)
_PAIR = attrgetter("primary", "secondary")  # infinity reads (0, 0)


class Cfg:
    """Immutable weighted directed graph with a unique source.

    Node ids are dense integers ``0..node_count-1``.  Parallel edges are
    rejected; self-loops are allowed.  ``edges`` is the key view of
    ``edge_cost``, in the order the edges were given.  ``succ[v]`` and
    ``pred[v]`` are tuples of v's neighbours in that order, and ``sinks``
    is the frozenset of nodes without successors.  Nothing is mutated after
    construction, so instances are safe to share across threads.

    The constructor checks every input: duplicate edges, edge ends and
    cost keys outside the nodes, a source that is not unique, and edge
    costs below [0,0], which the tie rule, the use region and the oracles'
    tie order assume away.  ``edge_cost`` and ``node_cost`` fill in [1,0]
    and [0,1] for what a dict leaves out.
    """

    __slots__ = ("node_count", "edges", "edge_cost", "node_cost", "source",
                 "succ", "pred", "sinks")

    def __init__(self, node_count: int, edges: Iterable[Edge],
                 edge_cost: Optional[dict] = None,
                 node_cost: Optional[dict] = None):
        if node_count <= 0:
            raise CfgError("a CFG must have at least one node")
        edge_list = list(edges)
        self.edge_cost = dict.fromkeys(edge_list, DEFAULT_EDGE_COST)
        if len(self.edge_cost) != len(edge_list):
            seen = set()
            for e in edge_list:
                if e in seen:
                    raise CfgError(f"duplicate edge {e[0]} -> {e[1]}")
                seen.add(e)
        succ = [[] for _ in range(node_count)]
        pred = [[] for _ in range(node_count)]
        for (u, v) in edge_list:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise CfgError(f"edge ({u}, {v}) references an unknown node id")
            succ[u].append(v)
            pred[v].append(u)
        sources = [v for v in range(node_count) if not pred[v]]
        if len(sources) != 1:
            raise CfgError(
                f"expected exactly one node without predecessors, found {len(sources)}"
                f" ({sources[:8]}{'...' if len(sources) > 8 else ''})")

        self.node_count = node_count
        self.edges = self.edge_cost.keys()
        # a key the defaults lack adds an entry after theirs: the first is unknown
        self.edge_cost.update(edge_cost or ())
        if len(self.edge_cost) != len(edge_list):
            e = [*self.edge_cost][len(edge_list)]
            raise CfgError(f"cost given for unknown edge {e}")
        if edge_cost and min(map(_PAIR, edge_cost.values())) < (0, 0):
            (u, v), c = next((e, c) for e, c in edge_cost.items() if c < ZERO)
            raise CfgError(f"edge {u} -> {v} costs {format_cost(c)}, below [0,0]: "
                           f"an edge cost counts computations")
        self.node_cost = dict.fromkeys(range(node_count), DEFAULT_NODE_COST)
        self.node_cost.update(node_cost or ())
        if len(self.node_cost) != node_count:
            v = next(v for v in node_cost if not 0 <= v < node_count)
            raise CfgError(f"cost given for unknown node {v}")
        self.source = sources[0]
        # tuple(list): tuple(generator) resizes, so small ones pile up on free lists
        self.succ = tuple([tuple(s) for s in succ])
        self.pred = tuple([tuple(p) for p in pred])
        self.sinks = frozenset(v for v in range(node_count) if not succ[v])

    def has_finite_costs(self) -> bool:
        return not any(c.infinite for c in self.edge_cost.values()) and \
            not any(c.infinite for c in self.node_cost.values())

    def is_acyclic(self) -> bool:
        indeg = [len(p) for p in self.pred]
        stack = [v for v in range(self.node_count) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen == self.node_count

    def __repr__(self):
        return f"Cfg(nodes={self.node_count}, edges={len(self.edges)}, source={self.source})"


@dataclass(frozen=True)
class ExprProblem:
    """One elimination instance: where the expression is used and what invalidates it."""

    use_set: frozenset
    invalidation_set: frozenset


def make_problem(cfg: Cfg, use: Iterable[int], invalidate: Iterable[int] = ()) -> ExprProblem:
    """Build a problem, adding the source and all sinks to the invalidation set."""
    inv = frozenset(invalidate) | {cfg.source} | cfg.sinks
    problem = ExprProblem(use_set=frozenset(use), invalidation_set=inv)
    validate_problem(cfg, problem)
    return problem


def validate_problem(cfg: Cfg, problem: ExprProblem) -> None:
    for v in problem.use_set | problem.invalidation_set:
        if not (0 <= v < cfg.node_count):
            raise CfgError(f"problem references unknown node id {v}")
    if cfg.source in problem.use_set:
        raise CfgError("the source node cannot be in the use set")
    missing = ({cfg.source} | cfg.sinks) - problem.invalidation_set
    if missing:
        raise CfgError(f"invalidation set must contain the source and all sinks; missing {sorted(missing)}")


def calc_set(cfg: Cfg, problem: ExprProblem, life: Iterable[int]) -> frozenset:
    """Edges that receive a new computation for the given life set.

    Reference definition, used verbatim by the oracles and to re-derive
    solver output: an edge (x, y) is included iff x is not in
    life-minus-invalidation and y is a use or in the life set.
    """
    life = frozenset(life)
    for v in life:
        if not (0 <= v < cfg.node_count):
            raise CfgError(f"life set references unknown node id {v}")
    use = problem.use_set
    inv = problem.invalidation_set
    return frozenset((x, y) for (x, y) in cfg.edges
                     if not (x in life and x not in inv) and (y in use or y in life))


def reach(starts: Iterable[int], nexts, blocked=()) -> set:
    """``starts``, each kept and expanded even when blocked, and every node
    reached from them through ``nexts[v]`` without entering a node of
    ``blocked``.  ``nexts`` is ``Cfg.succ``, ``Cfg.pred`` or any sequence
    of neighbour lists indexed by node."""
    found = set(starts)
    stack = list(found)
    while stack:
        for w in nexts[stack.pop()]:
            if w not in found and w not in blocked:
                found.add(w)
                stack.append(w)
    return found


def use_region(cfg: Cfg, problem: ExprProblem) -> set:
    """B: the uses, and every node that reaches one without passing an
    invalidating node.  A node of B that is not a use is not invalidating."""
    return reach(problem.use_set, cfg.pred, problem.invalidation_set)


def min_calc_count(cfg: Cfg, problem: ExprProblem, limit: int) -> int:
    """Fewest calculation edges that any life set has, capped at ``limit``.

    A path that leaves an invalidating node, passes only through nodes
    outside the invalidation set and ends at the first use it enters holds
    a calculation edge under every life set: walking back from the use, the
    first edge whose tail is not live-and-valid is one.  Conversely the
    edges of a minimum cut between the invalidating nodes and the uses
    contain the calculation set of the life set made of the
    non-invalidating nodes on the use side.  So the count is the maximum
    number of edge-disjoint such paths (Menger), the minimum edge cut of
    MC-PRE, found here as a unit-capacity flow by BFS augmenting paths.
    Under unit edge costs and zero primary node costs it equals the
    optimum's calculation count; under any finite costs it is a lower bound
    for it.

    Every node of such a path after its first is in the use region B
    (``use_region``), so the flow network has one arc per edge into B and
    no other: an arc into a node outside B carries no flow.  The work is
    in proportion to B's nodes and in-edges, not to the graph.
    """
    use, inv = problem.use_set, problem.invalidation_set
    index = {v: i for i, v in enumerate(use_region(cfg, problem))}
    source, sink = len(index), len(index) + 1
    flow = 0
    head = []                       # arc a runs to head[a]; a ^ 1 is its reverse
    out = [[] for _ in range(len(index) + 2)]
    for y, w in index.items():
        if y in use:
            w = sink
        for x in cfg.pred[y]:
            u = source if x in inv else None if x in use else index[x]
            if u is None or u == w:
                continue
            if u == source and w == sink:
                flow += 1
                continue
            out[u].append(len(head))
            head.append(w)
            out[w].append(len(head))
            head.append(u)
    cap = [1, 0] * (len(head) // 2)
    while flow < limit:
        via = [-1] * (sink + 1)     # arc that first reached each vertex
        queue = [source]
        for v in queue:
            for a in out[v]:
                w = head[a]
                if cap[a] and via[w] < 0 and w != source:
                    via[w] = a
                    queue.append(w)
            if via[sink] >= 0:
                break
        if via[sink] < 0:
            break
        w = sink
        while w != source:
            a = via[w]
            cap[a] -= 1
            cap[a ^ 1] += 1
            w = head[a ^ 1]
        flow += 1
    return min(flow, limit)


def total_cost(cfg: Cfg, problem: ExprProblem, life: Iterable[int]) -> CostVec:
    """Objective value of a life set: edge costs over calc_set plus node costs over life."""
    life = frozenset(life)
    return sum_costs([cfg.edge_cost[e] for e in calc_set(cfg, problem, life)] +
                     [cfg.node_cost[v] for v in life])


# ---------------------------------------------------------------------------
# Graph file format
#
#   cfg <node_count>
#   node <id> l=<cost>
#   edge <from> <to> c=<cost>
#   problem use=<ids> invalidate=<ids>
#
# Costs are written as [p,s] or inf, and edge costs are at least [0,0]; id
# lists are comma separated and may be empty.  '#' starts a comment.
# Unlisted nodes default to l=[0,1], edges default to c=[1,0].


def _parse_ids(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed id list {text!r}")


def _node_id(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"malformed node id {token!r}")


def load_cfg(text: str):
    """Parse the graph file format.

    Returns ``(cfg, problems)``.  A new source node is appended when the
    file has zero or several nodes without predecessors, restoring the
    unique-source invariant.  Problem invalidation sets are augmented with
    the source and sinks.
    """
    node_count = None
    edges = []
    edge_cost = {}
    node_cost = {}
    raw_problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "cfg":
                if node_count is not None:
                    raise ValueError("duplicate 'cfg' header")
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise ValueError("expected 'cfg <node_count>'")
                node_count = int(parts[1])
                if node_count == 0:
                    raise ValueError("a graph must have at least one node")
            elif node_count is None:
                raise ValueError("file must start with 'cfg <node_count>'")
            elif parts[0] == "node":
                if len(parts) != 3 or not parts[2].startswith("l="):
                    raise ValueError("expected 'node <id> l=<cost>'")
                v = _node_id(parts[1])
                cost = parse_cost(parts[2][2:])
                if not (0 <= v < node_count):
                    raise ValueError(f"unknown node id {v}")
                node_cost[v] = cost
            elif parts[0] == "edge":
                if len(parts) != 4 or not parts[3].startswith("c="):
                    raise ValueError("expected 'edge <from> <to> c=<cost>'")
                u, v = _node_id(parts[1]), _node_id(parts[2])
                cost = parse_cost(parts[3][2:], edge=True)
                if not (0 <= u < node_count and 0 <= v < node_count):
                    raise ValueError(f"edge ({u}, {v}) references an unknown node id")
                if (u, v) in edge_cost:
                    raise ValueError(f"duplicate edge {u} -> {v}")
                edges.append((u, v))
                edge_cost[(u, v)] = cost
            elif parts[0] == "problem":
                use = inv = None
                for p in parts[1:]:
                    if p.startswith("use="):
                        use = _parse_ids(p[4:])
                    elif p.startswith("invalidate="):
                        inv = _parse_ids(p[11:])
                    else:
                        raise ValueError(f"unexpected token {p!r}")
                if use is None or inv is None:
                    raise ValueError("expected 'problem use=<ids> invalidate=<ids>'")
                for v in use + inv:
                    if not (0 <= v < node_count):
                        raise ValueError(f"unknown node id {v}")
                raw_problems.append((use, inv, lineno))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise GraphFormatError(str(exc), lineno)
    if node_count is None:
        raise GraphFormatError("file must start with 'cfg <node_count>'")

    has_pred = [False] * node_count
    for (u, v) in edges:
        has_pred[v] = True
    sources = [v for v in range(node_count) if not has_pred[v]]
    if len(sources) != 1:
        new = node_count
        node_count += 1
        targets = sources if sources else [0]
        for t in targets:
            edges.append((new, t))
            edge_cost[(new, t)] = DEFAULT_EDGE_COST

    cfg = Cfg(node_count, edges, edge_cost, node_cost)
    problems = []
    for use, inv, lineno in raw_problems:
        try:
            problems.append(make_problem(cfg, use, inv))
        except CfgError as exc:
            raise GraphFormatError(str(exc), lineno)
    return cfg, problems


def dump_dot(cfg: Cfg, problem: Optional[ExprProblem] = None, solution=None) -> str:
    """Render the graph in DOT.

    Use nodes get a double border, invalidating nodes are filled, life-set
    nodes are dashed, and calculation edges are bold red.  Output is
    deterministic for identical inputs.
    """
    use = problem.use_set if problem else frozenset()
    inv = problem.invalidation_set if problem else frozenset()
    life = solution.life_set if solution is not None else frozenset()
    calc = solution.calc_set if solution is not None else frozenset()
    lines = ["digraph cfg {"]
    for v in range(cfg.node_count):
        attrs = [f'label="{v}\\nl={format_cost(cfg.node_cost[v])}"']
        styles = []
        if v in inv:
            styles.append("filled")
            attrs.append('fillcolor="gray75"')
        if v in life:
            styles.append("dashed")
        if v in use:
            attrs.append("peripheries=2")
        if styles:
            attrs.append(f'style="{",".join(styles)}"')
        lines.append(f"  n{v} [{' '.join(attrs)}];")
    for (u, v) in sorted(cfg.edges):
        attrs = [f'label="{format_cost(cfg.edge_cost[(u, v)])}"']
        if (u, v) in calc:
            attrs.append('color="red" style="bold"')
        lines.append(f"  n{u} -> n{v} [{' '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
