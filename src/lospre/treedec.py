"""Tree-decompositions of the underlying undirected graph.

``decompose`` runs a greedy minimum-fill elimination ordering (minimum
degree, then lowest id as tie-breakers), which is deterministic and gives
small widths on the sparse graphs produced from structured programs.
Keys are kept up to date incrementally, with the same order as
recomputing every key at every step: eliminating v removes v's edges and
adds fill edges among N(v), so only the degree and fill of N(v) change,
plus the fill of the common neighbours of each new fill edge (a vertex
outside N(v) keeps its neighbours and gains an edge among them exactly
when it is adjacent to both ends of a fill edge).  Each vertex's current
key is stored, a heap entry that differs from it is stale and skipped,
and the heap minimum is the least current (fill, degree, id).  The
solvers are correct for any valid decomposition, so the heuristic only
affects table sizes, never results.  ``make_nice`` converts to a rooted
form with empty root and leaf bags and only introduce/forget/join steps,
preserving the width exactly.
"""
from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Optional

from .cfg import Cfg
from .errors import DecompositionError

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass
class TreeDec:
    """An unrooted tree of bags; ``edges`` connect indices into ``bags``."""

    bags: list
    edges: list

    @property
    def width(self) -> int:
        return max(map(len, self.bags)) - 1

    def neighbors(self) -> list:
        nb = [[] for _ in self.bags]
        for (a, b) in self.edges:
            nb[a].append(b)
            nb[b].append(a)
        return nb


@dataclass
class NiceTreeDec:
    """Rooted decomposition with typed nodes and sorted-tuple bags.

    ``vertex[i]`` is the vertex introduced or forgotten at node ``i`` (None
    for leaves and joins).  Children are numbered before their parents
    (every child id is below its parent's), so ascending ids sweep the tree
    bottom-up.
    """

    kinds: list
    vertex: list
    bags: list
    children: list
    root: int

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def width(self) -> int:
        return max(map(len, self.bags)) - 1

    def forget_map(self) -> dict:
        """Map each graph vertex to its unique forget node."""
        fm = {}
        for i, kind in enumerate(self.kinds):
            if kind == FORGET:
                v = self.vertex[i]
                if v in fm:
                    raise DecompositionError(f"vertex {v} is forgotten more than once")
                fm[v] = i
        return fm


def _undirected_adjacency(cfg: Cfg) -> list:
    adj = [set() for _ in range(cfg.node_count)]
    for (u, v) in cfg.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _fill_in(adj, v) -> int:
    """Missing edges among v's neighbours: C(d,2) minus the edges between them."""
    nb = adj[v]
    d = len(nb)
    return d * (d - 1) // 2 - sum(len(adj[a] & nb) for a in nb) // 2


def decompose(cfg: Cfg) -> TreeDec:
    """Heuristic tree-decomposition of the underlying undirected graph."""
    n = cfg.node_count
    adj = _undirected_adjacency(cfg)
    key = [(_fill_in(adj, v), len(adj[v])) for v in range(n)]   # None once eliminated
    heap = [(fill, deg, v) for v, (fill, deg) in enumerate(key)]
    heapq.heapify(heap)
    order = []
    elim_bags = []
    while len(order) < n:
        fill, deg, v = heapq.heappop(heap)
        if key[v] != (fill, deg):
            continue  # stale entry: v was eliminated or its key changed
        order.append(v)
        elim_bags.append(frozenset(adj[v]) | {v})
        key[v] = None
        nb = sorted(adj[v])
        added = []
        for i, a in enumerate(nb):
            adj[a].discard(v)
            for b in nb[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    added.append((a, b))
        adj[v] = set()
        dirty = set(nb)
        for a, b in added:
            dirty |= adj[a] & adj[b]
        for u in dirty:
            k = (_fill_in(adj, u), len(adj[u]))
            if k != key[u]:
                key[u] = k
                heapq.heappush(heap, (k[0], k[1], u))

    position = {v: i for i, v in enumerate(order)}
    edges = []
    for i, bag in enumerate(elim_bags):
        later = [position[u] for u in bag if position[u] > i]
        if later:
            edges.append((i, min(later)))
        elif i + 1 < n:
            # isolated elimination bag: chain to the next one to keep a tree
            edges.append((i, i + 1))
    td = TreeDec(bags=list(elim_bags), edges=edges)
    problem = validate(cfg, td)
    if problem is not None:
        raise DecompositionError(f"internal error: heuristic produced an invalid decomposition: {problem}")
    return td


def validate(cfg: Cfg, td: TreeDec) -> Optional[str]:
    """Check the three decomposition conditions; None means valid.

    The returned message names the first violated condition and a witness.
    """
    n = cfg.node_count
    occurrences = [[] for _ in range(n)]
    for b_idx, bag in enumerate(td.bags):
        for v in bag:
            occurrences[v].append(b_idx)
    for v in range(n):
        if not occurrences[v]:
            return f"node coverage violated: vertex {v} is in no bag"
    for (u, v) in cfg.edges:
        a, b = (u, v) if len(occurrences[u]) <= len(occurrences[v]) else (v, u)
        if not any(b in td.bags[b_idx] for b_idx in occurrences[a]):
            return f"edge coverage violated: edge ({u}, {v}) has no common bag"
    # occurrence subtrees are connected iff, per vertex, occurrences minus
    # tree edges joining two occurrences equals one
    occ_count = [0] * n
    for bag in td.bags:
        for v in bag:
            occ_count[v] += 1
    link_count = [0] * n
    for (a, b) in td.edges:
        for v in td.bags[a]:
            if v in td.bags[b]:
                link_count[v] += 1
    for v in range(n):
        if occ_count[v] and occ_count[v] - link_count[v] != 1:
            return f"connectivity violated: occurrences of vertex {v} do not form a subtree"
    return None


def make_nice(td: TreeDec) -> NiceTreeDec:
    """Convert to a nice decomposition of the same width.

    The node count is linear in the total bag size of the input.  Joins are
    binarized; introduce steps add exactly one vertex each.
    """
    m = len(td.bags)
    if m == 0:
        raise DecompositionError("decomposition has no bags")
    if len(td.edges) != m - 1:
        raise DecompositionError("decomposition tree must have exactly len(bags)-1 edges")
    nb = td.neighbors()
    parent = [-1] * m
    parent[0] = 0
    topo = [0]
    stack = [0]
    while stack:
        a = stack.pop()
        for c in nb[a]:
            if parent[c] == -1:
                parent[c] = a
                topo.append(c)
                stack.append(c)
    if len(topo) != m:
        raise DecompositionError("decomposition tree is not connected")
    kids = [[] for _ in range(m)]
    for a in topo[1:]:
        kids[parent[a]].append(a)

    kinds, vertex, bags, children = [], [], [], []

    def add(kind, v, bag, ch):
        kinds.append(kind)
        vertex.append(v)
        bags.append(bag)
        children.append(ch)
        return len(kinds) - 1

    def lift(nid, to_bag):
        """Forget then introduce, one vertex per step, to turn node nid's bag into to_bag."""
        cur = list(bags[nid])  # kept sorted
        for v in [v for v in cur if v not in to_bag]:
            cur.remove(v)
            nid = add(FORGET, v, tuple(cur), (nid,))
        for v in sorted(to_bag.difference(cur)):
            insort(cur, v)
            nid = add(INTRODUCE, v, tuple(cur), (nid,))
        return nid

    # children are appended before their parents
    top = [None] * m
    for a in reversed(topo):
        bag = frozenset(td.bags[a])
        adapted = [lift(top[c], bag) for c in sorted(kids[a])]
        if not adapted:
            top[a] = lift(add(LEAF, None, (), ()), bag)
        else:
            acc = adapted[0]
            for nxt in adapted[1:]:
                acc = add(JOIN, None, bags[acc], (acc, nxt))
            top[a] = acc
    root = lift(top[0], frozenset())
    nice = NiceTreeDec(kinds=kinds, vertex=vertex, bags=bags, children=children, root=root)
    if nice.width != td.width:
        raise DecompositionError("internal error: width changed during nice conversion")
    return nice


def validate_nice(cfg: Cfg, nice: NiceTreeDec) -> Optional[str]:
    """Structural checks for a nice decomposition; None means valid."""
    if nice.bags[nice.root]:
        return "root bag is not empty"
    referenced = set()
    for i in range(nice.node_count):
        kind = nice.kinds[i]
        bag = set(nice.bags[i])
        ch = nice.children[i]
        referenced.update(ch)
        if any(c >= i for c in ch):
            return f"node {i} is numbered before its child"
        if kind == LEAF:
            if ch or bag:
                return f"leaf node {i} has children or a non-empty bag"
        elif kind == INTRODUCE:
            if len(ch) != 1:
                return f"introduce node {i} must have one child"
            cbag = set(nice.bags[ch[0]])
            if bag != cbag | {nice.vertex[i]} or nice.vertex[i] in cbag:
                return f"introduce node {i} does not add exactly its vertex"
        elif kind == FORGET:
            if len(ch) != 1:
                return f"forget node {i} must have one child"
            cbag = set(nice.bags[ch[0]])
            if cbag != bag | {nice.vertex[i]} or nice.vertex[i] in bag:
                return f"forget node {i} does not drop exactly its vertex"
        elif kind == JOIN:
            if len(ch) != 2:
                return f"join node {i} must have two children"
            if any(set(nice.bags[c]) != bag for c in ch):
                return f"join node {i} has unequal child bags"
        else:
            return f"unknown node kind {kind!r}"
    if nice.root in referenced:
        return "root node is a child of another node"
    try:
        fm = nice.forget_map()
    except DecompositionError as exc:
        return str(exc)
    if set(fm) != set(range(cfg.node_count)):
        missing = set(range(cfg.node_count)) - set(fm)
        return f"vertices never forgotten: {sorted(missing)[:8]}"
    td = TreeDec(bags=[frozenset(bag) for bag in nice.bags],
                 edges=[(i, c) for i in range(nice.node_count) for c in nice.children[i]])
    return validate(cfg, td)


def dump_dot_treedec(td: TreeDec) -> str:
    """DOT rendering of a TreeDec."""
    lines = ["graph treedec {"]
    for i, bag in enumerate(td.bags):
        label = ",".join(str(v) for v in sorted(bag))
        lines.append(f'  b{i} [shape=box label="{{{label}}}"];')
    for (a, b) in td.edges:
        lines.append(f"  b{a} -- b{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
