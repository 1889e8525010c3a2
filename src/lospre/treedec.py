"""Tree-decompositions of the underlying undirected graph.

``decompose`` runs a greedy minimum-fill elimination ordering (minimum
degree, then lowest id as tie-breakers), which is deterministic and gives
small widths on the sparse graphs produced from structured programs.
Keys are kept exact from two counts per vertex, its degree d and tri, the
number of edges among its neighbours, with fill = d(d-1)/2 - tri; no fill
is ever recomputed.  Eliminating v first adds each fill edge (a, b) among
N(v): with c = |N(a) & N(b)| at that moment, tri[a] and tri[b] gain c and
every common neighbour gains 1.  N(v) is then a clique, so removing v
costs each neighbour one degree and d(v) - 1 triangles.  Only those
vertices get a new key.  Each vertex's current key is stored, a heap
entry that differs from it is stale and skipped, and the heap minimum is
the least current (fill, degree, id): the order is the one recomputing
every key at every step gives.  ``validate`` probes each edge in the
last bag of either endpoint first, which holds it whenever the bags are
numbered children first, as both ``decompose`` and ``make_nice`` number
them, and searches every bag only when that probe misses.  The
solvers are correct for any valid decomposition, so the heuristic only
affects table sizes, never results.  ``make_nice`` converts to a rooted
form with empty root and leaf bags and only introduce/forget/join steps,
preserving the width exactly.
"""
from __future__ import annotations

import heapq
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .cfg import Cfg
from .errors import DecompositionError

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass
class TreeDec:
    """An unrooted tree of frozenset bags; ``edges`` connect indices into ``bags``."""

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


def decompose(cfg: Cfg) -> TreeDec:
    """Heuristic tree-decomposition of the underlying undirected graph."""
    n = cfg.node_count
    adj = _undirected_adjacency(cfg)
    tri = [sum(len(adj[a] & nb) for a in nb) // 2 for nb in adj]   # edges among N(v)
    key = [(len(nb) * (len(nb) - 1) // 2 - t, len(nb)) for nb, t in zip(adj, tri)]
    heap = [(fill, deg, v) for v, (fill, deg) in enumerate(key)]
    heapq.heapify(heap)
    order = []
    elim_bags = []
    while len(order) < n:
        fill, deg, v = heapq.heappop(heap)
        if key[v] != (fill, deg):
            continue  # stale entry: v was eliminated or its key changed
        order.append(v)
        nbv = adj[v]   # kept as v's neighbourhood at its elimination
        elim_bags.append(frozenset(nbv) | {v})
        key[v] = None
        nb = sorted(nbv)
        touched = set(nb)
        for i, a in enumerate(nb):
            # N(v) ends a clique, so a loses v and v's deg - 1 edges into N(a)
            adj_a = adj[a]
            adj_a.discard(v)
            tri[a] -= deg - 1
            for b in nb[i + 1:] if fill else ():
                if b not in adj_a:
                    # fill edge (a, b) closes a triangle with each common
                    # neighbour: those in both sets, and v, which a has dropped
                    common = adj_a & adj[b]
                    tri[a] += len(common) + 1
                    tri[b] += len(common) + 1
                    for w in common:
                        tri[w] += 1
                    touched |= common
                    adj_a.add(b)
                    adj[b].add(a)
        for u in touched:
            d = len(adj[u])
            k = (d * (d - 1) // 2 - tri[u], d)
            if k != key[u]:
                key[u] = k
                heapq.heappush(heap, (k[0], d, u))

    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    edges = []
    for i, v in enumerate(order):
        if adj[v]:   # link to the bag of the first of v's neighbours to go
            edges.append((i, min(map(position.__getitem__, adj[v]))))
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
    bags = td.bags
    last = {}
    for i, bag in enumerate(bags):
        last.update(dict.fromkeys(bag, i))
    for v in range(n):
        if v not in last:
            return f"node coverage violated: vertex {v} is in no bag"
    for (u, v) in cfg.edges:
        # the top of the endpoint subtree that lies lower holds the edge
        if (v not in bags[last[u]] and u not in bags[last[v]]
                and not any(u in bag and v in bag for bag in bags)):
            return f"edge coverage violated: edge ({u}, {v}) has no common bag"
    # occurrence subtrees are connected iff, per vertex, occurrences minus
    # tree edges joining two occurrences equals one
    occ_count = Counter(chain.from_iterable(bags))
    link_count = Counter(chain.from_iterable(bags[a] & bags[b] for (a, b) in td.edges))
    for v in range(n):
        if occ_count[v] - link_count[v] != 1:
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
