"""Tree-decompositions of the underlying undirected graph.

``decompose`` runs a greedy minimum-fill elimination ordering (minimum
degree, then lowest id as tie-breakers), which is deterministic and gives
small widths on the sparse graphs produced from structured programs.
Keys are kept exact from two counts per vertex, its degree d and tri, the
number of edges among its neighbours, with fill = d(d-1)/2 - tri; no fill
is ever recomputed.  The first counts take one intersection per undirected
edge.  Eliminating v first adds each fill edge (a, b) among N(v), in
sorted order, so N(v) is sorted only when v has fill: with
c = |N(a) & N(b)| at that moment, tri[a] and tri[b] gain c and every
common neighbour gains 1.  N(v) is then a clique, so removing v costs each
neighbour one degree and d(v) - 1 triangles.  Only those vertices get a
new key.  A key is one int, (fill * (n + 1) + degree) * n + id, which
orders as the tuple (fill, degree, id) does, so the key list and the heap
hold no tuples.  Each vertex's current key is stored, a heap entry that
differs from it is stale and skipped, and the heap minimum is the least
current key: the order is the one recomputing every key at every step
gives.  ``validate`` probes each edge in the last bag of either endpoint
first, which holds it whenever the bags are numbered children first, as
both ``decompose`` and ``make_nice`` number them, and searches every bag
only when that probe misses.  The solvers are correct for any valid
decomposition, so the heuristic only affects table sizes, never results.
``make_nice`` converts to a rooted form with empty root and leaf bags and
only introduce/forget/join steps, preserving the width exactly; it reads
the tree from two flat arrays, not a list per bag.  ``validate`` and
``validate_nice`` word every defect of a decomposition; the solvers take
a form that ``validate_nice`` accepts, and report its message for one
they detect as defective.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
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
        """Map each forgotten vertex to its forget node, the only one in a
        form that ``validate_nice`` accepts."""
        return {v: i for i, (kind, v) in enumerate(zip(self.kinds, self.vertex)) if kind == FORGET}


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
    # twice the edges among N(v): each undirected edge (u, w) closes one
    # triangle per common neighbour, and that triangle holds both u and w
    tri = [0] * n
    for u, nb in enumerate(adj):
        for w in nb:
            if w > u:
                c = len(nb & adj[w])
                tri[u] += c
                tri[w] += c
    tri = [t >> 1 for t in tri]
    # (fill, degree, id) packed into one int: fill * step + degree * n + id
    step = n * (n + 1)
    key = [(len(nb) * (len(nb) - 1) // 2 - t) * step + len(nb) * n + v
           for v, (nb, t) in enumerate(zip(adj, tri))]
    heap = key[:]
    heapify(heap)
    order = []
    elim_bags = []
    while len(order) < n:
        k = heappop(heap)
        v = k % n
        if key[v] != k:
            continue  # stale entry: v was eliminated or its key changed
        order.append(v)
        nbv = adj[v]   # kept as v's neighbourhood at its elimination
        elim_bags.append(frozenset(nbv).union((v,)))
        key[v] = -1
        deg = len(nbv)
        if k < step:
            # no fill: N(v) is a clique already, so each neighbour a loses v
            # and v's deg - 1 edges into N(a); its degree, and so its key, changes
            for a in nbv:
                adj_a = adj[a]
                adj_a.discard(v)
                d = len(adj_a)
                tri[a] = t = tri[a] - deg + 1
                key[a] = k = (d * (d - 1) // 2 - t) * step + d * n + a
                heappush(heap, k)
        else:
            nb = sorted(nbv)
            touched = set(nbv)
            for i, a in enumerate(nb):
                # N(v) ends a clique, so a loses v and v's deg - 1 edges into N(a)
                adj_a = adj[a]
                adj_a.discard(v)
                tri[a] -= deg - 1
                for b in nb[i + 1:]:
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
                k = (d * (d - 1) // 2 - tri[u]) * step + d * n + u
                if k != key[u]:
                    key[u] = k
                    heappush(heap, k)

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
    """Check the three decomposition conditions, and that every bag vertex
    is a node of ``cfg``; None means valid.

    The returned message names the first violated condition and a witness.
    """
    n = cfg.node_count
    bags = td.bags
    last = {v: i for i, bag in enumerate(bags) for v in bag}
    for v in range(n):
        if v not in last:
            return f"node coverage violated: vertex {v} is in no bag"
    if len(last) != n:
        v = next(v for v in last if v not in range(n))
        return f"decomposition names vertex {v}, which is not a node of the graph"
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
    # the tree as flat arrays: the neighbours of bag a are nbr[first[a]:first[a + 1]],
    # in the order of the edges, as a list per bag would hold them
    first = [0] * (m + 1)
    for (a, b) in td.edges:
        first[a + 1] += 1
        first[b + 1] += 1
    first = list(accumulate(first))
    end = first[:]
    nbr = [0] * first[m]
    for (a, b) in td.edges:
        nbr[end[a]] = b
        end[a] += 1
        nbr[end[b]] = a
        end[b] += 1
    parent = [-1] * m
    parent[0] = 0
    topo = [0]
    stack = [0]
    while stack:
        a = stack.pop()
        for c in nbr[first[a]:first[a + 1]]:
            if parent[c] == -1:
                parent[c] = a
                topo.append(c)
                stack.append(c)
    if len(topo) != m:
        raise DecompositionError("decomposition tree is not connected")

    kinds, vertex, bags, children = [], [], [], []

    def add(kind, v, bag, ch):
        kinds.append(kind)
        vertex.append(v)
        bags.append(bag)
        children.append(ch)
        return len(kinds) - 1

    def lift(nid, to_bag):
        """Forget then introduce, one vertex per step, to turn node nid's bag into to_bag."""
        bag = bags[nid]
        cur = list(bag)  # kept sorted
        for v in bag:
            if v not in to_bag:
                cur.remove(v)
                nid = add(FORGET, v, tuple(cur), (nid,))
        for v in sorted(to_bag.difference(bag)):
            insort(cur, v)
            nid = add(INTRODUCE, v, tuple(cur), (nid,))
        return nid

    # children are appended before their parents
    top = [None] * m
    for a in reversed(topo):
        bag = frozenset(td.bags[a])
        kids = nbr[first[a]:first[a + 1]]
        if a:
            kids.remove(parent[a])
        kids.sort()
        adapted = [lift(top[c], bag) for c in kids]
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
    """Check a nice decomposition of ``cfg``; None means valid.

    The returned message names the first defect and a witness.  The nodes
    must form one tree under an empty root bag, each child numbered below
    its parent, and each bag must be its node kind's step from its
    children's bags; ``validate`` then checks the bags as a decomposition.
    Together these make every vertex forgotten exactly once: a vertex in no
    bag is never forgotten, and one forgotten twice occupies two subtrees.
    The solvers only detect a defect and report the message this returns.
    """
    if not 0 <= nice.root < nice.node_count:
        return f"root {nice.root} is not a node of the decomposition"
    if nice.bags[nice.root]:
        return "root bag is not empty"
    referenced = set()
    for i in range(nice.node_count):
        kind = nice.kinds[i]
        bag = set(nice.bags[i])
        ch = nice.children[i]
        for c in ch:
            if not 0 <= c < i:
                return f"node {i} is numbered before its child"
            if c in referenced:
                return f"node {c} is a child more than once"
            referenced.add(c)
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
    if len(referenced) != nice.node_count - 1:
        orphan = min(set(range(nice.node_count)) - referenced - {nice.root})
        return f"node {orphan} is not below the root"
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
