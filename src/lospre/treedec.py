"""Tree-decompositions of the underlying undirected graph.

``decompose`` runs a greedy minimum-fill elimination ordering (minimum
degree, then lowest id as tie-breakers), which is deterministic and gives
small widths on the sparse graphs produced from structured programs.  The
solvers are correct for any valid decomposition, so the heuristic only
affects table sizes, never results.  ``make_nice`` converts to a rooted
form with empty root and leaf bags and only introduce/forget/join steps,
preserving the width exactly.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
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
        return max(len(b) for b in self.bags) - 1

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
    for leaves and joins).  ``order`` lists nodes children-before-parents.
    """

    kinds: list
    vertex: list
    bags: list
    children: list
    root: int
    order: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

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
    nb = list(adj[v])
    missing = 0
    for i in range(len(nb)):
        ai = adj[nb[i]]
        for j in range(i + 1, len(nb)):
            if nb[j] not in ai:
                missing += 1
    return missing


def decompose(cfg: Cfg) -> TreeDec:
    """Heuristic tree-decomposition of the underlying undirected graph."""
    n = cfg.node_count
    adj = _undirected_adjacency(cfg)
    heap = []
    for v in range(n):
        heapq.heappush(heap, (_fill_in(adj, v), len(adj[v]), v))
    eliminated = [False] * n
    order = []
    elim_bags = []
    while len(order) < n:
        fill, deg, v = heapq.heappop(heap)
        if eliminated[v]:
            continue
        cur = (_fill_in(adj, v), len(adj[v]))
        if (fill, deg) != cur:
            heapq.heappush(heap, (cur[0], cur[1], v))
            continue
        order.append(v)
        elim_bags.append(frozenset(adj[v]) | {v})
        eliminated[v] = True
        nb = sorted(adj[v])
        touched = set(nb)
        for i in range(len(nb)):
            a = nb[i]
            adj[a].discard(v)
            for j in range(i + 1, len(nb)):
                b = nb[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
            touched.update(adj[a])
        adj[v] = set()
        for u in touched:
            if not eliminated[u]:
                heapq.heappush(heap, (_fill_in(adj, u), len(adj[u]), u))

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


def _check_tree(td: TreeDec) -> None:
    m = len(td.bags)
    if m == 0:
        raise DecompositionError("decomposition has no bags")
    if len(td.edges) != m - 1:
        raise DecompositionError("decomposition tree must have exactly len(bags)-1 edges")
    nb = td.neighbors()
    seen = [False] * m
    stack = [0]
    seen[0] = True
    count = 0
    while stack:
        a = stack.pop()
        count += 1
        for b in nb[a]:
            if not seen[b]:
                seen[b] = True
                stack.append(b)
    if count != m:
        raise DecompositionError("decomposition tree is not connected")


class _NiceBuilder:
    def __init__(self):
        self.kinds = []
        self.vertex = []
        self.bags = []
        self.children = []

    def add(self, kind, vertex, bag, children=()):
        self.kinds.append(kind)
        self.vertex.append(vertex)
        self.bags.append(tuple(sorted(bag)))
        self.children.append(tuple(children))
        return len(self.kinds) - 1

    def leaf_chain(self, bag):
        nid = self.add(LEAF, None, ())
        cur = []
        for v in sorted(bag):
            cur.append(v)
            nid = self.add(INTRODUCE, v, cur, (nid,))
        return nid

    def lift(self, nid, from_bag, to_bag):
        """Forget then introduce, one vertex per step, to turn from_bag into to_bag."""
        cur = set(from_bag)
        for v in sorted(from_bag - to_bag):
            cur.discard(v)
            nid = self.add(FORGET, v, cur, (nid,))
        for v in sorted(to_bag - from_bag):
            cur.add(v)
            nid = self.add(INTRODUCE, v, cur, (nid,))
        return nid


def make_nice(td: TreeDec) -> NiceTreeDec:
    """Convert to a nice decomposition of the same width.

    The node count is linear in the total bag size of the input.  Joins are
    binarized; introduce steps add exactly one vertex each.
    """
    _check_tree(td)
    nb = td.neighbors()
    b = _NiceBuilder()

    root_td = 0
    parent = [-1] * len(td.bags)
    parent[root_td] = root_td
    topo = [root_td]
    stack = [root_td]
    while stack:
        a = stack.pop()
        for c in nb[a]:
            if parent[c] == -1:
                parent[c] = a
                topo.append(c)
                stack.append(c)
    kids = [[] for _ in td.bags]
    for a in topo[1:]:
        kids[parent[a]].append(a)

    result = {}
    for a in reversed(topo):
        bag = set(td.bags[a])
        adapted = []
        for c in sorted(kids[a]):
            adapted.append(b.lift(result[c], set(td.bags[c]), bag))
        if not adapted:
            result[a] = b.leaf_chain(bag)
        else:
            acc = adapted[0]
            for nxt in adapted[1:]:
                acc = b.add(JOIN, None, bag, (acc, nxt))
            result[a] = acc

    root = b.lift(result[root_td], set(td.bags[root_td]), set())
    order = list(range(len(b.kinds)))  # builder appends children before parents
    nice = NiceTreeDec(kinds=b.kinds, vertex=b.vertex, bags=b.bags,
                       children=b.children, root=root, order=order)
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


def dump_dot_treedec(td) -> str:
    """DOT rendering of a TreeDec or NiceTreeDec."""
    lines = ["graph treedec {"]
    if isinstance(td, NiceTreeDec):
        for i in range(td.node_count):
            tag = td.kinds[i]
            if td.vertex[i] is not None:
                tag += f" {td.vertex[i]}"
            bag = ",".join(str(v) for v in td.bags[i])
            lines.append(f'  b{i} [shape=box label="{tag}\\n{{{bag}}}"];')
        for i in range(td.node_count):
            for c in td.children[i]:
                lines.append(f"  b{i} -- b{c};")
    else:
        for i, bag in enumerate(td.bags):
            label = ",".join(str(v) for v in sorted(bag))
            lines.append(f'  b{i} [shape=box label="{{{label}}}"];')
        for (a, b) in td.edges:
            lines.append(f"  b{a} -- b{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
