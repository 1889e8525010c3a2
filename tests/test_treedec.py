import pytest

from lospre.cfg import Cfg, make_problem
from lospre.cost import CostVec
from lospre.dp import solve
from lospre.errors import DecompositionError
from lospre.oracle import InstanceGenerator, STYLES, generate
from lospre.treedec import (FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDec, TreeDec, decompose,
                            dump_dot_treedec, make_nice, validate, validate_nice)


def path_graph(n):
    return Cfg(n, [(i, i + 1) for i in range(n - 1)])


def test_path_width_one():
    assert decompose(path_graph(4)).width == 1


def test_clique_width():
    edges = [(i, j) for i in range(4) for j in range(4) if i < j]
    cfg = Cfg(4, edges)
    assert decompose(cfg).width == 3


def test_diamond_series_parallel_width():
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert decompose(cfg).width <= 2


def test_single_node():
    cfg = Cfg(1, [])
    td = decompose(cfg)
    assert td.width == 0
    nice = make_nice(td)
    assert validate_nice(cfg, nice) is None


def test_decompose_deterministic():
    cfg, _ = generate(InstanceGenerator(seed=5, node_range=(8, 12)))
    a, b = decompose(cfg), decompose(cfg)
    assert a.bags == b.bags and a.edges == b.edges


def test_validate_catches_constructed_violations():
    cfg = path_graph(3)
    td = decompose(cfg)
    emptied = TreeDec(bags=[frozenset()] + td.bags[1:], edges=td.edges)
    msg = validate(cfg, emptied)
    assert msg is not None and "coverage" in msg
    # a vertex occurring in two disconnected bags
    bad = TreeDec(bags=[frozenset({0, 1}), frozenset({1, 2}), frozenset({0})],
                  edges=[(0, 1), (1, 2)])
    msg = validate(cfg, bad)
    assert msg is not None and "connectivity" in msg


def test_validate_catches_missing_edge():
    cfg = Cfg(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDec(bags=[frozenset({0, 1}), frozenset({1, 2})], edges=[(0, 1)])
    msg = validate(cfg, td)
    assert msg is not None and "edge coverage" in msg


def test_make_nice_single_bag():
    cfg = Cfg(2, [(0, 1)])
    td = TreeDec(bags=[frozenset({0, 1})], edges=[])
    nice = make_nice(td)
    assert validate_nice(cfg, nice) is None
    assert nice.width == td.width == 1


def test_make_nice_handbuilt_decomposition_preserves_width():
    # hand-built decomposition of a 6-node graph with a 3-bag spine
    cfg = Cfg(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    td = TreeDec(bags=[frozenset({0, 1, 2}), frozenset({1, 2, 3, 4}), frozenset({3, 4, 5})],
                 edges=[(0, 1), (1, 2)])
    assert validate(cfg, td) is None
    nice = make_nice(td)
    assert validate_nice(cfg, nice) is None
    assert nice.width == td.width == 3


def test_validate_nice_requires_children_numbered_first():
    # a nice decomposition of one edge, valid but numbered root first
    cfg = Cfg(2, [(0, 1)])
    nice = NiceTreeDec(kinds=[FORGET, FORGET, INTRODUCE, INTRODUCE, LEAF],
                       vertex=[1, 0, 1, 0, None],
                       bags=[(), (1,), (0, 1), (0,), ()],
                       children=[(1,), (2,), (3,), (4,), ()])
    msg = validate_nice(cfg, nice)
    assert msg is not None and "numbered before its child" in msg
    bottom_up = NiceTreeDec(kinds=nice.kinds[::-1], vertex=nice.vertex[::-1],
                            bags=nice.bags[::-1], children=[(), (0,), (1,), (2,), (3,)])
    assert validate_nice(cfg, bottom_up) is None
    # the solver sweeps a hand-built decomposition in id order
    assert solve(cfg, make_problem(cfg, use=[]), bottom_up).cost == CostVec(0, 0)


def test_make_nice_rejects_broken_tree():
    with pytest.raises(DecompositionError):
        make_nice(TreeDec(bags=[frozenset({0}), frozenset({1})], edges=[]))
    with pytest.raises(DecompositionError, match=r"^decomposition has no bags$"):
        make_nice(TreeDec(bags=[], edges=[]))
    # len(bags) - 1 edges, one of them a loop on a bag the others miss
    with pytest.raises(DecompositionError, match=r"^decomposition tree is not connected$"):
        make_nice(TreeDec(bags=[frozenset({0}), frozenset({1}), frozenset({2})],
                          edges=[(0, 1), (2, 2)]))


_F = frozenset
_KIND = {"L": LEAF, "I": INTRODUCE, "F": FORGET, "J": JOIN}
# hand-built decompositions and the exact nice forms make_nice gives them:
# the DFS walks each bag's neighbours in edge order, so the node numbering
# (and with it the solvers' sweep order and transitions) depends on it
NICE_FORMS = {
    "star": (
        TreeDec(bags=[_F({0, 1}), _F({1, 2}), _F({1, 3}), _F({0, 4}), _F({0, 5})],
                edges=[(0, 1), (0, 2), (0, 3), (0, 4)]),
        "LIILIILIILIIFIFIFIFIJJJFF",
        [None, 0, 5, None, 0, 4, None, 1, 3, None, 1, 2, 2, 0, 3, 0, 4, 1, 5, 1,
         None, None, None, 0, 1],
        [(), (0,), (0, 5), (), (0,), (0, 4), (), (1,), (1, 3), (), (1,), (1, 2), (1,),
         (0, 1), (1,), (0, 1), (0,), (0, 1), (0,), (0, 1), (0, 1), (0, 1), (0, 1), (1,), ()],
        [(), (0,), (1,), (), (3,), (4,), (), (6,), (7,), (), (9,), (10,), (11,), (12,),
         (8,), (14,), (5,), (16,), (2,), (18,), (13, 15), (20, 17), (21, 19), (22,), (23,)],
        24),
    "path": (
        TreeDec(bags=[_F({1, 2}), _F({0, 1}), _F({2, 3}), _F({3, 4})],
                edges=[(1, 0), (0, 2), (2, 3)]),
        "LIIFILIIFIFIJFF",
        [None, 3, 4, 4, 2, None, 0, 1, 0, 2, 3, 1, None, 1, 2],
        [(), (3,), (3, 4), (3,), (2, 3), (), (0,), (0, 1), (1,), (1, 2), (2,), (1, 2),
         (1, 2), (2,), ()],
        [(), (0,), (1,), (2,), (3,), (), (5,), (6,), (7,), (8,), (4,), (10,), (9, 11),
         (12,), (13,)],
        14),
    "children_first": (
        TreeDec(bags=[_F({0, 1, 2}), _F({1, 2, 3}), _F({0, 4}), _F({3, 5}), _F({2, 3, 6})],
                edges=[(3, 1), (4, 1), (2, 0), (1, 0)]),
        "LIIILIIFIIFIJLIIFIFIIJFFF",
        [None, 2, 3, 6, None, 3, 5, 5, 1, 2, 6, 1, None, None, 0, 4, 3, 0, 4, 1, 2,
         None, 0, 1, 2],
        [(), (2,), (2, 3), (2, 3, 6), (), (3,), (3, 5), (3,), (1, 3), (1, 2, 3), (2, 3),
         (1, 2, 3), (1, 2, 3), (), (0,), (0, 4), (1, 2), (0, 1, 2), (0,), (0, 1),
         (0, 1, 2), (0, 1, 2), (1, 2), (2,), ()],
        [(), (0,), (1,), (2,), (), (4,), (5,), (6,), (7,), (8,), (3,), (10,), (9, 11),
         (), (13,), (14,), (12,), (16,), (15,), (18,), (19,), (17, 20), (21,), (22,),
         (23,)],
        24),
}


@pytest.mark.parametrize("name", NICE_FORMS)
def test_make_nice_forms_are_pinned(name):
    td, kinds, vertex, bags, children, root = NICE_FORMS[name]
    nice = make_nice(td)
    assert nice == NiceTreeDec(kinds=[_KIND[k] for k in kinds], vertex=vertex,
                               bags=bags, children=children)
    assert root == nice.node_count - 1


@pytest.mark.parametrize("style", STYLES)
def test_random_suite_valid_and_width_preserved(style):
    for seed in range(60):
        cfg, _ = generate(InstanceGenerator(seed=seed, node_range=(4, 12), style=style))
        td = decompose(cfg)
        assert validate(cfg, td) is None
        nice = make_nice(td)
        assert validate_nice(cfg, nice) is None
        assert nice.width == td.width


def test_every_vertex_forgotten_once():
    for seed in range(30):
        cfg, _ = generate(InstanceGenerator(seed=seed, node_range=(4, 12)))
        nice = make_nice(decompose(cfg))
        forgotten = [v for kind, v in zip(nice.kinds, nice.vertex) if kind == FORGET]
        assert sorted(forgotten) == list(range(cfg.node_count))


def test_dot_export():
    cfg = path_graph(3)
    assert dump_dot_treedec(decompose(cfg)) == (
        'graph treedec {\n  b0 [shape=box label="{0,1}"];\n  b1 [shape=box label="{1,2}"];\n'
        '  b2 [shape=box label="{2}"];\n  b0 -- b1;\n  b1 -- b2;\n}\n')


def test_structured_program_graphs_stay_narrow():
    # graphs extracted from programs whose only jumps come from structured
    # if/else and counter loops must decompose well within the guard
    import warnings
    from lospre.ir import build_cfg, parse_ir
    from lospre.oracle import generate_program_text

    warnings.simplefilter("ignore")
    worst = 0
    for seed in range(60):
        cfg = build_cfg(parse_ir(generate_program_text(seed)))
        worst = max(worst, decompose(cfg).width)
    assert worst <= 7


def _min_fill_reference(cfg):
    """Elimination bags and tree edges of greedy min-fill, recomputing
    (fill, degree, id) of every remaining vertex from scratch at each step.
    Each bag links to the bag of the first of its other vertices to be
    eliminated, or to the next bag when it has no other vertex."""
    adj = {v: set() for v in range(cfg.node_count)}
    for (u, v) in cfg.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    def key(v):
        nb = sorted(adj[v])
        fill = sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])
        return (fill, len(nb), v)

    order, bags = [], []
    while adj:
        v = min(adj, key=key)
        nb = adj.pop(v)
        order.append(v)
        bags.append(frozenset(nb) | {v})
        for a in nb:
            adj[a].discard(v)
            adj[a] |= nb - {a}
    edges = []
    for i, bag in enumerate(bags):
        later = [j for j in range(i + 1, len(bags)) if order[j] in bag]
        if later or i + 1 < len(bags):
            edges.append((i, later[0] if later else i + 1))
    return bags, edges


def _cyclic_instances():
    # generator graphs of every style, then with back edges and self-loops added
    import random
    for style in STYLES:
        for seed in range(50):
            cfg, _ = generate(InstanceGenerator(seed=seed, node_range=(4, 30), style=style))
            yield cfg
            rng = random.Random(seed)
            edges = set(cfg.edges)
            for _ in range(rng.randint(1, 4)):
                v = rng.randrange(1, cfg.node_count)
                edges.add((rng.randrange(v, cfg.node_count), v))
            yield Cfg(cfg.node_count, edges)


def _band_instances():
    # band DAGs of band 3-5 with half the band's edges, so fill edges have
    # common neighbours; every other one gets back edges
    import random
    for seed in range(12):
        rng = random.Random(f"band-min-fill/{seed}")
        n, band = rng.randint(60, 200), rng.randint(3, 5)
        edges = {(i, j) for i in range(n) for j in range(i + 1, min(n, i + band + 1))
                 if j == i + 1 or rng.random() < 0.5}
        for _ in range(rng.randint(2, 5) if seed % 2 else 0):
            v = rng.randrange(1, n)
            edges.add((rng.randrange(v, n), v))
        yield Cfg(n, edges)


def test_decompose_matches_from_scratch_min_fill():
    # the incremental key updates must give the elimination order, and so
    # the bags and tree edges, that recomputing every key at every step gives
    import warnings
    from lospre.ir import build_cfg, parse_ir
    from lospre.oracle import generate_program_text

    warnings.simplefilter("ignore")
    graphs = list(_cyclic_instances())
    graphs += [build_cfg(parse_ir(generate_program_text(seed, max_statements=30)))
               for seed in range(40)]
    bands = list(_band_instances())
    assert len(graphs) >= 300
    for cfg in graphs + bands:
        td = decompose(cfg)
        assert (td.bags, td.edges) == _min_fill_reference(cfg), cfg
    assert {decompose(cfg).width for cfg in bands} >= {3, 4, 5, 6}


def test_packed_keys_at_their_extremes():
    # the int keys must order as (fill, degree, id) at the largest degree
    # (n - 1, on the hub of a star, at id 0 and at id n - 1), at the
    # largest fill, on all-equal keys, and on the smallest graphs
    star = Cfg(9, [(0, v) for v in range(1, 9)])
    last_hub = Cfg(9, [(0, 8)] + [(8, v) for v in range(1, 8)])
    wheel = Cfg(9, [(0, v) for v in range(1, 9)] + [(v, v % 8 + 1) for v in range(1, 9)])
    k6 = Cfg(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    for cfg in (star, last_hub, wheel, k6, Cfg(1, []), Cfg(2, [(0, 1)])):
        td = decompose(cfg)
        assert (td.bags, td.edges) == _min_fill_reference(cfg), cfg.edges
    assert [decompose(cfg).width for cfg in (star, wheel, k6)] == [1, 3, 5]


def test_validate_names_the_first_violated_condition():
    # path 0-1-2-3 plus the edge (1, 3); the valid decomposition has bags
    # {0,1}, {1,2,3}, {1,3} on a path, and each broken copy breaks it
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    bags = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({1, 3})]
    path = [(0, 1), (1, 2)]
    assert validate(cfg, TreeDec(bags, path)) is None
    no_node = [frozenset({1}), bags[1], bags[2]]
    no_edge = [bags[0], frozenset({1, 2}), frozenset({2, 3})]
    split = [bags[0], bags[1], frozenset({0, 1, 3})]           # vertex 0 in bags 0 and 2
    cases = [
        # a vertex in no bag leaves its edges uncovered too; node coverage comes first
        (no_node, path, "node coverage violated: vertex 0 is in no bag"),
        (no_edge, path, "edge coverage violated: edge (1, 3) has no common bag"),
        (split, path, "connectivity violated: occurrences of vertex 0 do not form a subtree"),
        (bags, [(0, 1), (0, 2)], "connectivity violated: occurrences of vertex 3 do not form a subtree"),
        # more conditions broken: the message names the first in the documented order
        (no_node[:1] + no_edge[1:], path, "node coverage violated: vertex 0 is in no bag"),
        ([bags[0], frozenset({1, 2}), frozenset({0, 2, 3})], path,   # and 0 split
         "edge coverage violated: edge (1, 3) has no common bag"),
    ]
    for case_bags, case_edges, message in cases:
        assert validate(cfg, TreeDec(case_bags, case_edges)) == message


def test_validate_searches_every_bag_when_the_last_bags_miss():
    # the last bags of 1 and 2 are {0,1} and {2,3}: the edge (1, 2) lies
    # only in the root bag, which is numbered first
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3)])
    td = TreeDec([frozenset({1, 2}), frozenset({0, 1}), frozenset({2, 3})], [(0, 1), (0, 2)])
    assert validate(cfg, td) is None
    # 1 and 3 occur in two bags each, never together: the edge (1, 3) is
    # missed by the last bags and then by the search
    cfg = Cfg(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    td = TreeDec([frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})],
                 [(0, 1), (1, 2), (2, 3)])
    assert validate(cfg, td) == "edge coverage violated: edge (1, 3) has no common bag"


# calculation edges of every shape a rewrite subdivides, in SHAPES' node ids:
# 1 x =, 2 if c, 3 y =, 4 goto M, 5 L:, 6 M: if d goto N, 7 N:, 8 ret,
# 9 the head of an unreachable region, 10 ret, 11 the sink
SHAPES = """\
    x = a + b
    if c goto L
    y = a + b
    goto M
L:  z = a + b
M:  if d goto N
N:  w = a + b
    ret
    q = a + b
    ret
"""
SHAPE_EDGES = {"fallthrough": (1, 2), "branch-taken": (2, 5), "jump": (4, 6),
               "ret": (8, 11), "entry": (0, 1), "unreachable-head": (0, 9),
               "collapsed-branch": (6, 7)}


# the rewritten text of each shape: the computation before the head, inline
# after the instruction, or in a trailing block the instruction jumps to
SHAPE_TEXTS = {
    "fallthrough": """\
    x = __lospre0
    __lospre0 = a + b
    if c goto L
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    ret
    q = __lospre0
    ret
""",
    "branch-taken": """\
    x = __lospre0
    if c goto __L0
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    ret
    q = __lospre0
    ret
__L0: __lospre0 = a + b
    goto L
""",
    "jump": """\
    x = __lospre0
    if c goto L
    y = __lospre0
    goto __L0
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    ret
    q = __lospre0
    ret
__L0: __lospre0 = a + b
    goto M
""",
    "ret": """\
    x = __lospre0
    if c goto L
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    goto __L0
    q = __lospre0
    ret
__L0: __lospre0 = a + b
    ret
""",
    "entry": """\
    __lospre0 = a + b
    x = __lospre0
    if c goto L
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    ret
    q = __lospre0
    ret
""",
    "unreachable-head": """\
    x = __lospre0
    if c goto L
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto N
N: w = __lospre0
    ret
    __lospre0 = a + b
    q = __lospre0
    ret
""",
    "collapsed-branch": """\
    x = __lospre0
    if c goto L
    y = __lospre0
    goto M
L: z = __lospre0
M: if d goto __L0
__L0: __lospre0 = a + b
N: w = __lospre0
    ret
    q = __lospre0
    ret
""",
    "all": """\
    __lospre0 = a + b
    x = __lospre0
    __lospre0 = a + b
    if c goto __L0
    y = __lospre0
    goto __L1
L: z = __lospre0
M: if d goto __L2
__L2: __lospre0 = a + b
N: w = __lospre0
    goto __L3
    __lospre0 = a + b
    q = __lospre0
    ret
__L0: __lospre0 = a + b
    goto L
__L1: __lospre0 = a + b
    goto M
__L3: __lospre0 = a + b
    ret
""",
}


@pytest.mark.parametrize("edges, text", [([e], SHAPE_TEXTS[k]) for k, e in SHAPE_EDGES.items()] +
                         [(list(SHAPE_EDGES.values()), SHAPE_TEXTS["all"])],
                         ids=list(SHAPE_EDGES) + ["all"])
def test_subdivide_patches_every_insertion_shape(edges, text):
    # verdicts carry across a rewrite through its node map when the new
    # graph is the old one with each calculation edge subdivided
    import warnings
    from lospre.dp import LospreSolution
    from lospre.ir import (UnreachableCodeWarning, build_cfg, derive_problems, format_ir,
                           parse_ir, rewrite)

    warnings.simplefilter("ignore", UnreachableCodeWarning)
    prog = parse_ir(SHAPES)
    cfg = build_cfg(prog)
    assert set(edges) <= cfg.edges
    cand = derive_problems(prog, cfg)[0][0]
    step = rewrite(prog, cfg, cand,
                   LospreSolution(frozenset(), frozenset(edges), CostVec(len(edges), 0)),
                   "__lospre0")
    assert format_ir(step.program) == text
    new_cfg = build_cfg(step.program)
    assert step.cfg.edges == new_cfg.edges
    # the old nodes map one to one onto the new nodes that are not added instructions
    added = len(step.program) - len(prog)
    assert len(set(step.node_map)) == len(step.node_map) == new_cfg.node_count - added


def test_an_invalid_heuristic_decomposition_is_an_internal_error(monkeypatch):
    from lospre import treedec
    monkeypatch.setattr(treedec, "validate", lambda cfg, td: "x")
    with pytest.raises(DecompositionError) as info:
        decompose(path_graph(3))
    assert str(info.value) == "internal error: heuristic produced an invalid decomposition: x"


def test_a_nice_form_of_another_width_is_an_internal_error(monkeypatch):
    td = decompose(path_graph(3))
    monkeypatch.setattr(TreeDec, "width", 99)
    with pytest.raises(DecompositionError) as info:
        make_nice(td)
    assert str(info.value) == "internal error: width changed during nice conversion"
