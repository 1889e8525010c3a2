import pytest

from lospre.cfg import Cfg, make_problem
from lospre.cost import CostVec
from lospre.dp import solve
from lospre.errors import DecompositionError
from lospre.oracle import InstanceGenerator, STYLES, generate
from lospre.treedec import (FORGET, INTRODUCE, LEAF, NiceTreeDec, TreeDec, decompose,
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
                       children=[(1,), (2,), (3,), (4,), ()], root=0)
    msg = validate_nice(cfg, nice)
    assert msg is not None and "numbered before its child" in msg
    bottom_up = NiceTreeDec(kinds=nice.kinds[::-1], vertex=nice.vertex[::-1],
                            bags=nice.bags[::-1], children=[(), (0,), (1,), (2,), (3,)],
                            root=4)
    assert validate_nice(cfg, bottom_up) is None
    # the solver sweeps a hand-built decomposition in id order
    assert solve(cfg, make_problem(cfg, use=[]), bottom_up).cost == CostVec(0, 0)


def test_make_nice_rejects_broken_tree():
    with pytest.raises(DecompositionError):
        make_nice(TreeDec(bags=[frozenset({0}), frozenset({1})], edges=[]))


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
        fm = nice.forget_map()
        assert set(fm) == set(range(cfg.node_count))


def test_dot_export():
    cfg = path_graph(3)
    td = decompose(cfg)
    assert dump_dot_treedec(td).startswith("graph treedec {")
    assert dump_dot_treedec(make_nice(td)).count("forget") >= 3


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


def _min_fill_reference_bags(cfg):
    """Elimination bags of greedy min-fill, recomputing (fill, degree, id)
    of every remaining vertex from scratch at each step."""
    adj = {v: set() for v in range(cfg.node_count)}
    for (u, v) in cfg.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    def key(v):
        nb = sorted(adj[v])
        fill = sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])
        return (fill, len(nb), v)

    bags = []
    while adj:
        v = min(adj, key=key)
        nb = adj.pop(v)
        bags.append(frozenset(nb) | {v})
        for a in nb:
            adj[a].discard(v)
            adj[a] |= nb - {a}
    return bags


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


def test_decompose_matches_from_scratch_min_fill():
    # the incremental key updates must give the elimination order that
    # recomputing every key at every step gives
    import warnings
    from lospre.ir import build_cfg, parse_ir
    from lospre.oracle import generate_program_text

    warnings.simplefilter("ignore")
    graphs = list(_cyclic_instances())
    graphs += [build_cfg(parse_ir(generate_program_text(seed, max_statements=30)))
               for seed in range(40)]
    assert len(graphs) >= 300
    for cfg in graphs:
        assert decompose(cfg).bags == _min_fill_reference_bags(cfg), cfg
