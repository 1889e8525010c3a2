import random
import warnings

import pytest

from lospre import ir as irmod
from lospre.cfg import (Cfg, ExprProblem, calc_set, dump_dot, load_cfg,
                        make_problem, min_calc_count, reach, total_cost, use_region,
                        validate_problem)
from lospre.cost import CostVec, INFINITY
from lospre.dp import LospreSolution, solve
from lospre.errors import CfgError, GraphFormatError, NoFeasibleSolutionError
from lospre.oracle import STYLES, InstanceGenerator, generate, generate_program_text
from lospre.safety import apply_safety, solve_safety
from lospre.treedec import decompose, make_nice


def _cut(cfg, problem, limit):
    """``min_calc_count`` on the problem's use region."""
    return min_calc_count(cfg, problem, use_region(cfg, problem), limit)


@pytest.fixture
def diamond():
    # 0 -> 1 -> {2, 3} -> 4
    return Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_source_and_sinks(diamond):
    assert diamond.source == 0
    assert diamond.sinks == {4}
    assert diamond.succ[1] == (2, 3)
    assert diamond.pred[4] == (2, 3)
    # the edges are the cost map's keys, in the order they were given
    assert diamond.edges == diamond.edge_cost.keys()
    assert list(diamond.edges) == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]


def test_unique_source_enforced():
    with pytest.raises(CfgError):
        Cfg(3, [(0, 2), (1, 2)])  # two nodes without predecessors
    with pytest.raises(CfgError):
        Cfg(2, [(0, 1), (1, 0)])  # none


def test_duplicate_edge_rejected():
    with pytest.raises(CfgError) as info:
        Cfg(2, [(0, 1), (0, 1)])
    assert str(info.value) == "duplicate edge 0 -> 1"


def test_self_loop_allowed():
    cfg = Cfg(3, [(0, 1), (1, 1), (1, 2)])
    assert (1, 1) in cfg.edges
    assert not cfg.is_acyclic()


def test_subdivided_rewires_only_the_ends_of_its_paths():
    # a diamond 0 -> 1 -> {2, 3} -> 4 with the self-loop 2 -> 2: the edges
    # (1, 3) and (2, 2) get paths through the new nodes 5 and 6, 7
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (2, 2)], {(1, 3): CostVec(4, 0)},
              {3: CostVec(0, 9)})
    before = (cfg.succ, cfg.pred, dict(cfg.edge_cost), dict(cfg.node_cost))
    new = cfg.subdivided({(1, 3): (5,), (2, 2): (6, 7)}, CostVec(2, 0), CostVec(0, 3))
    assert (cfg.succ, cfg.pred, cfg.edge_cost, cfg.node_cost) == before  # left as it was
    assert new.node_count == 8 and (new.source, new.sinks) == (0, {4})
    assert set(new.edges) == {(0, 1), (1, 2), (1, 5), (5, 3), (2, 4), (3, 4), (2, 6), (6, 7),
                              (7, 2)}
    assert new.succ[1] == (2, 5) and new.pred[3] == (5,)  # in place of 3 and of 1
    assert (new.succ[2], new.pred[2]) == ((4, 6), (1, 7))
    assert (new.succ[6], new.pred[6], new.succ[7], new.pred[7]) == ((7,), (2,), (2,), (6,))
    for v in (0, 4):
        assert new.succ[v] is cfg.succ[v] and new.pred[v] is cfg.pred[v]
    assert new.edge_cost[(1, 5)] == new.edge_cost[(7, 2)] == CostVec(2, 0)
    assert new.edge_cost[(0, 1)] == CostVec(1, 0) and new.node_cost[3] == CostVec(0, 9)
    assert [new.node_cost[v] for v in (5, 6, 7)] == [CostVec(0, 3)] * 3
    for paths, costs, message in [
            ({(1, 3): (6,)}, CostVec(1, 0), "new nodes must be 5 on"),
            ({(1, 3): (5,), (2, 4): (5,)}, CostVec(1, 0), "new nodes must be 5 on"),
            ({(1, 3): ()}, CostVec(1, 0), "new nodes must be 5 on"),
            ({(3, 1): (5,)}, CostVec(1, 0), "no edge 3 -> 1 to subdivide"),
            ({(1, 3): (5,)}, CostVec(-1, 0), r"new edges cost \[-1,0\], below \[0,0\]")]:
        with pytest.raises(CfgError, match=message):
            cfg.subdivided(paths, costs, CostVec(0, 1))


def test_edge_costs_below_zero_rejected():
    # the tie rule, the use region and the oracles' tie order assume every
    # edge costs at least [0,0]; on these three graphs, drawn with edge
    # costs in [-2..2]x[-2..2], solve and brute force agree on the cost
    # but not on the life set
    for seed in (31, 128, 297):
        cfg0, _ = generate(InstanceGenerator(seed, node_range=(4, 9)))
        rng = random.Random(seed)
        cost = {e: CostVec(rng.randint(-2, 2), rng.randint(-2, 2)) for e in cfg0.edge_cost}
        with pytest.raises(CfgError, match=r"below \[0,0\]"):
            Cfg(cfg0.node_count, cfg0.edges, cost, cfg0.node_cost)
    with pytest.raises(CfgError, match=r"edge 0 -> 1 costs \[0,-1\]"):
        Cfg(2, [(0, 1)], {(0, 1): CostVec(0, -1)})
    edges = [(0, 1), (1, 2)]
    cfg = Cfg(3, edges, {(0, 1): CostVec(0, 0), (1, 2): INFINITY}, {1: CostVec(-2, -1)})
    assert cfg.edge_cost == {(0, 1): CostVec(0, 0), (1, 2): INFINITY}


@pytest.mark.parametrize("args, message", [
    ((0, []), "a CFG must have at least one node"),
    ((2, [(0, 1), (1, 2)]), "edge (1, 2) references an unknown node id"),
    ((2, [(0, 1)], {(0, 1): CostVec(2, 0), (1, 0): CostVec(1, 0)}),
     "cost given for unknown edge (1, 0)"),
    ((2, [(0, 1)], None, {1: CostVec(0, 2), 5: CostVec(0, 1)}),
     "cost given for unknown node 5"),
], ids=["no-nodes", "unknown-edge-end", "unknown-edge-cost",
        "unknown-node-cost"])
def test_constructor_rejects_each_bad_input(args, message):
    with pytest.raises(CfgError) as info:
        Cfg(*args)
    assert str(info.value) == message


def test_validate_problem_rejects_hand_built_problems(diamond):
    cases = [
        (ExprProblem(frozenset({2, 9}), frozenset({0, 4})), "problem references unknown node id 9"),
        (ExprProblem(frozenset({2}), frozenset({1})),
         "invalidation set must contain the source and all sinks; missing [0, 4]"),
        (ExprProblem(frozenset({2}), frozenset({0})),
         "invalidation set must contain the source and all sinks; missing [4]"),
    ]
    for problem, message in cases:
        with pytest.raises(CfgError) as info:
            validate_problem(diamond, problem)
        assert str(info.value) == message


def test_problem_invariants(diamond):
    p = make_problem(diamond, use=[2, 3])
    assert p.invalidation_set == {0, 4}
    with pytest.raises(CfgError):
        make_problem(diamond, use=[0])  # the source cannot be a use


def test_calc_set_reference_cases(diamond):
    p = make_problem(diamond, use=[2, 3])
    assert calc_set(diamond, p, []) == {(1, 2), (1, 3)}
    assert calc_set(diamond, p, [1]) == {(0, 1)}
    empty = make_problem(diamond, use=[])
    assert calc_set(diamond, empty, []) == frozenset()


def test_calc_set_range_check(diamond):
    p = make_problem(diamond, use=[2, 3])
    with pytest.raises(CfgError):
        calc_set(diamond, p, [9])


def test_reach_on_index_lists():
    # 0 -> 1, 1 -> 1 (a self-loop), 1 -> 2, 2 -> 3, 3 -> 1
    nexts = [[1], [2, 1], [3], [1], []]
    assert reach([0], nexts) == {0, 1, 2, 3}
    assert reach([4], nexts) == {4}
    # a blocked node is never entered
    assert reach([0], nexts, {2}) == {0, 1}
    # a blocked start is kept and expanded
    assert reach([1], nexts, {1, 3}) == {1, 2}
    assert reach([3, 0], nexts, {0, 3}) == {0, 1, 2, 3}


def test_total_cost_cases(diamond):
    p = make_problem(diamond, use=[2, 3])
    assert total_cost(diamond, p, []) == CostVec(2, 0)
    assert total_cost(diamond, p, [1]) == CostVec(1, 1)
    empty = make_problem(diamond, use=[])
    assert total_cost(diamond, empty, []) == CostVec(0, 0)


def test_removing_idle_invalidating_node_never_helps():
    # a life node that is invalidating and touches no calculation edge only
    # adds its node cost, so dropping it cannot increase the total as long
    # as node costs are non-negative (the default instantiation)
    import random
    from lospre.oracle import InstanceGenerator, generate
    rng = random.Random(13)
    for seed in range(30):
        cfg, p = generate(InstanceGenerator(seed=seed, node_range=(4, 10)))
        for _ in range(8):
            life = frozenset(v for v in range(cfg.node_count) if rng.random() < 0.4)
            cs = calc_set(cfg, p, life)
            for v in life:
                if v in p.invalidation_set and not any(v in e for e in cs):
                    assert not total_cost(cfg, p, life) < total_cost(cfg, p, life - {v})


GRAPH_TEXT = """\
# comment
cfg 5
node 1 l=[0,2]
edge 0 1 c=[1,0]
edge 1 2 c=[2,0]
edge 1 3 c=[1,0]
edge 2 4 c=[1,0]
edge 3 4 c=inf
problem use=2,3 invalidate=0,4
problem use= invalidate=
"""


def test_load_cfg_roundtrip():
    cfg, problems = load_cfg(GRAPH_TEXT)
    assert cfg.node_count == 5
    assert cfg.node_cost[1] == CostVec(0, 2)
    assert cfg.edge_cost[(3, 4)] == INFINITY
    assert len(problems) == 2
    assert problems[0].use_set == {2, 3}
    # source and sinks are added even to an empty invalidate list
    assert problems[1].invalidation_set == {0, 4}


def test_load_cfg_minimal():
    cfg, problems = load_cfg("cfg 2\nedge 0 1 c=[1,0]\n")
    assert cfg.node_count == 2 and problems == []


def test_load_cfg_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        load_cfg("cfg 2\nedge 0 1 c=[1,0]\nedge 0 1 c=[1,0]\n")
    assert "duplicate edge" in str(err.value) and err.value.line == 3
    with pytest.raises(GraphFormatError):
        load_cfg("cfg 2\nedge 0 5 c=[1,0]\n")
    with pytest.raises(GraphFormatError):
        load_cfg("cfg 2\nedge 0 1 c=[1;0]\n")


def test_synthetic_source():
    text = "cfg 4\nedge 0 2 c=[1,0]\nedge 1 2 c=[1,0]\nedge 2 3 c=[1,0]\n"
    cfg, _ = load_cfg(text)
    assert cfg.node_count == 5
    assert cfg.source == 4
    assert (4, 0) in cfg.edges and (4, 1) in cfg.edges


def test_synthetic_source_pure_cycle():
    text = "cfg 2\nedge 0 1 c=[1,0]\nedge 1 0 c=[1,0]\n"
    cfg, _ = load_cfg(text)
    assert cfg.source == 2


def test_load_cfg_rejects_source_in_use_set():
    text = "cfg 2\nedge 0 1 c=[1,0]\nproblem use=0 invalidate=\n"
    with pytest.raises(GraphFormatError):
        load_cfg(text)


def test_dump_dot_markers(diamond):
    p = make_problem(diamond, use=[2, 3])
    sol = LospreSolution(life_set=frozenset({1}), calc_set=frozenset({(0, 1)}),
                         cost=CostVec(1, 1))
    dot = dump_dot(diamond, p, sol)
    assert "peripheries=2" in dot       # use nodes
    assert "dashed" in dot              # life nodes
    assert 'fillcolor="gray75"' in dot  # invalidating nodes
    assert 'color="red"' in dot         # calculation edges
    assert dot == dump_dot(diamond, p, sol)  # deterministic


# ---------------------------------------------------------------------------
# min_calc_count: the minimum cut that certifies "no gain"

def _cyclic_instance(seed, style, cost_style="unit"):
    """A generated instance with back edges, self-loops and use/inv overlap."""
    rng = random.Random(f"cut/{style}/{seed}")
    cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 14), style=style,
                                              cost_style=cost_style))
    n = cfg.node_count
    edges = set(cfg.edges)
    for _ in range(rng.randint(0, 4)):
        u, v = rng.randrange(n), rng.randrange(n)
        if v != cfg.source and u >= v:
            edges.add((u, v))
    extra = CostVec(1, 0) if cost_style == "unit" else CostVec(rng.randint(0, 5), 0)
    edge_cost = {e: cfg.edge_cost.get(e, extra) for e in edges}
    cyclic = Cfg(n, edges, edge_cost, cfg.node_cost)
    inv = problem.invalidation_set - {cfg.source} - cfg.sinks
    if seed % 2:
        inv |= {v for v in sorted(problem.use_set) if rng.random() < 0.5}
    return cyclic, make_problem(cyclic, problem.use_set, inv)


def _solved(cfg, problem):
    return solve(cfg, problem, make_nice(decompose(cfg)))


def _ir_candidates(seeds):
    for seed in seeds:
        program = irmod.parse_ir(generate_program_text(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", irmod.UnreachableCodeWarning)
            cfg = irmod.build_cfg(program)
        for candidate, problem in irmod.derive_problems(program, cfg):
            yield cfg, problem
            if candidate.safety_required:
                yield cfg, apply_safety(problem, solve_safety(cfg, problem))


def test_min_calc_count_equals_optimum_under_unit_costs():
    counts = {"cyclic": 0, "overlap": 0, "ir": 0}
    for style in STYLES:
        for seed in range(100):
            cfg, problem = _cyclic_instance(seed, style)
            assert _cut(cfg, problem, 10 ** 6) == \
                len(_solved(cfg, problem).calc_set), (style, seed)
            counts["cyclic"] += not cfg.is_acyclic()
            counts["overlap"] += bool(problem.use_set & problem.invalidation_set)
    for cfg, problem in _ir_candidates(range(60)):
        assert _cut(cfg, problem, 10 ** 6) == len(_solved(cfg, problem).calc_set)
        counts["ir"] += 1
    assert min(counts.values()) >= 50, counts


def test_min_calc_count_bounds_optimum_under_finite_costs():
    below = 0
    for style in STYLES:
        for seed in range(100):
            cfg, problem = _cyclic_instance(seed, style, cost_style="random")
            cut = _cut(cfg, problem, 10 ** 6)
            calcs = len(_solved(cfg, problem).calc_set)
            assert cut <= calcs, (style, seed)
            below += cut < calcs
    assert below > 0  # the costs do move the optimum off the minimum cut


def test_min_calc_count_limit_caps_the_search():
    cfg, problem = _cyclic_instance(10, "random-sparse")
    full = _cut(cfg, problem, 10 ** 6)
    assert full >= 4
    for limit in range(full + 3):
        assert _cut(cfg, problem, limit) == min(full, limit)
    # edges from an invalidating node straight into a use count before the search
    fan = Cfg(4, [(0, 1), (0, 2), (0, 3)])
    assert _cut(fan, make_problem(fan, use=[1, 2]), 1) == 1


def test_min_calc_count_hand_cases(diamond):
    # the two uses merge above the branch: one calculation on 0->1 serves both
    assert _cut(diamond, make_problem(diamond, use=[2, 3]), 9) == 1
    # invalidating the branch node splits them again
    assert _cut(diamond, make_problem(diamond, use=[2, 3], invalidate=[1]), 9) == 2
    assert _cut(diamond, make_problem(diamond, use=[]), 9) == 0
    # node 1 uses and invalidates (v = *v): its own entry and the edge to the
    # next use each need a calculation
    line = Cfg(4, [(0, 1), (1, 2), (2, 3)])
    assert _cut(line, make_problem(line, use=[1, 2]), 9) == 1
    assert _cut(line, make_problem(line, use=[1, 2], invalidate=[1]), 9) == 2
    # a self-loop on such a node is a calculation edge of its own
    loop = Cfg(3, [(0, 1), (1, 1), (1, 2)])
    assert _cut(loop, make_problem(loop, use=[1], invalidate=[1]), 9) == 2
    assert _cut(loop, make_problem(loop, use=[1]), 9) == 1
    # the unique shortest path 0-1-2-7 blocks both disjoint paths 0-1-3-4-8
    # and 0-5-6-2-7; only the residual reverse arc 2->1 finds the second
    ladder = Cfg(10, [(0, 1), (1, 2), (2, 7), (1, 3), (3, 4), (4, 8), (0, 5), (5, 6),
                      (6, 2), (7, 9), (8, 9)])
    problem = make_problem(ladder, use=[7, 8])
    assert _cut(ladder, problem, 9) == 2 == len(_solved(ladder, problem).calc_set)


def _edge_order_instances():
    for style in STYLES:
        for seed in range(4):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(8, 40), style=style))
            yield cfg, [problem]
    for seed in (0, 3, 7):
        program = irmod.parse_ir(generate_program_text(seed))
        cfg = irmod.build_cfg(program)
        yield cfg, [problem for _, problem in irmod.derive_problems(program, cfg)]


def _edge_order_results(cfg, problems):
    """What the solvers report on one graph: min-fill's bags, the nice form,
    and per problem the solution, the enlarged set and the minimum cut."""
    td = decompose(cfg)
    nice = make_nice(td)
    rows = []
    for problem in problems:
        try:
            sol = solve(cfg, problem, nice)
            solved = (sol.life_set, sol.calc_set, sol.cost, sol.transitions)
        except NoFeasibleSolutionError:
            solved = None
        enlarged = solve_safety(cfg, problem)
        rows.append((solved, enlarged.i_prime, enlarged.added,
                     _cut(cfg, problem, len(cfg.edges) + 1)))
    return td.bags, td.edges, nice, rows


def test_edge_order_changes_no_result():
    # edges, succ and pred follow the order the edges are given in; no
    # solver result may read that order
    for cfg, problems in _edge_order_instances():
        expected = _edge_order_results(cfg, problems)
        assert expected[3], "an instance with no problem checks nothing"
        edges = sorted(cfg.edges)
        shuffled = edges[:]
        random.Random(cfg.node_count).shuffle(shuffled)
        for order in (edges, edges[::-1], shuffled):
            same = Cfg(cfg.node_count, order, cfg.edge_cost, cfg.node_cost)
            assert _edge_order_results(same, problems) == expected
