"""Solving a candidate on its use region gives the whole-graph solve's answer.

``run_pipeline`` solves each candidate on its use region (``cli._use_region``)
and lifts the solution back to the whole graph (``cli._lift``).  Life set,
calculation set and cost must equal those of ``solve`` on the whole graph,
and a region solve must fail exactly when the whole-graph solve finds no
feasible solution.
"""
import random
import warnings

import pytest

import lospre.cli as cli
from lospre.cfg import Cfg, make_problem
from lospre.cost import INFINITY, CostVec
from lospre.dp import solve
from lospre.errors import NoFeasibleSolutionError
from lospre.ir import UnreachableCodeWarning, parse_ir
from lospre.oracle import InstanceGenerator, generate
from lospre.treedec import decompose, make_nice


def whole_solve(cfg, problem):
    return solve(cfg, problem, make_nice(decompose(cfg)))


def region_solve(cfg, problem):
    region_cfg, region_problem, region, constant = cli._use_region(cfg, problem)
    part = solve(region_cfg, region_problem, make_nice(decompose(region_cfg)))
    return cli._lift(cfg, problem, region, constant, part)


def outcome(run, cfg, problem):
    try:
        sol = run(cfg, problem)
    except NoFeasibleSolutionError:
        return "infeasible"
    return sol.life_set, sol.calc_set, sol.cost


def region_instance(seed):
    """A series-parallel or diamond-chain graph of 28-200 nodes with back
    edges and self-loops, random costs of which about 3 % are infinite,
    uses that also invalidate, and on every fourth seed negative node costs.
    """
    rng = random.Random(f"region/{seed}")
    style = ("series-parallel", "chained-diamonds")[seed % 2]
    cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(28, 200), style=style))
    n = cfg.node_count
    edges = set(cfg.edges)
    for _ in range(rng.randint(0, 6)):
        u, v = rng.randrange(n), rng.randrange(n)
        if v != cfg.source and u >= v:
            edges.add((u, v))

    def cost(low, high):
        return INFINITY if rng.random() < 0.03 else CostVec(rng.randint(low, high),
                                                            rng.randint(0, 3))

    low = -1 if seed % 4 == 0 else 0
    cyclic = Cfg(n, edges, {e: cost(0, 4) for e in sorted(edges)},
                 {v: cost(low, 2) for v in range(n)})
    inv = problem.invalidation_set - {cfg.source} - cfg.sinks
    inv |= {v for v in sorted(problem.use_set) if rng.random() < 0.2}
    return cyclic, make_problem(cyclic, problem.use_set, inv)


def test_region_solve_equals_the_whole_graph_solve_on_generated_instances():
    counts = dict.fromkeys(("cyclic", "overlap", "negative", "infeasible",
                            "infinite constant", "smaller region"), 0)
    for seed in range(160):
        cfg, problem = region_instance(seed)
        assert 25 <= cfg.node_count <= 200
        expected = outcome(whole_solve, cfg, problem)
        assert outcome(region_solve, cfg, problem) == expected, seed
        _, _, region, constant = cli._use_region(cfg, problem)
        counts["cyclic"] += not cfg.is_acyclic()
        counts["overlap"] += bool(problem.use_set & problem.invalidation_set)
        counts["negative"] += min(cfg.node_cost.values()) < CostVec(0, 0)
        counts["infeasible"] += expected == "infeasible"
        counts["infinite constant"] += constant.infinite
        counts["smaller region"] += len(region) < cfg.node_count
    assert min(counts.values()) >= 5, counts


def test_an_infinite_edge_into_a_use_from_outside_the_region_is_infeasible():
    # 0 -> 1 -> 2 -> 3 with 1 invalidating: the region of the use 2 is {2},
    # whose only entering edge is infinite, so every life set is infinite
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3)], edge_cost={(1, 2): INFINITY})
    problem = make_problem(cfg, use=[2], invalidate=[1])
    region_cfg, region_problem, region, constant = cli._use_region(cfg, problem)
    assert list(region) == [2] and constant == INFINITY
    assert solve(region_cfg, region_problem, make_nice(decompose(region_cfg))).cost == \
        CostVec(0, 0)
    for run in (whole_solve, region_solve):
        with pytest.raises(NoFeasibleSolutionError):
            run(cfg, problem)


def test_an_edge_entering_the_region_charges_its_head_when_live():
    # 1 invalidates and branches to 2 and 3, which join at the use 4; the
    # edges into 2 and 3 cost 5, so the optimum computes on 2->4 and 3->4
    # (cost 2) rather than keeping 2 or 3 live
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    cfg = Cfg(6, edges, edge_cost={(1, 2): CostVec(5, 0), (1, 3): CostVec(5, 0)})
    problem = make_problem(cfg, use=[4], invalidate=[1])
    region_cfg, _, region, constant = cli._use_region(cfg, problem)
    assert list(region) == [2, 3, 4] and constant == CostVec(0, 0)
    assert [region_cfg.node_cost[i] for i in range(3)] == [CostVec(5, 1), CostVec(5, 1),
                                                          CostVec(0, 1)]
    assert outcome(region_solve, cfg, problem) == outcome(whole_solve, cfg, problem) == \
        (frozenset(), {(2, 4), (3, 4)}, CostVec(2, 0))


def lifted_solves(monkeypatch):
    """Every solve ``run_pipeline`` lifts, with the whole-graph solve of its
    candidate, as (region size, graph size, lifted, whole) tuples."""
    seen = []
    lift = cli._lift

    def checked(cfg, problem, region, constant, part):
        lifted = lift(cfg, problem, region, constant, part)
        seen.append((len(region), cfg.node_count,
                     (lifted.life_set, lifted.calc_set, lifted.cost),
                     outcome(whole_solve, cfg, problem)))
        return lifted

    monkeypatch.setattr(cli, "_lift", checked)
    return seen


def test_region_solve_equals_the_whole_graph_solve_on_the_frozen_corpus(monkeypatch):
    from test_pipeline_frozen import cases

    warnings.simplefilter("ignore", UnreachableCodeWarning)
    seen = lifted_solves(monkeypatch)
    for _, text in cases():
        cli.run_pipeline(parse_ir(text), cli.RunConfig())
    assert len(seen) >= 500
    assert all(lifted == whole for _, _, lifted, whole in seen)
    assert sum(size for size, _, _, _ in seen) < sum(n for _, n, _, _ in seen) / 2


def test_negative_node_costs_solve_on_the_whole_graph(monkeypatch):
    # the program of test_rewrite_turns_a_ret_into_a_jump_to_its_computation
    text = ("!nodecost [-2,0]\n!nodecost R [5,0]\nx = a + b\nif c goto L\n"
            "y = a + b\nR: ret\nL: z = a + b\nret\n")
    seen = lifted_solves(monkeypatch)
    result = cli.run_pipeline(parse_ir(text), cli.RunConfig())
    assert result.applied and seen
    for size, n, lifted, whole in seen:
        assert size == n and lifted == whole
