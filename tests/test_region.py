"""Solving a candidate on its use region gives the whole-graph solve's answer.

``run_pipeline`` solves each candidate on its use region B with B's chains
contracted (``cli._use_region``), completes each chain and lifts the
solution back to the whole graph (``cli._region_solve``, ``cli._lift``).
Life set, calculation set and cost must equal those of the uncontracted
region, kept here as the reference (``uncontracted_region``), and those of
``solve`` on the whole graph; a region solve must fail exactly when the
whole-graph solve finds no feasible solution.  On at most 12 nodes they
must also equal brute force.
"""
import random
import warnings
from collections import Counter

import pytest

import lospre.cli as cli
from lospre.cfg import Cfg, make_problem, use_region
from lospre.cost import INFINITY, ZERO, CostVec
from lospre.dp import solve
from lospre.errors import NoFeasibleSolutionError
from lospre.ir import (UnreachableCodeWarning, build_cfg, derive_problems, instr_node,
                       parse_ir)
from lospre.oracle import STYLES, InstanceGenerator, brute_lospre, generate
from lospre.treedec import decompose, make_nice


def whole_solve(cfg, problem):
    return solve(cfg, problem, make_nice(decompose(cfg)))


def uncontracted_region(cfg, problem):
    """The region ``cli._use_region`` builds, with no chain contracted:
    ``(region cfg, its problem, B, constant)``, region node i being ``B[i]``."""
    use, inv = problem.use_set, problem.invalidation_set
    if any(c.primary < 0 or c.primary == 0 and c.secondary < 0 for c in cfg.node_cost.values()):
        region = range(cfg.node_count)
    else:
        region = sorted(use_region(cfg, problem))
    index = {v: i for i, v in enumerate(region)}
    edge_cost, node_cost, constant = {}, {}, ZERO
    for i, v in enumerate(region):
        cost, entered = cfg.node_cost[v], False
        for p in cfg.pred[v]:
            c = cfg.edge_cost[(p, v)]
            if p in index:
                edge_cost[(index[p], i)] = c
                entered = True
            elif v in use:
                constant = constant + c
            else:
                cost = cost + c
        node_cost[i] = cost
        if not entered:
            edge_cost[(i, i)] = ZERO
    region_cfg = Cfg(len(region) + 1, edge_cost, edge_cost, node_cost)
    region_problem = make_problem(region_cfg, [index[u] for u in use],
                                  [i for i, v in enumerate(region) if v in inv])
    return region_cfg, region_problem, region, constant


def reference_solve(cfg, problem):
    region_cfg, region_problem, region, constant = uncontracted_region(cfg, problem)
    part = solve(region_cfg, region_problem, make_nice(decompose(region_cfg)))
    return cli._lift(cfg, problem, {region[v] for v in part.life_set}, constant, part)


def contracted(cfg, problem):
    """``cli._use_region`` on the problem's use region."""
    return cli._use_region(cfg, problem, use_region(cfg, problem))


def region_solve(cfg, problem):
    solution, _ = cli._region_solve(cfg, problem, use_region(cfg, problem), 16)
    return solution


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
                            "infinite constant", "smaller region", "contracted"), 0)
    for seed in range(160):
        cfg, problem = region_instance(seed)
        assert 25 <= cfg.node_count <= 200
        expected = outcome(whole_solve, cfg, problem)
        assert outcome(reference_solve, cfg, problem) == expected, seed
        assert outcome(region_solve, cfg, problem) == expected, seed
        _, _, region, constant = uncontracted_region(cfg, problem)
        counts["cyclic"] += not cfg.is_acyclic()
        counts["overlap"] += bool(problem.use_set & problem.invalidation_set)
        counts["negative"] += min(cfg.node_cost.values()) < CostVec(0, 0)
        counts["infeasible"] += expected == "infeasible"
        counts["infinite constant"] += constant.infinite
        counts["smaller region"] += len(region) < cfg.node_count
        counts["contracted"] += bool(contracted(cfg, problem)[4])
    assert min(counts.values()) >= 5, counts


def small_chained_instance(seed):
    """A graph of at most 12 nodes, some of whose edges are subdivided into
    chains of two or three nodes, with ``with_random_costs``."""
    rng = random.Random(f"chained/{seed}")
    cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 7),
                                              style=STYLES[seed % 3]))
    n, edges = cfg.node_count, []
    for (u, v) in sorted(cfg.edges):
        k = min(rng.choice((0, 2, 3)), 12 - n)
        path = [u, *range(n, n + k), v]
        n += k
        edges += zip(path, path[1:])

    inv = problem.invalidation_set - {cfg.source} - cfg.sinks
    return with_random_costs(rng, n, edges, problem.use_set, inv)


def with_random_costs(rng, n, edges, use, inv):
    """The problem with ``use`` and ``inv`` on the graph of ``n`` nodes and
    ``edges``, with random costs: zero costs, so that optima tie, and about
    5 % infinite ones."""
    def cost(high):
        return INFINITY if rng.random() < 0.05 else CostVec(rng.randint(0, high),
                                                            rng.randint(0, 2))

    cfg = Cfg(n, edges, {e: cost(3) for e in edges}, {v: cost(2) for v in range(n)})
    return cfg, make_problem(cfg, use, inv)


def parallel_chained_instance(seed):
    """A path 0 .. m-1 of four to six nodes with a few more edges between
    its inner nodes, some of which get one or two chains of two nodes beside
    them, and some inner nodes a chain of two nodes that leaves and
    re-enters them: at most 12 nodes, one to three inner uses, about one in
    five inner nodes invalidating, with ``with_random_costs``."""
    rng = random.Random(f"parallel/{seed}")
    m = rng.randint(4, 6)
    inner = range(1, m - 1)
    edges = [(v, v + 1) for v in range(m - 1)]
    for _ in range(rng.randint(0, 2)):
        u, v = rng.choice(inner), rng.choice(inner)
        if u != v and (u, v) not in edges:
            edges.append((u, v))
    n = m
    for (u, v) in edges[:]:
        if u not in inner or v not in inner:
            continue
        ends = [(u, v)] * rng.choice((0, 1, 2))
        if rng.random() < 0.3:
            ends.append((u, u))
        for a, b in ends:
            if n + 2 <= 12:
                edges += [(a, n), (n, n + 1), (n + 1, b)]
                n += 2
    use = rng.sample(inner, min(len(inner), rng.randint(1, 3)))
    inv = [v for v in inner if rng.random() < 0.2]
    return with_random_costs(rng, n, edges, use, inv)


def edgecost_program(seed):
    """An IR program of at most 12 graph nodes: a loop whose body is a chain
    of three to five instructions, every instruction labeled, and random
    ``!edgecost`` and ``!nodecost`` directives, some edge costs infinite."""
    rng = random.Random(f"edgecost/{seed}")

    def statement():
        if rng.random() < 0.7:
            return f"{rng.choice('xyz')} = a {rng.choice('+*')} b"
        return f"{rng.choice('ab')} = {rng.randint(0, 9)}"

    body = [statement() for _ in range(rng.randint(3, 5))]
    lines = [statement(), *body, "if c goto I1", statement(), "ret"]
    text = "".join(f"I{k}: {line}\n" for k, line in enumerate(lines))
    labels = {instr_node(k): f"I{k}" for k in range(len(lines))}
    directives = [f"!nodecost I{k} [{rng.randint(0, 2)},{rng.randint(0, 2)}]"
                  for k in range(len(lines)) if rng.random() < 0.3]
    for (u, v) in sorted(build_cfg(parse_ir(text)).edges):
        if u in labels and v in labels and rng.random() < 0.4:
            cost = "inf" if rng.random() < 0.1 else f"[{rng.randint(0, 4)},{rng.randint(0, 2)}]"
            directives.append(f"!edgecost {labels[u]} {labels[v]} {cost}")
    return "".join(d + "\n" for d in directives) + text


def brute_outcome(cfg, problem):
    try:
        sol = brute_lospre(cfg, problem)
    except NoFeasibleSolutionError:
        return "infeasible"
    return sol.life_set, sol.cost


def merge_kinds(cfg, problem, chains):
    """How many chains of a contracted region meet something on their edge
    (p, y): an edge of the graph, an earlier chain, or p itself (a
    self-loop); how many put C on a node cost (y is no use); and how many
    hold an infinite edge."""
    ends = [(p, y) for p, y, *_ in chains]
    return {"parallel edge": sum(end in cfg.edges for end in ends),
            "parallel chain": len(ends) - len(set(ends)),
            "self-loop": sum(p == y for p, y in ends),
            "C on y": sum(y not in problem.use_set for _, y in ends),
            "infinite": sum(any(cfg.edge_cost[e].infinite for e in zip([p, *nodes], [*nodes, y]))
                            for p, y, nodes, *_ in chains)}


def test_contracted_region_solve_equals_brute_force_on_small_instances():
    counts = dict.fromkeys(("solves", "contracted", "infeasible", "edgecost"), 0)
    merges = Counter()
    instances = [small_chained_instance(seed) for seed in range(400)]
    instances += [parallel_chained_instance(seed) for seed in range(200)]
    for seed in range(150):
        program = parse_ir(edgecost_program(seed))
        cfg = build_cfg(program)
        counts["edgecost"] += any(c != CostVec(1, 0) for c in cfg.edge_cost.values())
        instances += [(cfg, problem) for _, problem in derive_problems(program, cfg)]
    for cfg, problem in instances:
        assert cfg.node_count <= 12
        expected = brute_outcome(cfg, problem)
        found = outcome(region_solve, cfg, problem)
        assert (found if found == "infeasible" else (found[0], found[2])) == expected
        counts["solves"] += 1
        chains = contracted(cfg, problem)[4]
        counts["contracted"] += bool(chains)
        counts["infeasible"] += expected == "infeasible"
        merges.update(merge_kinds(cfg, problem, chains))
    assert counts["solves"] >= 600 and counts["infeasible"] >= 5, counts
    assert counts["contracted"] >= 100 and counts["edgecost"] >= 100, counts
    assert len(merges) == 5 and min(merges.values()) >= 50, merges


def test_an_infinite_edge_into_a_use_from_outside_the_region_is_infeasible():
    # 0 -> 1 -> 2 -> 3 with 1 invalidating: the region of the use 2 is {2},
    # whose only entering edge is infinite, so every life set is infinite
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3)], edge_cost={(1, 2): INFINITY})
    problem = make_problem(cfg, use=[2], invalidate=[1])
    region_cfg, region_problem, kept, constant, chains = contracted(cfg, problem)
    assert kept == [2] and chains == [] and constant == INFINITY
    assert solve(region_cfg, region_problem, make_nice(decompose(region_cfg))).cost == \
        CostVec(0, 0)
    for run in (whole_solve, reference_solve, region_solve):
        with pytest.raises(NoFeasibleSolutionError):
            run(cfg, problem)


def test_an_edge_entering_the_region_charges_its_head_when_live():
    # 1 invalidates and branches to 2 and 3, which join at the use 4; the
    # edges into 2 and 3 cost 5, so the optimum computes on 2->4 and 3->4
    # (cost 2) rather than keeping 2 or 3 live
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    cfg = Cfg(6, edges, edge_cost={(1, 2): CostVec(5, 0), (1, 3): CostVec(5, 0)})
    problem = make_problem(cfg, use=[4], invalidate=[1])
    region_cfg, _, kept, constant, chains = contracted(cfg, problem)
    assert kept == [2, 3, 4] and chains == [] and constant == CostVec(0, 0)
    assert [region_cfg.node_cost[i] for i in range(3)] == [CostVec(5, 1), CostVec(5, 1),
                                                          CostVec(0, 1)]
    assert outcome(region_solve, cfg, problem) == outcome(whole_solve, cfg, problem) == \
        (frozenset(), {(2, 4), (3, 4)}, CostVec(2, 0))


def test_a_chain_becomes_one_edge_costing_its_best():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6 with uses 1 and 5: the chain 2, 3, 4
    # lies between the use 1, live when the value crosses the chain, and the
    # use 5.  Keeping it live costs [0,3]; computing on an edge costs [1,0]
    # plus the node costs after it, least on (4, 5).  So A = [1,0], C = [0,3]:
    # the edge (1, 5) costs A - C, and C joins the constant, as 5 is a use.
    # The optimum keeps 1 through 4 live: one calculation, on (0, 1)
    cfg = Cfg(7, [(v, v + 1) for v in range(6)])
    problem = make_problem(cfg, use=[1, 5])
    region_cfg, _, kept, constant, chains = contracted(cfg, problem)
    assert kept == [1, 5] and chains == [(1, 5, [2, 3, 4], 0, 3)]
    assert region_cfg.node_count == 3
    assert dict(region_cfg.edge_cost) == {(0, 0): ZERO, (0, 1): CostVec(1, -3)}
    assert constant == CostVec(1, 0) + CostVec(0, 3)  # the source edge into 1, and C
    assert outcome(region_solve, cfg, problem) == outcome(whole_solve, cfg, problem) == \
        (frozenset({1, 2, 3, 4}), {(0, 1)}, CostVec(1, 4))


def check_merge(cfg, problem):
    """The contracted region of ``problem`` after asserting that its solve
    equals brute force and the whole-graph solve."""
    expected = brute_outcome(cfg, problem)
    found = outcome(region_solve, cfg, problem)
    assert (found if found == "infeasible" else (found[0], found[2])) == expected
    assert found == outcome(whole_solve, cfg, problem)
    return contracted(cfg, problem)


def test_a_chain_parallel_to_an_edge_adds_to_its_cost():
    # 1 -> 4 directly and through the chain 2, 3, with uses 1 and 4: A = [1,0]
    # on (3, 4), C = [0,2], and the edge (1, 4) already costs [3,0]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5)]
    cfg = Cfg(6, edges, edge_cost={(1, 4): CostVec(3, 0)})
    problem = make_problem(cfg, use=[1, 4])
    region_cfg, _, kept, constant, chains = check_merge(cfg, problem)
    assert kept == [1, 4] and [c[:3] for c in chains] == [(1, 4, [2, 3])]
    assert dict(region_cfg.edge_cost) == {(0, 0): ZERO, (0, 1): CostVec(4, -2)}
    assert constant == CostVec(1, 2)


def test_two_parallel_chains_share_one_edge():
    # 1 -> 6 through the chains 2, 3 and 4, 5, with uses 1 and 6; node 3
    # costs [0,3], so the first chain has A = [1,0] and C = [0,4], the second
    # A = [1,0] and C = [0,2]: the edge (1, 6) costs [1,-4] + [1,-2]
    edges = [(0, 1), (1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6), (6, 7)]
    cfg = Cfg(8, edges, node_cost={3: CostVec(0, 3)})
    problem = make_problem(cfg, use=[1, 6])
    region_cfg, _, kept, constant, chains = check_merge(cfg, problem)
    assert kept == [1, 6] and [c[:3] for c in chains] == [(1, 6, [2, 3]), (1, 6, [4, 5])]
    assert dict(region_cfg.edge_cost) == {(0, 0): ZERO, (0, 1): CostVec(2, -6)}
    assert constant == CostVec(1, 6)


def test_a_chain_back_to_its_predecessor_is_a_self_loop():
    # the loop 1 -> 2 -> 3 -> 1 with the use 1 at its head: the chain 2, 3
    # closes onto 1, so the region is node 1 with a self-loop costing
    # A - C = [1,-2], and C = [0,2] joins the constant
    cfg = Cfg(5, [(0, 1), (1, 2), (2, 3), (3, 1), (1, 4)])
    problem = make_problem(cfg, use=[1])
    region_cfg, _, kept, constant, chains = check_merge(cfg, problem)
    assert kept == [1] and [c[:3] for c in chains] == [(1, 1, [2, 3])]
    assert region_cfg.node_count == 2 and dict(region_cfg.edge_cost) == {(0, 0): CostVec(1, -2)}
    assert constant == CostVec(1, 2)  # with the source edge into the use


def test_a_chain_into_a_node_that_is_no_use_charges_that_node():
    # the chain 2, 3 runs from the use 1 to the branch 4, which is no use:
    # C = [0,2] joins 4's node cost [0,1] and the edge (1, 4) costs [1,-2]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7), (6, 7), (7, 8)]
    cfg = Cfg(9, edges)
    problem = make_problem(cfg, use=[1, 5, 6])
    region_cfg, _, kept, constant, chains = check_merge(cfg, problem)
    assert kept == [1, 4, 5, 6] and [c[:3] for c in chains] == [(1, 4, [2, 3])]
    assert region_cfg.edge_cost[(0, 1)] == CostVec(1, -2)
    assert region_cfg.node_cost[1] == CostVec(0, 3) and constant == CostVec(1, 0)


def test_a_chain_with_infinite_edges():
    # the chain 2, 3, 4 between the uses 1 and 5: with (4, 5) infinite the
    # best computation is on (3, 4), A = [1,1]; with every edge of the chain
    # infinite A is too, and so is the edge (1, 5), so 1 must stay live
    path = [(v, v + 1) for v in range(6)]
    cfg = Cfg(7, path, edge_cost={(4, 5): INFINITY})
    problem = make_problem(cfg, use=[1, 5])
    region_cfg, _, _, constant, _ = check_merge(cfg, problem)
    assert dict(region_cfg.edge_cost) == {(0, 0): ZERO, (0, 1): CostVec(1, -2)}
    assert constant == CostVec(1, 3)
    cfg = Cfg(7, path, edge_cost={e: INFINITY for e in path[1:5]})
    problem = make_problem(cfg, use=[1, 5])
    region_cfg, _, _, constant, _ = check_merge(cfg, problem)
    assert dict(region_cfg.edge_cost) == {(0, 0): ZERO, (0, 1): INFINITY}
    assert constant == CostVec(1, 3)
    assert region_solve(cfg, problem).life_set == frozenset({1, 2, 3, 4})


def region_solves(monkeypatch):
    """Every region solve ``run_pipeline`` makes, as (contracted region size,
    uncontracted region size, graph size, chains, outcome, reference outcome,
    whole-graph outcome) tuples."""
    seen = []
    solve_region = cli._region_solve

    def checked(cfg, problem, region, max_width):
        assert region == use_region(cfg, problem)
        solution, width = solve_region(cfg, problem, region, max_width)
        region_cfg, _, _, _, chains = contracted(cfg, problem)
        seen.append((region_cfg.node_count - 1, len(uncontracted_region(cfg, problem)[2]),
                     cfg.node_count, len(chains),
                     (solution.life_set, solution.calc_set, solution.cost),
                     outcome(reference_solve, cfg, problem), outcome(whole_solve, cfg, problem)))
        return solution, width

    monkeypatch.setattr(cli, "_region_solve", checked)
    return seen


def test_region_solve_equals_the_whole_graph_solve_on_the_frozen_corpus(monkeypatch):
    from test_pipeline_frozen import cases

    warnings.simplefilter("ignore", UnreachableCodeWarning)
    seen = region_solves(monkeypatch)
    for _, text in cases():
        cli.run_pipeline(parse_ir(text), cli.RunConfig())
    assert len(seen) >= 500
    assert all(found == reference == whole for *_, found, reference, whole in seen)
    contracted, region, graph, chains = (sum(row[k] for row in seen) for k in range(4))
    assert region < graph / 2 and contracted < region and chains >= 500


def test_negative_node_costs_solve_on_the_whole_graph(monkeypatch):
    # the program of test_rewrite_turns_a_ret_into_a_jump_to_its_computation
    text = ("!nodecost [-2,0]\n!nodecost R [5,0]\nx = a + b\nif c goto L\n"
            "y = a + b\nR: ret\nL: z = a + b\nret\n")
    seen = region_solves(monkeypatch)
    result = cli.run_pipeline(parse_ir(text), cli.RunConfig())
    assert result.applied and seen
    for contracted, size, n, chains, found, reference, whole in seen:
        assert contracted == size == n and chains == 0 and found == reference == whole
