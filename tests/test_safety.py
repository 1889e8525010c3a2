import random

import pytest

from lospre.cfg import Cfg, make_problem
from lospre.errors import SizeGuardError
from lospre.oracle import (InstanceGenerator, STYLES, brute_safety, brute_safety_fixpoint,
                           generate)
from lospre.safety import apply_safety, solve_safety
from lospre.treedec import decompose, make_nice


def solved(cfg, problem):
    return solve_safety(cfg, problem, make_nice(decompose(cfg)))


def cyclic_variant(seed, style):
    """A generated instance with back edges and self-loops added.

    Every third seed also drops the extra invalidating nodes, and every
    other seed makes some uses invalidating too, as ``v = *v`` does.  About
    a third of the instances hold a loop with no use in it.
    """
    rng = random.Random(f"cyclic/{style}/{seed}")
    cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 12), style=style))
    n = cfg.node_count
    edges = set(cfg.edges)
    for _ in range(rng.randint(1, 3)):
        u, v = rng.randrange(n), rng.randrange(n)
        if v != cfg.source and u >= v:
            edges.add((u, v))
    cyclic = Cfg(n, edges)
    inv = problem.invalidation_set - {cfg.source} - cfg.sinks
    if seed % 3 == 0:
        inv = frozenset()
    if seed % 2:
        inv |= {v for v in sorted(problem.use_set) if rng.random() < 0.5}
    return cyclic, make_problem(cyclic, problem.use_set, inv)


def line(n):
    return Cfg(n, [(i, i + 1) for i in range(n - 1)])


def test_straight_line_interior_is_added():
    cfg = line(4)
    sol = solved(cfg, make_problem(cfg, use=[]))
    assert sol.added == {1, 2}
    assert sol.i_prime == {0, 1, 2, 3}


def test_use_blocks_the_corridor():
    cfg = line(4)
    sol = solved(cfg, make_problem(cfg, use=[1]))
    assert sol.added == frozenset()


def test_everything_already_invalidating():
    cfg = line(4)
    sol = solved(cfg, make_problem(cfg, use=[], invalidate=[1, 2]))
    assert sol.added == frozenset()
    assert sol.i_prime == {0, 1, 2, 3}


def test_branch_bypass_nodes_are_added():
    # one arm holds the only use; the bypass arm, the branch and the join
    # form an unguarded corridor between invalidating nodes
    cfg = Cfg(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    sol = solved(cfg, make_problem(cfg, use=[2]))
    assert sol.added == {1, 3, 4}
    ref = brute_safety(cfg, make_problem(cfg, use=[2]))
    assert sol.i_prime == ref.i_prime


def test_every_path_through_use_adds_nothing():
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    sol = solved(cfg, make_problem(cfg, use=[2, 3]))
    # nodes 2 and 3 are uses; 1 and the join 4... 4 is a sink already
    assert sol.added == frozenset()


def test_apply_safety_and_idempotence():
    cfg = line(4)
    problem = make_problem(cfg, use=[])
    sol = solved(cfg, problem)
    enlarged = apply_safety(problem, sol)
    assert enlarged.invalidation_set == sol.i_prime
    assert enlarged.use_set == problem.use_set
    again = solved(cfg, enlarged)
    assert again.added == frozenset()


def test_apply_safety_noop():
    cfg = line(3)
    problem = make_problem(cfg, use=[1])
    sol = solved(cfg, problem)
    assert sol.added == frozenset()
    assert apply_safety(problem, sol) == problem


def test_added_nodes_have_witnesses():
    # restatement of the two finiteness guards on solver output
    for seed in range(60):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 10)))
        sol = solved(cfg, problem)
        use, inv = problem.use_set, problem.invalidation_set
        assert not sol.added & use
        assert inv <= sol.i_prime
        for v in sol.added:
            assert any(w in sol.added or (w in inv and w not in use)
                       for w in cfg.succ[v])
            assert any(u in sol.added or u in inv for u in cfg.pred[v])


def test_oracle_equivalence_all_styles():
    for style in STYLES:
        for seed in range(80):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 10), style=style))
            sol = solved(cfg, problem)
            ref = brute_safety(cfg, problem)
            assert sol.i_prime == ref.i_prime, (style, seed)
            assert sol.added == ref.added, (style, seed)


def test_oracle_equivalence_above_sixteen_nodes():
    # the path closure has no size limit: it is two linear sweeps
    cfg = line(17)
    problem = make_problem(cfg, use=[])
    assert brute_safety(cfg, problem) == solve_safety(cfg, problem)
    assert solve_safety(cfg, problem).added == frozenset(range(1, 16))
    overlap = added = 0
    for style in STYLES:
        for seed in range(40):
            rng = random.Random(f"large/{style}/{seed}")
            lo = 20 if style == "chained-diamonds" else 17  # multiples of 4
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(lo, 200),
                                                      style=style))
            assert cfg.node_count >= 17
            if seed % 2:
                # uses that also invalidate, as ``v = *v`` does
                inv = {v for v in sorted(problem.use_set) if rng.random() < 0.5}
                problem = make_problem(cfg, problem.use_set, problem.invalidation_set | inv)
            sol = solve_safety(cfg, problem)
            assert brute_safety(cfg, problem) == sol, (style, seed)
            overlap += bool(problem.use_set & problem.invalidation_set)
            added += bool(sol.added)
    assert overlap >= 40 and added >= 60, (overlap, added)


def test_safety_blocks_speculative_hoist():
    # one arm holds the only use behind two expensive edges; speculation
    # would move the computation above the branch onto the cheap entry
    # edge, executing it on paths that never use it, and the enlarged
    # invalidation set forbids exactly that
    from lospre.cost import CostVec
    from lospre.dp import solve
    from lospre.oracle import brute_lospre

    edges = [(0, 1), (1, 2), (1, 5), (2, 3), (3, 4), (5, 4), (4, 6)]
    cost = {e: CostVec(1, 0) for e in edges}
    cost[(1, 2)] = CostVec(9, 0)
    cost[(2, 3)] = CostVec(9, 0)
    cfg = Cfg(7, edges, edge_cost=cost)
    problem = make_problem(cfg, use=[3])
    nice = make_nice(decompose(cfg))

    unguarded = solve(cfg, problem, nice)
    assert unguarded.life_set == {1, 2}
    assert unguarded.calc_set == {(0, 1)}
    assert unguarded.cost == CostVec(1, 2)

    sol = solve_safety(cfg, problem, nice)
    assert sol.added == {1, 4, 5}
    guarded = solve(cfg, apply_safety(problem, sol), nice)
    assert guarded.life_set == frozenset()
    assert guarded.calc_set == {(2, 3)}
    assert guarded.cost == CostVec(9, 0)
    ref = brute_lospre(cfg, apply_safety(problem, sol))
    assert (ref.cost, ref.life_set) == (guarded.cost, guarded.life_set)


def test_loop_that_reaches_no_use_is_added():
    # 1 <-> 2 never exits: each node witnesses the other, and the source
    # witnesses 1 from above; a use-free cycle is an unguarded corridor
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 1), (0, 3)])
    problem = make_problem(cfg, use=[])
    assert solved(cfg, problem).added == {1, 2}
    assert brute_safety_fixpoint(cfg, problem).added == {1, 2}


def test_self_loop_is_not_its_own_witness():
    # the sink 2 both uses and invalidates, so node 1's only other successor
    # witness would be itself
    cfg = Cfg(3, [(0, 1), (1, 1), (1, 2)])
    assert solved(cfg, make_problem(cfg, use=[2])).added == frozenset()
    assert solved(cfg, make_problem(cfg, use=[])).added == {1}


def test_exhaustive_oracle_on_cyclic_and_overlap_instances():
    counts = {"cyclic": 0, "self-loop": 0, "overlap": 0}
    for style in STYLES:
        for seed in range(200):
            cfg, problem = cyclic_variant(seed, style)
            sol = solve_safety(cfg, problem)
            assert sol.added == brute_safety_fixpoint(cfg, problem).added, (style, seed)
            assert sol.i_prime == problem.invalidation_set | sol.added
            counts["cyclic"] += not cfg.is_acyclic()
            counts["self-loop"] += any(u == v for (u, v) in cfg.edges)
            counts["overlap"] += bool(problem.use_set & problem.invalidation_set)
    assert min(counts.values()) >= 50, counts


def test_fixpoint_oracle_size_guard():
    cfg = line(13)
    with pytest.raises(SizeGuardError):
        brute_safety_fixpoint(cfg, make_problem(cfg, use=[]))
    assert brute_safety_fixpoint(line(12), make_problem(line(12), use=[])).added == \
        frozenset(range(1, 11))
