import random

from lospre.cfg import Cfg, make_problem, reach
from lospre.ir import build_cfg, derive_problems, parse_ir
from lospre.oracle import InstanceGenerator, STYLES, brute_safety, generate
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
    # the dataflow reference has no size limit
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
    assert brute_safety(cfg, problem).added == {1, 2}


def test_use_free_cycle_behind_an_invalidation_is_added():
    # the use at 1 precedes the loop, but node 2 invalidates on the way in:
    # the loop 3 <-> 4 is neither up-safe nor down-safe, and 5 is down-safe
    cfg = Cfg(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 3), (3, 5), (5, 6), (6, 7)])
    problem = make_problem(cfg, use=[1, 6], invalidate=[2])
    assert solved(cfg, problem).added == {3, 4} == brute_safety(cfg, problem).added
    # without the invalidation the use at 1 makes the loop up-safe
    problem = make_problem(cfg, use=[1, 6])
    assert solved(cfg, problem).added == frozenset() == brute_safety(cfg, problem).added


def roadmap_loop():
    """``x = *5`` / a counter loop / ``y = *5``: the graph and the load's problem."""
    program = parse_ir("x = *5\nL: c = c - 1\nif c goto L\ny = *5\nret\n")
    cfg = build_cfg(program)
    [problem] = [p for c, p in derive_problems(program, cfg) if c.safety_required]
    return cfg, problem


def test_an_up_safe_cycle_is_not_added():
    # every path into the loop 2 <-> 3 passes the load at node 1 and nothing
    # invalidates *5 after it, so the loop is up-safe though it holds no use
    cfg, problem = roadmap_loop()
    assert problem.use_set == {1, 4} and not cfg.is_acyclic()
    assert solve_safety(cfg, problem).added == frozenset() == brute_safety(cfg, problem).added


def test_self_loop_is_not_its_own_witness():
    # the sink 2 both uses and invalidates, so node 1's only other successor
    # witness would be itself
    cfg = Cfg(3, [(0, 1), (1, 1), (1, 2)])
    for use, added in (([2], frozenset()), ([], {1})):
        problem = make_problem(cfg, use=use)
        assert solved(cfg, problem).added == added == brute_safety(cfg, problem).added


def cyclic_instances():
    """600 ``cyclic_variant`` instances, 200 per style."""
    return [cyclic_variant(seed, style) for style in STYLES for seed in range(200)]


def test_dataflow_oracle_on_cyclic_and_overlap_instances():
    counts = {"cyclic": 0, "self-loop": 0, "overlap": 0}
    for cfg, problem in cyclic_instances():
        sol = solve_safety(cfg, problem)
        assert sol == brute_safety(cfg, problem)
        assert sol.i_prime == problem.invalidation_set | sol.added
        counts["cyclic"] += not cfg.is_acyclic()
        counts["self-loop"] += any(u == v for (u, v) in cfg.edges)
        counts["overlap"] += bool(problem.use_set & problem.invalidation_set)
    assert min(counts.values()) >= 50, counts


def witness_peel(cfg, problem, pred_side, self_witness):
    """The greatest set of eligible nodes in which every node has a successor
    in the set or invalidating and not a use (itself too if ``self_witness``)
    and, if ``pred_side``, a predecessor other than itself in the set or
    invalidating."""
    use, inv = problem.use_set, problem.invalidation_set
    added = {v for v in range(cfg.node_count) if v not in use and v not in inv}
    while True:
        kept = {v for v in added
                if any(w in added or (w in inv and w not in use)
                       for w in cfg.succ[v] if self_witness or w != v)
                and (not pred_side or any(u in added or u in inv for u in cfg.pred[v] if u != v))}
        if kept == added:
            return frozenset(added)
        added = kept


def not_up_safe(cfg, problem):
    return reach(problem.invalidation_set, cfg.succ, problem.use_set)


MUTANTS = {
    # the two-sided peel of the earlier definition, which adds up-safe loops
    "two-sided peel": lambda cfg, problem: witness_peel(cfg, problem, True, False),
    # the path closure alone, which drops use-free cycles that never exit
    "closure": lambda cfg, problem: (not_up_safe(cfg, problem) - problem.invalidation_set) &
    reach(problem.invalidation_set - problem.use_set, cfg.pred, problem.use_set),
    # a self-loop counted as the node's own successor witness
    "self-loop witness": lambda cfg, problem:
    witness_peel(cfg, problem, False, True) & not_up_safe(cfg, problem),
}


def test_the_oracle_rejects_each_mutant():
    instances = cyclic_instances() + [roadmap_loop()]
    for name, mutant in MUTANTS.items():
        assert any(mutant(cfg, problem) != brute_safety(cfg, problem).added
                   for cfg, problem in instances), name
