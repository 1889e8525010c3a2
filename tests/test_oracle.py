import pytest

from lospre.cfg import Cfg, make_problem, total_cost
from lospre.cost import CostVec
from lospre.errors import NoFeasibleSolutionError, SizeGuardError
from lospre.oracle import (InstanceGenerator, brute_extended, brute_extended_full,
                           brute_lospre, brute_safety, generate,
                           generate_program_text)
from lospre.treedec import decompose, validate


def test_generator_determinism():
    a = generate(InstanceGenerator(seed=0, node_range=(4, 8), style="series-parallel"))
    b = generate(InstanceGenerator(seed=0, node_range=(4, 8), style="series-parallel"))
    assert a[0].edges == b[0].edges
    assert a[1] == b[1]
    assert generate_program_text(3) == generate_program_text(3)


def test_generated_instances_satisfy_invariants():
    for style in ("series-parallel", "random-sparse", "chained-diamonds"):
        for seed in range(40):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 12), style=style))
            assert cfg.is_acyclic()
            assert cfg.source not in problem.use_set
            assert ({cfg.source} | cfg.sinks) <= problem.invalidation_set
            # the random suite keeps uses and invalidations disjoint
            assert not problem.use_set & problem.invalidation_set


def test_chained_diamonds_exact_size_and_width():
    for k in (1, 3, 6):
        n = 4 * k
        cfg, _ = generate(InstanceGenerator(seed=1, node_range=(n, n), style="chained-diamonds"))
        assert cfg.node_count == n
        td = decompose(cfg)
        assert validate(cfg, td) is None
        assert td.width <= 2


def test_density_clamped():
    cfg, _ = generate(InstanceGenerator(seed=2, node_range=(6, 6), edge_density=7.5))
    n = cfg.node_count
    assert len(cfg.edges) <= n * (n - 1) // 2


def test_brute_lospre_known_diamond():
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    sol = brute_lospre(cfg, make_problem(cfg, use=[2, 3]))
    assert sol.cost == CostVec(1, 1)
    assert sol.life_set == {1}


def test_brute_lospre_empty_use():
    cfg = Cfg(3, [(0, 1), (1, 2)])
    sol = brute_lospre(cfg, make_problem(cfg, use=[]))
    assert sol.cost == CostVec(0, 0) and sol.life_set == frozenset()


def test_brute_lospre_free_edges_prefer_dead():
    cfg = Cfg(3, [(0, 1), (1, 2)],
              edge_cost={(0, 1): CostVec(0, 0), (1, 2): CostVec(0, 0)})
    sol = brute_lospre(cfg, make_problem(cfg, use=[1]))
    assert sol.life_set == frozenset()


def test_brute_lospre_vectorized_agrees_with_plain():
    # the numpy path turns on at 4 nodes; force both paths on one instance
    cfg = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    problem = make_problem(cfg, use=[2, 3], invalidate=[2])
    fast = brute_lospre(cfg, problem)
    slow_best = None
    for mask in range(1 << 5):
        life = frozenset(v for v in range(5) if (mask >> v) & 1)
        key = (total_cost(cfg, problem, life), tuple((mask >> v) & 1 for v in range(5)))
        if slow_best is None or key < slow_best[0]:
            slow_best = (key, life)
    assert fast.cost == slow_best[0][0]
    assert fast.life_set == slow_best[1]


def test_brute_size_guards():
    big = Cfg(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(SizeGuardError):
        brute_lospre(big, make_problem(big, use=[]))
    nine = Cfg(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(SizeGuardError):
        brute_extended(nine, make_problem(nine, use=[]), lambda v, b, bl, br: CostVec(0, 0))


def test_brute_extended_matches_full_enumeration():
    import random
    for seed in range(12):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(3, 5)))
        if cfg.node_count > 5:
            continue
        rng = random.Random(seed)
        table = {(v, b, bl, br): CostVec(rng.randint(-2, 2), rng.randint(-2, 2))
                 for v in range(cfg.node_count)
                 for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        fast = brute_extended(cfg, problem, lc)
        full = brute_extended_full(cfg, problem, lc)
        assert (fast.cost, fast.life_set, fast.life_left, fast.life_right) == \
            (full.cost, full.life_set, full.life_left, full.life_right), seed


def test_brute_extended_allowed_combos_match_full_enumeration():
    import random
    combos = [(b, bl, br) for b in (0, 1) for bl in (0, 1) for br in (0, 1)]
    infeasible = 0
    for seed in range(30):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(3, 5)))
        if cfg.node_count > 5:
            continue
        rng = random.Random(seed + 500)
        table = {(v, b, bl, br): CostVec(rng.randint(-1, 1), rng.randint(-1, 1))
                 for v in range(cfg.node_count)
                 for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        allowed = {v: rng.sample(combos, rng.randint(0, 5))
                   for v in range(cfg.node_count) if rng.random() < 0.5}
        try:
            fast = brute_extended(cfg, problem, lc, allowed_combos=allowed)
        except NoFeasibleSolutionError:
            with pytest.raises(NoFeasibleSolutionError):
                brute_extended_full(cfg, problem, lc, allowed_combos=allowed)
            infeasible += 1
            continue
        full = brute_extended_full(cfg, problem, lc, allowed_combos=allowed)
        assert (fast.cost, fast.life_set, fast.life_left, fast.life_right) == \
            (full.cost, full.life_set, full.life_left, full.life_right), seed
    assert 0 < infeasible < 20


def test_brute_safety_line_cases():
    cfg = Cfg(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_safety(cfg, make_problem(cfg, use=[])).added == {1, 2}
    assert brute_safety(cfg, make_problem(cfg, use=[1])).added == frozenset()
    every = make_problem(cfg, use=[], invalidate=[1, 2])
    assert brute_safety(cfg, every).i_prime == {0, 1, 2, 3}
