import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lospre.cfg import Cfg, make_problem, total_cost
from lospre.cost import INFINITY, CostVec
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


def _plain_brute_lospre(cfg, problem):
    """(cost, life set) by ``total_cost`` over every life set, ties to the
    lexicographically least bit string (node 0 first, dead before live)."""
    n = cfg.node_count
    best = None
    for mask in range(1 << n):
        life = frozenset(v for v in range(n) if (mask >> v) & 1)
        key = (total_cost(cfg, problem, life), tuple((mask >> v) & 1 for v in range(n)))
        if best is None or key < best[0]:
            best = (key, life)
    return best[0][0], best[1]


def _seeded_plain_cases(count):
    """Graphs of 1 to 7 nodes with cycles and self-loops, random and negative
    node costs, infinite edge and node costs, and use/invalidation overlap."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        # a tree from node 0 keeps it the only source; no extra edge enters it
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n) if n > 1 else 0):
            edges.add((rng.randrange(n), rng.randrange(1, n)))
        edge_cost = {e: INFINITY if rng.random() < 0.1 else
                     CostVec(rng.randint(0, 4), rng.randint(0, 3)) for e in edges}
        node_cost = {v: INFINITY if rng.random() < 0.1 else
                     CostVec(rng.randint(-2, 2), rng.randint(-3, 3)) for v in range(n)}
        cfg = Cfg(n, edges, edge_cost, node_cost)
        use = [v for v in range(1, n) if rng.random() < 0.4]
        invalidate = [v for v in range(n) if rng.random() < 0.3]
        yield cfg, make_problem(cfg, use, invalidate)


def test_brute_lospre_agrees_with_plain_enumeration():
    big = 2**62
    diamond_edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
    one, two, three = Cfg(1, []), Cfg(2, [(0, 1)]), Cfg(3, [(0, 1), (1, 1), (1, 2)])
    arms = Cfg(5, diamond_edges, edge_cost={(0, 1): CostVec(big + 3, 0), (1, 2): CostVec(big, 0),
                                            (1, 3): CostVec(big, 0)})
    cut_off = Cfg(3, [(0, 1), (1, 2)], edge_cost={(0, 1): INFINITY})
    diamond = Cfg(5, diamond_edges)
    cases = [
        (one, make_problem(one, use=[])),
        (two, make_problem(two, use=[1])),
        (three, make_problem(three, use=[1])),
        (three, make_problem(three, use=[1], invalidate=[1])),
        (arms, make_problem(arms, use=[2, 3])),
        # every life set charges the infinite edge into the use
        (cut_off, make_problem(cut_off, use=[1])),
        (diamond, make_problem(diamond, use=[2, 3], invalidate=[2])),
    ]
    cases += _seeded_plain_cases(300)
    infeasible = 0
    for i, (cfg, problem) in enumerate(cases):
        cost, life = _plain_brute_lospre(cfg, problem)
        if cost == INFINITY:
            with pytest.raises(NoFeasibleSolutionError):
                brute_lospre(cfg, problem)
            infeasible += 1
            continue
        sol = brute_lospre(cfg, problem)
        assert (sol.cost, sol.life_set) == (cost, life), i
    assert 1 < infeasible < len(cases) // 2


def test_importing_the_library_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, lospre, lospre.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"


def test_brute_size_guards():
    big = Cfg(21, [(i, i + 1) for i in range(20)])
    with pytest.raises(SizeGuardError):
        brute_lospre(big, make_problem(big, use=[]))
    nine = Cfg(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(SizeGuardError):
        brute_extended(nine, make_problem(nine, use=[]), lambda v, b, bl, br: CostVec(0, 0))
    six = Cfg(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(SizeGuardError, match=r"^brute_extended_full is limited to 5 nodes, got 6$"):
        brute_extended_full(six, make_problem(six, use=[]), lambda v, b, bl, br: CostVec(0, 0))


def test_generate_rejects_a_bad_description():
    with pytest.raises(ValueError) as info:
        generate(InstanceGenerator(seed=0, node_range=(6, 6), style="chained-diamonds"))
    assert str(info.value) == "chained-diamonds sizes must be positive multiples of 4"
    with pytest.raises(ValueError) as info:
        generate(InstanceGenerator(seed=0, style="grid"))
    assert str(info.value) == ("unknown style 'grid'; expected one of "
                               "('series-parallel', 'random-sparse', 'chained-diamonds')")


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
