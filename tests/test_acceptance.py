"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s`` or ``-v``).

The random suites are seeded and span all three instance generator styles,
so every run checks the identical population.  Brute-force references are
recomputed live; nothing here trusts solver-side numbers.
"""
import gc
import math
import random
import time
import warnings

import numpy as np
import pytest

from lospre.cfg import Cfg, ExprProblem, make_problem
from lospre.cli import RunConfig, run_pipeline
from lospre.cost import CostVec
from lospre.dp import solve, solve_extended
from lospre.interp import equivalent_states, interpret
from lospre.ir import BINOP, BRANCH, LOAD, build_cfg, parse_ir
from lospre.oracle import (InstanceGenerator, STYLES, brute_extended,
                           brute_lospre, brute_safety, generate,
                           generate_inputs, generate_program_text)
from lospre.safety import apply_safety, solve_safety
from lospre.treedec import decompose, make_nice, validate, validate_nice
from test_safety import cyclic_variant

WORK_BOUND_K = 8


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def optimality_suite():
    """2001 unit-cost instances (|V| <= 12, three styles), solved and brute-forced."""
    records = []
    t0 = time.perf_counter()
    for style in STYLES:
        for seed in range(667):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 12), style=style))
            nice = make_nice(decompose(cfg))
            sol = solve(cfg, problem, nice)
            ref = brute_lospre(cfg, problem)
            records.append((style, seed, cfg, problem, nice, sol, ref))
    return records, time.perf_counter() - t0


def test_optimality_vs_oracle(optimality_suite):
    records, elapsed = optimality_suite
    mismatches = [(style, seed) for style, seed, _, _, _, sol, ref in records
                  if (sol.cost, sol.life_set) != (ref.cost, ref.life_set)]
    ok = not mismatches and len(records) >= 2000 and elapsed < 60.0
    _report("optimality-vs-oracle", ok,
            f"({len(records)} instances, {len(mismatches)} mismatches, {elapsed:.1f}s)")


def test_lifetime_optimality(optimality_suite):
    # two-stage reference recomputed from the enumeration itself: fewest
    # calculations first, then fewest live nodes among those
    records, _ = optimality_suite
    failures = 0
    for style, seed, cfg, problem, _, sol, _ in records:
        n = cfg.node_count
        masks = np.arange(1 << n, dtype=np.int64)
        calcs = np.zeros(1 << n, dtype=np.int64)
        for (x, y) in cfg.edges:
            x_ok = np.ones(1 << n, dtype=bool) if x in problem.invalidation_set \
                else ((masks >> x) & 1) == 0
            y_ok = np.ones(1 << n, dtype=bool) if y in problem.use_set \
                else ((masks >> y) & 1) == 1
            calcs += (x_ok & y_ok)
        alive = np.zeros(1 << n, dtype=np.int64)
        for v in range(n):
            alive += (masks >> v) & 1
        best_calcs = int(calcs.min())
        best_alive = int(alive[calcs == best_calcs].min())
        if len(sol.calc_set) != best_calcs or len(sol.life_set) != best_alive:
            failures += 1
    _report("lifetime-optimality", failures == 0,
            f"({len(records)} instances, {failures} failures)")


def test_safety_equivalence():
    """Every generated instance, again with some uses also invalidating (as
    ``v = *v`` does), and 600 ``cyclic_variant`` instances with back edges
    and self-loops, against the dataflow reference."""
    failures = checked = cyclic = 0
    for style in STYLES:
        rng_range = (4, 8) if style == "chained-diamonds" else (4, 10)
        for seed in range(334):
            cfg, problem = generate(InstanceGenerator(seed=seed, node_range=rng_range, style=style))
            rng = random.Random(seed)
            overlap = frozenset(v for v in sorted(problem.use_set) if rng.random() < 0.5)
            instances = [(cfg, problem)]
            if overlap:
                instances.append((cfg, ExprProblem(problem.use_set,
                                                   problem.invalidation_set | overlap)))
            if seed < 200:
                instances.append(cyclic_variant(seed, style))
            for cfg, problem in instances:
                nice = make_nice(decompose(cfg))
                sol = solve_safety(cfg, problem, nice)
                ref = brute_safety(cfg, problem)
                checked += 1
                cyclic += not cfg.is_acyclic()
                if sol.i_prime != ref.i_prime or sol.added != ref.added:
                    failures += 1
                    continue
                again = solve_safety(cfg, apply_safety(problem, sol), nice)
                if again.added:
                    failures += 1
    _report("safety-equivalence", failures == 0 and checked >= 1000 and cyclic >= 200,
            f"({checked} instances, {cyclic} cyclic, {failures} failures)")


def test_extended_variant():
    failures = 0
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, 8)))
        if cfg.node_count > 8:
            continue
        rng = random.Random(seed * 977 + 3)
        table = {(v, b, bl, br): CostVec(rng.randint(-2, 4), rng.randint(-4, 4))
                 for v in range(cfg.node_count)
                 for b in (0, 1) for bl in (0, 1) for br in (0, 1)}
        lc = lambda v, b, bl, br: table[(v, b, bl, br)]
        nice = make_nice(decompose(cfg))
        sol = solve_extended(cfg, problem, nice, lc)
        ref = brute_extended(cfg, problem, lc)
        checked += 1
        if (sol.cost, sol.life_set, sol.life_left, sol.life_right) != \
                (ref.cost, ref.life_set, ref.life_left, ref.life_right):
            failures += 1
    _report("extended-variant", failures == 0,
            f"({checked} instances, {failures} failures)")


def test_decomposition_validity_and_width():
    failures = 0
    checked = 0
    for style in STYLES:
        for seed in range(167):
            cfg, _ = generate(InstanceGenerator(seed=seed, node_range=(4, 16), style=style))
            td = decompose(cfg)
            nice = make_nice(td)
            checked += 1
            if validate(cfg, td) is not None or validate_nice(cfg, nice) is not None:
                failures += 1
            if nice.width != td.width:
                failures += 1
    clique = Cfg(4, [(i, j) for i in range(4) for j in range(4) if i < j])
    path = Cfg(4, [(0, 1), (1, 2), (2, 3)])
    diamond = Cfg(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
    named = (decompose(clique).width == 3 and decompose(path).width == 1
             and decompose(diamond).width <= 2)
    _report("decomposition-validity-width", failures == 0 and named and checked >= 500,
            f"({checked} random decompositions, {failures} failures, "
            f"clique4={decompose(clique).width} path={decompose(path).width} "
            f"diamond={decompose(diamond).width})")


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)


def _chain_times(sizes, seed=0):
    """Time decompose+make_nice+solve on diamond chains.

    Returns rows of (size, seconds, {layer: seconds}).  Each size is timed
    best-of-N with the garbage collector quiesced so allocator noise from
    earlier runs does not distort the scaling estimate; the layer times are
    those of the best run, so they sum to its total.  The repeats are
    interleaved, one run of every size per round, so a slow phase of the
    host spreads over all sizes instead of landing on the last ones.
    """
    instances = [generate(InstanceGenerator(seed=seed, node_range=(n, n),
                                            style="chained-diamonds")) for n in sizes]
    repeats = [3 if n < 8192 else 2 for n in sizes]
    best = [(math.inf, None)] * len(sizes)
    for round_ in range(max(repeats)):
        for i, (cfg, problem) in enumerate(instances):
            if round_ >= repeats[i]:
                continue
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                td = decompose(cfg)
                t1 = time.perf_counter()
                nice = make_nice(td)
                t2 = time.perf_counter()
                solve(cfg, problem, nice)
                t3 = time.perf_counter()
            finally:
                gc.enable()
            best[i] = min(best[i], (t3 - t0, {"decompose": t1 - t0, "make_nice": t2 - t1,
                                              "solve": t3 - t2}), key=lambda b: b[0])
    return [(n, *b) for n, b in zip(sizes, best)]


def test_linear_scaling():
    sizes = [1024, 2048, 4096, 8192, 16384, 32768, 65536]
    rows = _chain_times(sizes)
    slope = _loglog_slope(sizes, [t for _, t, _ in rows])
    layers = ", ".join(f"{layer}={_loglog_slope(sizes, [lt[layer] for _, _, lt in rows]):.3f}"
                       for layer in ("decompose", "make_nice", "solve"))
    t64k = rows[-1][1]
    ok = slope <= 1.15 and t64k < 10.0
    _report("linear-scaling", ok,
            f"(slope={slope:.3f}, t(65536)={t64k:.2f}s; layer slopes {layers})")


def test_work_bound(optimality_suite):
    records, _ = optimality_suite
    worst = 0.0
    for _, _, _, _, nice, sol, _ in records:
        w = max(nice.width, 1)
        ratio = sol.transitions / (w * (2 ** w) * nice.node_count)
        worst = max(worst, ratio)
    _report("work-bound", worst <= WORK_BOUND_K,
            f"(max transitions / (w*2^w*|T|) = {worst:.2f}, K = {WORK_BOUND_K})")


TWO_ARM = """\
        if b goto else_arm
        t1 = i << 2
        t2 = a + t1
        t3 = *t2
        c = t3 + 8
        goto end
else_arm: t1 = i << 2
        t2 = a + t1
        t3 = *t2
        c = t3 - 13
end:    ret
"""


def test_end_to_end_two_arm_function():
    program = parse_ir(TWO_ARM)
    result = run_pipeline(program, RunConfig())
    rewritten = result.program
    assert sum(len(c.occurrence_nodes) - len(s.calc_set) for c, s in result.applied) == 3

    instructions = list(rewritten)
    branch_at = next(i for i, ins in enumerate(instructions) if ins.kind == BRANCH)
    shifts = [i for i, ins in enumerate(instructions) if ins.kind == BINOP and ins.op == "<<"]
    loads = [i for i, ins in enumerate(instructions) if ins.kind == LOAD]
    adds = [i for i, ins in enumerate(instructions)
            if ins.kind == BINOP and ins.op == "+" and "a" in (ins.left, ins.right)]
    placed = (len(shifts) == 1 and len(adds) == 1 and len(loads) == 1
              and shifts[0] < adds[0] < loads[0] < branch_at)

    rng = random.Random(20240)
    agree = 0
    trials = 1000
    for _ in range(trials):
        init = {"b": rng.randint(0, 1), "i": rng.randint(0, 7), "a": 64}
        mem = {64 + 4 * k: rng.randint(-1000, 1000) for k in range(8)}
        r0 = interpret(program, init, mem)
        r1 = interpret(rewritten, init, mem)
        if equivalent_states(r0, r1, sorted(program.variables())):
            agree += 1
    _report("end-to-end-two-arm", placed and agree == trials,
            f"(sequence before branch: {placed}, interpreter agreement {agree}/{trials})")


def test_semantics_preservation():
    warnings.simplefilter("ignore")
    programs = 500
    trials = 20
    failures = 0
    rewritten_count = 0
    for seed in range(programs):
        program = parse_ir(generate_program_text(seed))
        result = run_pipeline(program, RunConfig())
        rewritten_count += bool(result.applied)
        pvars = sorted(program.variables())
        for trial in range(trials):
            init, mem = generate_inputs(seed * 1000 + trial, pvars)
            r0 = interpret(program, init, mem)
            r1 = interpret(result.program, init, mem)
            if not equivalent_states(r0, r1, pvars):
                failures += 1
                break
    _report("semantics-preservation", failures == 0,
            f"({programs} programs x {trials} inputs, {failures} failures, "
            f"{rewritten_count} programs rewritten)")
