"""Time lospre on a size ladder, optionally side by side with another source tree.

    python3 tools/bench.py pipeline|extended|chain|banded [--baseline-src OTHER_CHECKOUT/src] [--out FILE]

Row families; sizes, seeds and repeats are fixed for each:

- ``pipeline``: ``run_pipeline(parse_ir(text), RunConfig())`` on
  ``generate_program_text(seed, max_statements=size)``, seeds 0 and 7, sizes
  25 to 3200.  One counting run records passes, rewrites, the ``solve``,
  ``decompose``, ``min_calc_count`` and ``solve_safety`` calls (0 where a
  tree has no such function), ``region_nodes``, the nodes of the graphs
  decomposed, and ``graphs_built`` and ``problems_built``, the
  ``build_cfg`` and ``make_problem`` calls looked up in ``lospre.ir``; the
  timed runs follow.
- ``extended``: ``solve_extended`` alone on chained-diamond graphs of 1k-16k
  nodes with a seeded per-node register-pressure table.
- ``chain``: ``decompose``, ``make_nice`` and ``solve`` timed per layer on
  chained-diamond graphs of 1k-64k nodes.
- ``banded``: the same layers on band graphs of width 2, 4 and 6 (the
  widths of structured programs) and 1k-16k nodes.

Each row is measured in a fresh process per tree (``PYTHONPATH`` set to that
tree, the two trees alternating which runs first, so a slow phase of the host
does not land on one side only).  A row holds deterministic ``counts``,
best-of-N wall-clock ``seconds`` per timed stage with the garbage collector
off, and a ``digest`` of the output; with a baseline it adds the baseline's
seconds and counts and ``same_output``.  The ``extended``, ``chain`` and
``banded`` rows also record ``collections``: the collector's runs per
generation, [gen 0, gen 1, gen 2], in each stage of one more run with the
collector on, as the benchmark under ``perfbench/`` runs it (and, with a
baseline, ``baseline_collections``).  They depend on the interpreter's
allocation history, so they are not ``counts``.  The loglog slope of each
stage's seconds against the row size is given per seed (per width for
``banded``) and tree.  The times are not corrected for host speed and one
row cannot resolve a change of a few tens of percent: speed claims go
through ``perfbench/``, and these rows show counts, digests and slopes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from typing import Callable, NamedTuple

PIPELINE_REPEATS = 3
EXTENDED_REPEATS = 5
CHAIN_REPEATS = 3
BANDED_REPEATS = 3


def _timed(repeats, *stages):
    """Best-of-``repeats`` seconds of each ``(name, fn)`` stage, and the last run's values.

    ``fn`` receives the previous stage's value (None for the first).  With
    several stages, ``total`` is the best whole run.
    """
    best = {name: math.inf for name, _ in stages}
    best["total"] = math.inf
    for _ in range(repeats):
        values = [None]
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for name, fn in stages:
                t0 = time.perf_counter()
                values.append(fn(values[-1]))
                best[name] = min(best[name], time.perf_counter() - t0)
            best["total"] = min(best["total"], time.perf_counter() - start)
        finally:
            gc.enable()
    if len(stages) == 1:
        del best["total"]
    return {name: round(t, 4) for name, t in best.items()}, values[1:]


def _collections(*stages):
    """Garbage collections per generation, [gen 0, gen 1, gen 2], during each
    ``(name, fn)`` stage of one run with the collector on, the stages chained
    as in ``_timed``."""
    counts = {name: [0, 0, 0] for name, _ in stages}
    current = [None]

    def count(phase, info):
        if phase == "start":
            counts[current[0]][info["generation"]] += 1

    value = None
    gc.collect()
    gc.callbacks.append(count)
    try:
        for name, fn in stages:
            current[0] = name
            value = fn(value)
    finally:
        gc.callbacks.remove(count)
    return counts


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _chain(n):
    from lospre.oracle import InstanceGenerator, generate
    return generate(InstanceGenerator(seed=0, node_range=(n, n), style="chained-diamonds"))


def _dp_counts(nice, solution):
    return {"width": nice.width, "nice_nodes": nice.node_count,
            "transitions": solution.transitions,
            "table_entries": sum(1 << len(bag) for bag in nice.bags)}


def measure_pipeline(seed, size):
    import lospre.cli as cli
    import lospre.ir as ir
    from lospre.dp import format_solution
    from lospre.ir import format_ir, parse_ir
    from lospre.oracle import generate_program_text

    text = generate_program_text(seed, max_statements=size)
    counts = dict.fromkeys(("passes", "rewrites", "solves", "decompositions", "region_nodes",
                            "certificate_calls", "safety_calls", "graphs_built",
                            "problems_built"), 0)
    counted = {(cli, "solve"): "solves", (cli, "decompose"): "decompositions",
               (cli, "min_calc_count"): "certificate_calls",
               (cli, "solve_safety"): "safety_calls", (ir, "build_cfg"): "graphs_built",
               (ir, "make_problem"): "problems_built"}
    originals = {target: getattr(*target) for target in counted if hasattr(*target)}

    def counting(target, fn):
        def wrapper(*args, **kwargs):
            counts[counted[target]] += 1
            if counted[target] == "decompositions":
                counts["region_nodes"] += args[0].node_count
            return fn(*args, **kwargs)
        return wrapper

    for (module, name), fn in originals.items():
        setattr(module, name, counting((module, name), fn))
    try:
        result = cli.run_pipeline(parse_ir(text), cli.RunConfig())
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    counts.update(passes=result.passes, rewrites=len(result.applied))
    seconds, _ = _timed(PIPELINE_REPEATS, (
        "run_pipeline", lambda _: cli.run_pipeline(parse_ir(text), cli.RunConfig())))
    # a tree whose result has no ``orders`` records ``applied`` in positions already
    solutions = [ir.positional_solution(result.cfg, order, solution)
                 for (_, solution), order in zip(result.applied, result.orders)] \
        if hasattr(result, "orders") else [solution for _, solution in result.applied]
    output = format_ir(result.program) + "".join(
        format_solution(sol, index=k) for k, sol in enumerate(solutions))
    return {"seed": seed, "max_statements": size,
            "instructions": len(parse_ir(text).instructions),
            "counts": counts, "seconds": seconds, "digest": _digest(output)}


def measure_extended(n):
    from lospre.cost import CostVec
    from lospre.dp import solve_extended
    from lospre.treedec import decompose, make_nice

    cfg, problem = _chain(n)
    nice = make_nice(decompose(cfg))
    rng = random.Random(n)
    table = {}
    for v in range(n):
        regs, weight = rng.randint(1, 3), rng.randint(1, 2)
        for combo in ((b, bl, br) for b in (0, 1) for bl in (0, 1) for br in (0, 1)):
            live = sum(combo)
            table[(v, *combo)] = CostVec(max(0, live - regs), weight * live + rng.randint(0, 1))
    allowed = {v: [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
               for v in range(n) if rng.random() < 0.1}
    stage = ("solve_extended", lambda _: solve_extended(
        cfg, problem, nice, lambda v, b, bl, br: table[(v, b, bl, br)], allowed_combos=allowed))
    seconds, (sol,) = _timed(EXTENDED_REPEATS, stage)
    answer = repr((sol.cost, sorted(sol.life_set), sorted(sol.life_left),
                   sorted(sol.life_right)))
    return {"seed": 0, "n": n, "counts": _dp_counts(nice, sol), "seconds": seconds,
            "collections": _collections(stage), "digest": _digest(answer)}


def _banded(width, n):
    """The band graph i -> j for 1 <= j - i <= width (min-fill finds exactly
    ``width``) with seeded use and invalidation sets, unit costs."""
    from lospre.cfg import Cfg, make_problem
    cfg = Cfg(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1))])
    interior = list(range(1, n - 1))
    random.Random(f"banded/{width}/{n}").shuffle(interior)
    k = 3 * len(interior) // 10
    return cfg, make_problem(cfg, interior[:k], interior[k:k + len(interior) // 20])


def _layers(cfg, problem, repeats):
    """``decompose``, ``make_nice`` and ``solve`` timed per layer: counts, seconds,
    collections, digest."""
    from lospre.dp import solve
    from lospre.treedec import decompose, make_nice

    stages = (("decompose", lambda _: decompose(cfg)), ("make_nice", make_nice),
              ("solve", lambda nice: solve(cfg, problem, nice)))
    seconds, (_, nice, sol) = _timed(repeats, *stages)
    return {"counts": _dp_counts(nice, sol), "seconds": seconds,
            "collections": _collections(*stages),
            "digest": _digest(repr((sol.cost, sorted(sol.life_set))))}


def measure_chain(n):
    return {"seed": 0, "n": n, **_layers(*_chain(n), CHAIN_REPEATS)}


def measure_banded(width, n):
    return {"width": width, "n": n, **_layers(*_banded(width, n), BANDED_REPEATS)}


class Family(NamedTuple):
    layer: str
    instances: str
    timing: str
    x: str              # the row field the slopes are taken against
    rows: list          # the arguments of ``measure``, one tuple per row
    measure: Callable
    group: str = "seed"  # the row field that splits the rows into slope series


FAMILIES = {
    "pipeline": Family(
        "cli.run_pipeline",
        "generate_program_text(seed, max_statements=size), default RunConfig "
        "(safety auto)",
        f"best of {PIPELINE_REPEATS}, gc off, parse_ir included", "instructions",
        [(seed, size) for seed in (0, 7)
         for size in (25, 50, 100, 200, 400, 800, 1600, 3200)],
        measure_pipeline),
    "extended": Family(
        "dp.solve_extended",
        "chained-diamonds seed 0; per node random register-pressure table, "
        "10% of nodes restricted to bl == br",
        f"best of {EXTENDED_REPEATS}, gc off, decomposition excluded", "n",
        [(n,) for n in (1024, 2048, 4096, 8192, 16384)], measure_extended),
    "chain": Family(
        "treedec.decompose, treedec.make_nice, dp.solve",
        "chained-diamonds seed 0, unit costs",
        f"best of {CHAIN_REPEATS} per stage and for the total, gc off", "n",
        [(n,) for n in (1024, 2048, 4096, 8192, 16384, 32768, 65536)], measure_chain),
    "banded": Family(
        "treedec.decompose, treedec.make_nice, dp.solve",
        "band graphs i -> j for 1 <= j - i <= width, use and invalidation sets "
        "seeded per row, unit costs",
        f"best of {BANDED_REPEATS} per stage and for the total, gc off", "n",
        [(w, n) for w in (2, 4, 6) for n in (1024, 2048, 4096, 8192, 16384)],
        measure_banded, "width"),
}


def run_tree(src, family, index):
    """Measure row ``index`` of ``family`` in a fresh process that imports lospre from ``src``."""
    code = (f"import json, runpy, sys; tool = runpy.run_path({os.path.abspath(__file__)!r}); "
            f"family = tool['FAMILIES'][{family!r}]; "
            f"json.dump(family.measure(*family.rows[{index}]), sys.stdout)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def loglog_slopes(rows, x, field):
    """Least-squares slope of log seconds against log ``x``, for each timed stage."""
    xs = [math.log(r[x]) for r in rows]
    mx = sum(xs) / len(xs)
    slopes = {}
    for stage in rows[0][field]:
        ys = [math.log(r[field][stage]) for r in rows]
        my = sum(ys) / len(ys)
        slopes[stage] = round(sum((a - mx) * (b - my) for a, b in zip(xs, ys)) /
                              sum((a - mx) ** 2 for a in xs), 3)
    return slopes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("--baseline-src", help="src directory of the tree to compare against")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args()
    family = FAMILIES[args.family]
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    rows = []
    for k in range(len(family.rows)):
        if not args.baseline_src:
            rows.append(run_tree(here, args.family, k))
            continue
        trees = (here, args.baseline_src) if k % 2 else (args.baseline_src, here)
        first, second = (run_tree(src, args.family, k) for src in trees)
        row, old = (first, second) if k % 2 else (second, first)
        row.update(baseline_s=old["seconds"], baseline_counts=old["counts"],
                   same_output=old["digest"] == row["digest"])
        if "collections" in old:
            row["baseline_collections"] = old["collections"]
        rows.append(row)
    slopes = {}
    for value in dict.fromkeys(r[family.group] for r in rows):
        mine = [r for r in rows if r[family.group] == value]
        slopes[str(value)] = {"seconds": loglog_slopes(mine, family.x, "seconds")}
        if args.baseline_src:
            slopes[str(value)]["baseline_s"] = loglog_slopes(mine, family.x, "baseline_s")
    report = {"family": args.family, "layer": family.layer, "instances": family.instances,
              "timing": family.timing + "; wall clock, no host-speed correction",
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "machine": platform.machine(), "loglog_slope": slopes, "rows": rows}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
