"""Time `lospre run`'s pipeline on a program-size ladder, optionally against another source tree.

    python3 tools/bench_pipeline.py --out BENCH_pipeline.json \
        [--baseline-src OTHER_CHECKOUT/src] [--seeds 0,7] [--sizes 25,50,100,200,400]

The programs are ``generate_program_text(seed, max_statements=size)``.  Each
tree is measured in its own process per program (``PYTHONPATH`` set to that
tree, the two trees alternating which runs first, so a slow phase of the
host does not land on one side only): one counting run of
``run_pipeline(parse_ir(text), RunConfig())`` that records passes,
rewrites, ``decompose``, ``solve`` and ``min_calc_count`` calls (0 where
the tree has no such function), then best-of-N seconds of the same call
with the garbage collector off, and a digest of the rewritten IR and the applied
solutions, so the rows show whether both trees produce the same output.
The loglog slope of seconds against instructions is given per seed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time


def measure(seed, size, repeats):
    import lospre.cli as cli
    from lospre.dp import format_solution
    from lospre.ir import format_ir, parse_ir
    from lospre.oracle import generate_program_text

    text = generate_program_text(seed, max_statements=size)
    calls = {"decompose": 0, "solve": 0, "min_calc_count": 0}

    def counted(name):
        inner = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    originals = {name: getattr(cli, name) for name in calls if hasattr(cli, name)}
    for name in originals:
        setattr(cli, name, counted(name))
    result = cli.run_pipeline(parse_ir(text), cli.RunConfig())
    for name, fn in originals.items():
        setattr(cli, name, fn)

    best = math.inf
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            cli.run_pipeline(parse_ir(text), cli.RunConfig())
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    output = format_ir(result.program) + "".join(
        format_solution(sol, index=k) for k, (_, sol) in enumerate(result.applied))
    return {"seed": seed, "max_statements": size,
            "instructions": len(parse_ir(text).instructions),
            "passes": result.passes, "rewrites": len(result.applied),
            "decompositions": calls["decompose"], "solves": calls["solve"],
            "certificate_calls": calls["min_calc_count"],
            "seconds": round(best, 4),
            "output_sha256": hashlib.sha256(output.encode()).hexdigest()[:16]}


def run_tree(src, seed, size, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, __file__, "--worker", "--seeds", str(seed),
                          "--sizes", str(size), "--repeats", str(repeats)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def loglog_slope(rows):
    xs = [math.log(r["instructions"]) for r in rows]
    ys = [math.log(r["seconds"]) for r in rows]
    if len(xs) < 2:
        return None
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) /
                 sum((x - mx) ** 2 for x in xs), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,7")
    parser.add_argument("--sizes", default="25,50,100,200,400")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--baseline-src", help="src directory of the tree to compare against")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(t) for t in args.seeds.split(",")]
    sizes = [int(t) for t in args.sizes.split(",")]
    if args.worker:
        json.dump(measure(seeds[0], sizes[0], args.repeats), sys.stdout)
        return
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    rows = []
    k = 0
    for seed in seeds:
        for size in sizes:
            if not args.baseline_src:
                rows.append(run_tree(here, seed, size, args.repeats))
                continue
            if k % 2:
                row = run_tree(here, seed, size, args.repeats)
                old = run_tree(args.baseline_src, seed, size, args.repeats)
            else:
                old = run_tree(args.baseline_src, seed, size, args.repeats)
                row = run_tree(here, seed, size, args.repeats)
            k += 1
            row.update({"baseline_s": old["seconds"],
                        "speedup": round(old["seconds"] / row["seconds"], 2),
                        "baseline_passes": old["passes"],
                        "baseline_rewrites": old["rewrites"],
                        "baseline_decompositions": old["decompositions"],
                        "baseline_solves": old["solves"],
                        "same_output": old["output_sha256"] == row["output_sha256"]})
            rows.append(row)
    slopes = {}
    for seed in seeds:
        mine = [r for r in rows if r["seed"] == seed]
        slopes[str(seed)] = {"seconds": loglog_slope(mine)}
        if args.baseline_src:
            slopes[str(seed)]["baseline_s"] = loglog_slope(
                [dict(r, seconds=r["baseline_s"]) for r in mine])
    report = {"layer": "cli.run_pipeline",
              "instances": "generate_program_text(seed, max_statements=size), "
                           "default RunConfig (safety auto, goal size)",
              "timing": f"best of {args.repeats}, gc off, parse_ir included",
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
