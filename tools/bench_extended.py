"""Time solve_extended on a diamond-chain ladder, optionally against another source tree.

    python3 tools/bench_extended.py --out BENCH_extended.json \
        [--baseline-src OTHER_CHECKOUT/src] [--sizes 1024,2048,4096,8192,16384]

Each tree is measured in its own process per size (``PYTHONPATH`` set to
that tree, the two trees alternating which runs first, so a slow phase of
the host does not land on one side only), on the same seeded chains and
register-pressure cost tables: best-of-N seconds of ``solve_extended``
alone (decomposition built beforehand, garbage collector off while timed),
DP transitions, and a digest of the solution so the rows show whether both
trees return the same answer.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time


def measure(sizes, repeats):
    from lospre.cost import CostVec
    from lospre.dp import solve_extended
    from lospre.oracle import InstanceGenerator, generate
    from lospre.treedec import decompose, make_nice

    rows = []
    for n in sizes:
        cfg, problem = generate(InstanceGenerator(seed=0, node_range=(n, n),
                                                  style="chained-diamonds"))
        nice = make_nice(decompose(cfg))
        rng = random.Random(n)
        table = {}
        for v in range(n):
            regs, weight = rng.randint(1, 3), rng.randint(1, 2)
            for combo in ((b, bl, br) for b in (0, 1) for bl in (0, 1) for br in (0, 1)):
                live = sum(combo)
                table[(v, *combo)] = CostVec(max(0, live - regs),
                                             weight * live + rng.randint(0, 1))
        allowed = {v: [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
                   for v in range(n) if rng.random() < 0.1}
        best = float("inf")
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                sol = solve_extended(cfg, problem, nice,
                                     lambda v, b, bl, br: table[(v, b, bl, br)],
                                     allowed_combos=allowed)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
        answer = repr((sol.cost, sorted(sol.life_set), sorted(sol.life_left),
                       sorted(sol.life_right)))
        rows.append({"n": n, "width": nice.width, "nice_nodes": nice.node_count,
                     "seconds": round(best, 4), "transitions": sol.transitions,
                     "solution_sha256": hashlib.sha256(answer.encode()).hexdigest()[:16]})
    return rows


def run_tree(src, n, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, __file__, "--worker", "--sizes", str(n),
                          "--repeats", str(repeats)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1024,2048,4096,8192,16384")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline-src", help="src directory of the tree to compare against")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sizes = [int(t) for t in args.sizes.split(",")]
    if args.worker:
        json.dump(measure(sizes, args.repeats), sys.stdout)
        return
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    rows = []
    for k, n in enumerate(sizes):
        if not args.baseline_src:
            rows.append(run_tree(here, n, args.repeats))
            continue
        if k % 2:
            row = run_tree(here, n, args.repeats)
            old = run_tree(args.baseline_src, n, args.repeats)
        else:
            old = run_tree(args.baseline_src, n, args.repeats)
            row = run_tree(here, n, args.repeats)
        rows.append({"n": n, "width": row["width"], "nice_nodes": row["nice_nodes"],
                     "baseline_s": old["seconds"], "seconds": row["seconds"],
                     "speedup": round(old["seconds"] / row["seconds"], 2),
                     "baseline_transitions": old["transitions"],
                     "transitions": row["transitions"],
                     "same_solution": old["solution_sha256"] == row["solution_sha256"]})
    report = {"layer": "dp.solve_extended",
              "instances": "chained-diamonds seed 0; per node random register-pressure "
                           "table, 10% of nodes restricted to bl == br",
              "timing": f"best of {args.repeats}, gc off, decomposition excluded",
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "machine": platform.machine(), "rows": rows}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
