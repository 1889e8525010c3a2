"""Check that the deterministic counters repeat exactly across two runs.

    python3 perfbench/check_repeat.py --seed 3 --seconds 5 [--trace 0|1] [WORKLOAD ...]

Runs ``run.py`` twice per workload with the same seed, each in a fresh
process, and compares the ``counters`` blocks of their reports (with
``--trace 1``: the per-layer counts).  Exits 1 on any difference or failed
run.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "chain", "wide", "extended")


def counters(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: run failed with exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["counters"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads:
        first = counters(workload, args.seed, args.seconds, args.trace)
        second = counters(workload, args.seed, args.seconds, args.trace)
        same = first == second
        print(f"{workload}: {'repeat' if same else 'DIFFER'} {json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"{workload}: second run {json.dumps(second, sort_keys=True)}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
