"""End-to-end and per-layer benchmark of the lospre library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``): pipeline, chain, wide, extended.  Each run
is one fresh single-threaded process with the garbage collector left on.
Inputs are built from ``--seed`` by the benchmark's own generators, several
times, and the median build time is ``setup_s``.  One caller then runs
operations in a closed loop over the instances, in order, for ``--seconds``
seconds and at least the workload's ``min_ops`` operations.  Every
instance's first output is checked against the benchmark's own reference
code; later runs of it must reproduce it exactly.

Set-up and op times are corrected for the speed of the shared host by a
reference kernel run between them (``calibrate.py``); the report line
gives the raw wall-clock values and the correction factors too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and traced, in alternating order, and prints the
per-layer metrics from the spans (times in seconds per traced op, counts
per op over a fixed prefix of ops) and the tracing overhead.

The next-to-last line of output is a JSON report with the context, the
tail percentile and sample count, the error rate and the deterministic
counters, which repeat exactly for a given seed.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the library
sources are not next to the benchmark.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail
TRACE_PREFIX = 60       # ops whose per-layer counts are reported (at most one pass)

END_TO_END = ("nodes_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb", "ok_rate",
              "calcs_removed", "out_instrs", "dyn_calcs_ratio")
UNITS = {"nodes_per_s": "nodes/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_rate": "ratio", "calcs_removed": "count/op",
         "out_instrs": "instrs/op", "dyn_calcs_ratio": "ratio"}

# per-layer metric -> unit.  ``<span>.calls|s|self_s`` come from the spans of
# that name; the rest are counters recorded at the span boundaries.
PER_LAYER = {
    "safety.solve_safety.calls": "calls/op", "safety.solve_safety.s": "s/op",
    "safety.added_nodes": "count/op",
    "dp.solve.calls": "calls/op", "dp.solve.self_s": "s/op",
    "dp.solve.transitions": "count/op", "dp.solve.table_entries": "count/op",
    "dp.assign_edges_to_forgets.s": "s/op", "cfg.total_cost.s": "s/op",
    "dp.solve_extended.calls": "calls/op", "dp.solve_extended.s": "s/op",
    "dp.solve_extended.transitions": "count/op",
    "treedec.decompose.calls": "calls/op", "treedec.decompose.self_s": "s/op",
    "treedec.validate.s": "s/op", "treedec.make_nice.s": "s/op",
    "treedec.width_max": "width", "treedec.nice_nodes": "count/op",
    "ir.parse_ir.s": "s/op", "ir.build_cfg.calls": "calls/op", "ir.build_cfg.s": "s/op",
    "ir.derive_problems.calls": "calls/op", "ir.derive_problems.s": "s/op",
    "ir.candidates": "count/op", "ir.rewrite.s": "s/op", "ir.copy_propagate.s": "s/op",
    "cli.run_pipeline.s": "s/op", "cli.run_pipeline.self_s": "s/op",
    "cli.passes": "count/op", "cli.rewrites": "count/op",
    "cli.solves_per_rewrite": "ratio", "cli.safety_solves_per_rewrite": "ratio",
    "cli.useful_solve_ratio": "ratio",
    "trace.overhead_ratio": "ratio", "trace.attributed_ratio": "ratio",
}
# span whose wrapper records each counter
COUNTER_SPAN = {
    "safety.added_nodes": "safety.solve_safety", "dp.solve.transitions": "dp.solve",
    "dp.solve.table_entries": "dp.solve", "dp.solve_extended.transitions": "dp.solve_extended",
    "treedec.width_max": "treedec.make_nice", "treedec.nice_nodes": "treedec.make_nice",
    "ir.candidates": "ir.derive_problems", "cli.passes": "cli.run_pipeline",
    "cli.rewrites": "cli.run_pipeline",
}
# ratios of pipeline counts, and the spans they are computed from
DERIVED = ("cli.solves_per_rewrite", "cli.safety_solves_per_rewrite", "cli.useful_solve_ratio")
DERIVED_SPANS = ("dp.solve", "safety.solve_safety", "cli.run_pipeline")
UNMEASURED = -1.0


def _load_library():
    """Import ``lospre`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "lospre" / "__init__.py").is_file():
        sys.stderr.write(f"error: library sources not found at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lospre
    if Path(lospre.__file__).resolve().parent != (SRC / "lospre").resolve():
        sys.stderr.write(f"error: imported lospre from {lospre.__file__}, not {SRC}\n")
        sys.exit(2)


def _context(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
            "platform": platform.platform(), "seed": seed}


def _expected(workload, seed):
    """Recorded optimal objectives per instance, for the default seed only."""
    if seed != 0:
        return None
    path = HERE / "expected_seed0.json"
    return json.loads(path.read_text()).get(workload) if path.is_file() else None


def _tail(samples, min_ops):
    """(value, percentile, samples beyond) of the tail percentile.

    The percentile is the highest one that has TAIL_BEYOND samples beyond
    it in every run, since every run has at least ``min_ops`` samples; it
    stays fixed as the code gets faster.  Nearest-rank definition.
    """
    q = 1.0 - TAIL_BEYOND / min_ops
    s = sorted(samples)
    k = max(0, math.ceil(q * len(s)) - 1)
    return s[k], 100.0 * q, len(s) - k - 1


class _Loop:
    """Closed-loop state shared by the timed and traced runs."""

    def __init__(self, workload, instances):
        self.w = workload
        self.instances = instances
        self.first = {}         # instance index -> summary of its first output
        self.bad = {}           # instance index -> error message
        self.problems = []      # failures not tied to one instance
        self.ops_on = [0] * len(instances)
        self.attempted = 0

    def run(self, k):
        """Run one op on instance k; returns (seconds, output or None)."""
        self.attempted += 1
        self.ops_on[k] += 1
        t0 = time.perf_counter()
        try:
            out = self.w.op(self.instances[k])
        except Exception as exc:  # a failed op is counted, not fatal
            self.bad.setdefault(k, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        summary = self.w.summary(out)
        if k not in self.first:
            self.first[k] = summary
        elif summary != self.first[k]:
            self.bad.setdefault(k, "output differs from an earlier run of the same instance")
        return dt, out

    def check(self, seed, counted=0):
        """Check every first output; returns the deterministic counters
        summed over instances below ``counted``."""
        expected = _expected(self.w.name, seed)
        totals = {}
        for k in sorted(self.first):
            want = expected[k] if expected is not None and k < len(expected) else None
            err, counters = self.w.check(k, self.instances[k], self.first[k], want)
            if err is not None:
                self.bad.setdefault(k, err)
            if k < counted:
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def failed(self):
        """Every op on an instance that raised, failed a check or did not repeat."""
        return sum(self.ops_on[k] for k in self.bad)

    def errors(self):
        return {**{str(k): msg for k, msg in sorted(self.bad.items())},
                **{f"run{j}": msg for j, msg in enumerate(self.problems)}}

    def objectives(self):
        return [self.w.objective(self.first[k]) for k in sorted(self.first)]


def run_timed(workload, seed, seconds):
    from calibrate import Speed
    speed = Speed()
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        token = speed.start()
        t0 = time.perf_counter()
        instances = workload.setup(seed)
        setup_raw.append(time.perf_counter() - t0)
        speed.tick(force=True)
        setup_times.append(speed.scale(setup_raw[-1], token))
    K = len(instances)
    counted = min(K, workload.min_ops)
    loop = _Loop(workload, instances)
    timed = []                  # (raw seconds, speed token) of each op that succeeded
    nodes = 0
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        k = i % K
        token = speed.start()
        dt, out = loop.run(k)
        speed.tick()
        if out is not None:
            timed.append((dt, token))
            nodes += workload.nodes(instances[k])
        i += 1
    speed.tick(force=True)
    raw = [dt for dt, _ in timed]
    latencies = [speed.scale(dt, token) for dt, token in timed]
    totals = loop.check(seed, counted)
    failed = loop.failed()
    if not latencies:           # every op failed; the values below are placeholders
        latencies = raw = [float("inf")]
    tail, tail_pct, beyond = _tail(latencies, workload.min_ops)
    counters = {
        "instances": counted,
        "calcs_removed": totals.get("calcs_removed", 0) / counted,
        "out_instrs": totals.get("out_instrs", 0) / counted,
        "dyn_calcs_ratio": totals.get("dyn_after", 0) / max(1, totals.get("dyn_before", 0)),
    }
    metrics = {
        "nodes_per_s": nodes / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - failed / loop.attempted,
        "calcs_removed": counters["calcs_removed"],
        "out_instrs": counters["out_instrs"],
        "dyn_calcs_ratio": counters["dyn_calcs_ratio"],
    }
    factors = [speed.factor(j) for j in range(len(speed.samples))]
    report = {"samples": len(latencies), "tail_percentile": tail_pct, "tail_beyond": beyond,
              "setup_samples_s": setup_times, "raw_setup_samples_s": setup_raw,
              "raw_op_p50_s": statistics.median(raw),
              "raw_op_tail_s": _tail(raw, workload.min_ops)[0],
              "raw_nodes_per_s": nodes / sum(raw),
              "speed_factor": {"median": statistics.median(factors), "min": min(factors),
                               "max": max(factors), "samples": len(factors)},
              "error_rate": failed / loop.attempted,
              "errors": loop.errors(), "counters": counters,
              "objectives": [o for o in loop.objectives() if o is not None]}
    return loop, failed, {m: (metrics[m], UNITS[m]) for m in END_TO_END}, report


def run_traced(workload, seed, seconds):
    from spans import SETUP, Tracer
    tracer = Tracer()
    tracer.install(workload.trace_targets)
    tracer.op = SETUP
    instances = workload.setup(seed)
    K = len(instances)
    prefix = min(K, TRACE_PREFIX)
    loop = _Loop(workload, instances)
    plain = traced = 0.0
    start = time.perf_counter()
    i = 0
    while i < prefix or time.perf_counter() - start < seconds:
        k = i % K
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(workload.trace_targets)
                tracer.op = i
                with tracer.span("op"):
                    dt, _ = loop.run(k)
                traced += dt
            else:
                tracer.uninstall()
                dt, _ = loop.run(k)
                plain += dt
        i += 1
    tracer.uninstall()
    loop.check(seed)
    failed = loop.failed()

    metrics, times = _per_layer(tracer, i, prefix)
    metrics["trace.overhead_ratio"] = (traced / plain if plain else 0.0, "ratio")
    op_total = times.get("op", {}).get("s", 0.0)
    attributed = sum(row["self_s"] for name, row in times.items() if name != "op")
    metrics["trace.attributed_ratio"] = (attributed / op_total if op_total else 0.0, "ratio")

    setup_layers = tracer.summary([SETUP])
    exercised = {name.split(".")[0] for name, row in times.items() if row["calls"]}
    exercised |= {name.split(".")[0] for name, row in setup_layers.items() if row["calls"]}
    missing = [layer for layer in workload.required_layers if layer not in exercised]
    loop.problems += [f"layer {layer} recorded no calls" for layer in missing]
    report = {"pairs": i, "counted_ops": prefix, "unmeasured": tracer.unmeasured,
              "layers_without_calls": missing, "error_rate": failed / loop.attempted,
              "errors": loop.errors(),
              "counters": {k: v for k, (v, unit) in metrics.items()
                           if unit != "s/op" and not k.startswith("trace.")},
              "setup_layers": setup_layers, "setup_counters": tracer.counters([SETUP])}
    return loop, failed, metrics, report


def _per_layer(tracer, ops, prefix):
    """Per-layer metrics except trace.*, plus the per-name span summary.

    Times are seconds per traced op over all ``ops`` traced ops; calls and
    counters are per op over the first ``prefix`` ops, so they repeat
    exactly.  A metric whose span could not be wrapped is UNMEASURED.
    """
    times = tracer.summary(range(ops))
    calls = tracer.summary(range(prefix))
    counts = tracer.counters(range(prefix))
    gone = set(tracer.unmeasured)

    def calls_of(span):
        return calls.get(span, {}).get("calls", 0)

    rewrites = counts.get("cli.rewrites", 0)
    solves = calls_of("dp.solve")
    derived = {
        "cli.solves_per_rewrite": solves / rewrites if rewrites else 0.0,
        "cli.safety_solves_per_rewrite":
            calls_of("safety.solve_safety") / rewrites if rewrites else 0.0,
        "cli.useful_solve_ratio": rewrites / solves if solves else 0.0,
    }
    out = {}
    for name, unit in PER_LAYER.items():
        span, _, field = name.rpartition(".")
        if name in derived:
            sources, value = DERIVED_SPANS, derived[name]
        elif name in COUNTER_SPAN:
            sources, value = (COUNTER_SPAN[name],), counts.get(name, 0)
            if name != "treedec.width_max":
                value /= prefix
        elif field == "calls":
            sources, value = (span,), calls_of(span) / prefix
        elif field in ("s", "self_s"):
            sources, value = (span,), times.get(span, {}).get(field, 0.0) / ops
        else:
            continue
        out[name] = (UNMEASURED if gone.intersection(sources) else value, unit)
    return out, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    warnings.simplefilter("ignore")
    context = _context(args.seed)
    workload = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_timed
    loop, failed, metrics, report = runner(workload, args.seed, args.seconds)

    report = {"workload": args.workload, "trace": args.trace, "context": context, **report}
    correct = not loop.bad and not loop.problems
    result = {"correct": correct, "attempted": loop.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
