"""Span recording around the library's public functions.

The tracer replaces a module attribute with a wrapper, so only calls that
look the name up in that module are seen: ``run_pipeline`` reaches the
solvers through ``lospre.cli``, ``solve`` reaches its helpers through
``lospre.dp``, and ``decompose`` reaches ``validate`` through
``lospre.treedec``.  Spans are kept in memory and summarised at the end.
A name missing from its module is reported as unmeasured.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, counter hook name or None).  The pipeline
# reaches the solvers through ``lospre.cli``; the solver workloads call the
# defining modules directly; the helpers are looked up inside the solvers.
PIPELINE_TARGETS = (
    ("lospre.cli", "run_pipeline", "cli.run_pipeline", "pipeline"),
    ("lospre.cli", "decompose", "treedec.decompose", None),
    ("lospre.cli", "make_nice", "treedec.make_nice", "nice"),
    ("lospre.cli", "solve", "dp.solve", "solve"),
    ("lospre.cli", "solve_safety", "safety.solve_safety", "safety"),
    ("lospre.ir", "parse_ir", "ir.parse_ir", None),
    ("lospre.ir", "build_cfg", "ir.build_cfg", None),
    ("lospre.ir", "derive_problems", "ir.derive_problems", "candidates"),
    ("lospre.ir", "rewrite", "ir.rewrite", None),
    ("lospre.ir", "copy_propagate", "ir.copy_propagate", None),
)
SOLVER_TARGETS = (
    ("lospre.treedec", "decompose", "treedec.decompose", None),
    ("lospre.treedec", "make_nice", "treedec.make_nice", "nice"),
    ("lospre.dp", "solve", "dp.solve", "solve"),
    ("lospre.safety", "solve_safety", "safety.solve_safety", "safety"),
    ("lospre.dp", "solve_extended", "dp.solve_extended", "extended"),
)
HELPER_TARGETS = (
    ("lospre.dp", "assign_edges_to_forgets", "dp.assign_edges_to_forgets", None),
    ("lospre.dp", "total_cost", "cfg.total_cost", None),
    ("lospre.treedec", "validate", "treedec.validate", None),
)

SETUP = -1  # op id of spans recorded while inputs are built


def _table_entries(nice) -> int:
    return sum(1 << len(b) for b in nice.bags)


class Tracer:
    """Records (name, start, end, parent index, op id) spans and counters.

    ``op`` is the id stamped on new spans; counters are kept per op id so a
    summary can be restricted to a deterministic set of ops.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op = SETUP
        self.unmeasured = []
        self._stack = []
        self._restore = []

    def install(self, targets) -> None:
        """Wrap every target; names that do not exist are listed as unmeasured.

        Does nothing while the wrappers are installed.
        """
        if self._restore:
            return
        self.unmeasured = []
        for module_name, attr, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(name)
                continue
            setattr(module, attr, self._wrap(original, name, hook))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = getattr(self, f"_count_{hook}") if hook else None

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts[self.op], args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """Record a span around code that is not a library call."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # counter hooks: (per-op counter dict, call arguments, result)

    @staticmethod
    def _count_pipeline(c, args, result):
        c["cli.passes"] += result.passes
        c["cli.rewrites"] += len(result.applied)

    @staticmethod
    def _count_nice(c, args, result):
        c["treedec.width_max"] = max(c["treedec.width_max"], result.width)
        c["treedec.nice_nodes"] += result.node_count

    @staticmethod
    def _count_solve(c, args, result):
        c["dp.solve.transitions"] += result.transitions
        c["dp.solve.table_entries"] += _table_entries(args[2])

    @staticmethod
    def _count_safety(c, args, result):
        c["safety.added_nodes"] += len(result.added)

    @staticmethod
    def _count_candidates(c, args, result):
        c["ir.candidates"] += len(result)

    @staticmethod
    def _count_extended(c, args, result):
        c["dp.solve_extended.transitions"] += result.transitions

    def summary(self, ops) -> dict:
        """Per-name calls, inclusive seconds and self seconds over spans of ``ops``."""
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                row = out[name]
                row["calls"] += 1
                row["s"] += end - start
                row["self_s"] += end - start - child[k]
        return dict(out)

    def counters(self, ops) -> dict:
        total = defaultdict(int)
        for op in ops:
            for key, value in self.counts[op].items():
                if key == "treedec.width_max":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return dict(total)
