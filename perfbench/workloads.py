"""The four workloads: inputs, one operation, and its output checks.

A workload builds a list of instances from the seed (``setup``), runs one
operation on an instance (``op``), reduces its output to a compact value
that must repeat exactly when the same instance is run again
(``summary``; only summaries are kept, so the heap does not grow with the
number of instances run), and checks a summary against the benchmark's
own reference code (``check``).  ``check`` returns an error message or
None, plus the instance's deterministic counters.  Library functions are looked up on their modules at
call time, so the tracer's wrappers see the calls.

``min_ops`` is the number of ops every run completes.  It fixes the tail
percentile (ten samples beyond it at ``min_ops`` samples), and the
deterministic counters cover the first ``min(instances, min_ops)``
instances.  It is sized to fit in a 25 s run at the speed in baseline.json.
"""
from __future__ import annotations

import random

import lospre.cli
import lospre.dp
import lospre.ir
import lospre.safety
import lospre.treedec
from lospre import Cfg, CostVec, make_problem

import gen
import refcheck
from spans import HELPER_TARGETS, PIPELINE_TARGETS, SOLVER_TARGETS


class Pipeline:
    """``run_pipeline(parse_ir(text), RunConfig())`` on one generated program."""

    name = "pipeline"
    required_layers = ("cli", "ir", "treedec", "dp", "safety", "cfg")
    trace_targets = PIPELINE_TARGETS + HELPER_TARGETS
    programs = 480      # more than a run gets through, so few programs repeat
    min_ops = 220
    max_statements = 60
    min_instrs, max_instrs = 40, 100
    inputs_per_program = 3
    max_steps = 20000

    def setup(self, seed):
        texts = gen.program_corpus(seed, self.programs, max_statements=self.max_statements,
                                   min_instrs=self.min_instrs, max_instrs=self.max_instrs)
        self.seed = seed
        return texts

    def nodes(self, text):
        return text.count("\n")

    def op(self, text):
        return lospre.cli.run_pipeline(lospre.ir.parse_ir(text), lospre.cli.RunConfig())

    def summary(self, result):
        """(rewritten IR text, computations the applied solutions remove, passes)."""
        removed = sum(len(c.occurrence_nodes) - len(s.calc_set) for c, s in result.applied)
        return lospre.ir.format_ir(result.program), removed, result.passes

    def objective(self, summary):
        return None

    def check(self, index, text, summary, expected=None):
        out_text, removed, _ = summary
        before = refcheck.parse_program(text)
        after = refcheck.parse_program(out_text)
        counters = {"calcs_removed": removed, "out_instrs": len(after),
                    "dyn_before": 0, "dyn_after": 0}
        static_delta = refcheck.static_computations(before) - refcheck.static_computations(after)
        if static_delta != removed:
            return (f"static computations fell by {static_delta}, "
                    f"but the applied solutions claim {removed}"), counters
        inputs = gen.interp_inputs(self.seed * 100003 + index, refcheck.variables(before),
                                   self.inputs_per_program)
        err, dyn_before, dyn_after = refcheck.compare_runs(before, after, inputs, self.max_steps)
        counters["dyn_before"] = dyn_before
        counters["dyn_after"] = dyn_after
        return err, counters


class _GraphInstance:
    """A graph problem as plain sets, plus the library objects built from it."""

    def __init__(self, n, edges, use, inv, cfg=None):
        self.n = n
        self.edges = edges
        self.use = frozenset(use)
        self.cfg = cfg if cfg is not None else Cfg(n, edges)
        self.problem = make_problem(self.cfg, use, inv)
        self.inv = self.problem.invalidation_set
        self.walk = None


def _check_base(inst, life, calc, cost, expected):
    """Errors in a base-objective solution, recomputed from its life set."""
    want_calc = refcheck.calc_edges(inst.edges, inst.use, inst.inv, life)
    if calc != want_calc:
        return "calculation set does not follow from the life set"
    if cost != (len(calc), len(life)):
        return f"reported cost {list(cost)} is not the objective of the life set"
    if expected is not None and [len(calc), len(life)] != expected:
        return f"objective {[len(calc), len(life)]} differs from the recorded optimum {expected}"
    return None


def _check_optimum(inst, cost, band):
    best = refcheck.banded_optimum(inst.n, inst.edges, inst.use, inst.inv, band,
                                   lambda v, b: (0, b))
    if cost != best:
        return f"objective {list(cost)} is not the optimum {list(best)}"
    return None


def _solver_counters(inst, calc):
    if inst.walk is None:
        inst.walk = refcheck.walk_probabilities(inst.n, inst.edges)
    after, before = refcheck.dynamic_ratio(inst.walk, inst.use, calc)
    return {"calcs_removed": len(inst.use) - len(calc), "out_instrs": inst.n + len(calc),
            "dyn_before": before, "dyn_after": after}


class Chain:
    """``decompose`` -> ``make_nice`` -> ``solve`` on a width-2 diamond chain."""

    name = "chain"
    required_layers = ("treedec", "dp", "cfg")
    trace_targets = SOLVER_TARGETS + HELPER_TARGETS
    nodes_per_graph = 16384
    instances = 4
    min_ops = 24
    band = 2            # every diamond-chain edge spans at most two ids
    use_frac, inv_frac = 0.25, 0.10

    def setup(self, seed):
        rng = random.Random(f"chain/{seed}")
        n = self.nodes_per_graph
        edges = gen.diamond_chain(n)
        cfg = Cfg(n, edges)
        out = []
        for _ in range(self.instances):
            use, inv = gen.use_inv(rng, n, self.use_frac, self.inv_frac)
            out.append(_GraphInstance(n, edges, use, inv, cfg))
        return out

    def nodes(self, inst):
        return inst.n

    def op(self, inst):
        nice = lospre.treedec.make_nice(lospre.treedec.decompose(inst.cfg))
        return lospre.dp.solve(inst.cfg, inst.problem, nice)

    def summary(self, sol):
        return (sol.cost.primary, sol.cost.secondary), sol.life_set, sol.calc_set

    def objective(self, summary):
        return list(summary[0])

    def check(self, index, inst, summary, expected=None):
        cost, life, calc = summary
        err = _check_base(inst, life, calc, cost, expected)
        if err is None:
            err = _check_optimum(inst, cost, self.band)
        return err, _solver_counters(inst, calc)


class Wide:
    """``decompose`` -> ``make_nice`` -> ``solve`` -> ``solve_safety`` on a banded DAG."""

    name = "wide"
    required_layers = ("treedec", "dp", "safety", "cfg")
    trace_targets = SOLVER_TARGETS + HELPER_TARGETS
    nodes_per_graph = 768
    instances = 48
    min_ops = 48
    band, p = 5, 0.5
    use_frac, inv_frac = 0.30, 0.05

    def setup(self, seed):
        rng = random.Random(f"wide/{seed}")
        out = []
        n = self.nodes_per_graph
        for _ in range(self.instances):
            edges = gen.banded_dag(rng, n, self.band, self.p)
            use, inv = gen.use_inv(rng, n, self.use_frac, self.inv_frac)
            out.append(_GraphInstance(n, edges, use, inv))
        return out

    def nodes(self, inst):
        return inst.n

    def op(self, inst):
        nice = lospre.treedec.make_nice(lospre.treedec.decompose(inst.cfg))
        sol = lospre.dp.solve(inst.cfg, inst.problem, nice)
        return sol, lospre.safety.solve_safety(inst.cfg, inst.problem, nice)

    def summary(self, out):
        sol, safety = out
        return (sol.cost.primary, sol.cost.secondary), sol.life_set, sol.calc_set, safety.i_prime

    def objective(self, summary):
        return list(summary[0])

    def check(self, index, inst, summary, expected=None):
        cost, life, calc, i_prime = summary
        err = _check_base(inst, life, calc, cost, expected)
        if err is None:
            err = _check_optimum(inst, cost, self.band)
        if err is None and i_prime != refcheck.safety_closure(inst.n, inst.edges,
                                                              inst.use, inst.inv):
            err = "enlarged invalidation set differs from the reachability closure"
        return err, _solver_counters(inst, calc)


class Extended:
    """``solve_extended`` with per-node register-pressure tables on a diamond chain.

    The decomposition is built once, in set-up.
    """

    name = "extended"
    required_layers = ("dp", "treedec")
    trace_targets = SOLVER_TARGETS + HELPER_TARGETS
    nodes_per_graph = 2048
    instances = 4
    min_ops = 36
    band = 2
    use_frac, inv_frac = 0.25, 0.10
    restricted_frac = 0.1

    def setup(self, seed):
        rng = random.Random(f"extended/{seed}")
        n = self.nodes_per_graph
        edges = gen.diamond_chain(n)
        cfg = Cfg(n, edges)
        nice = lospre.treedec.make_nice(lospre.treedec.decompose(cfg))
        out = []
        for _ in range(self.instances):
            use, inv = gen.use_inv(rng, n, self.use_frac, self.inv_frac)
            inst = _GraphInstance(n, edges, use, inv, cfg)
            inst.nice = nice
            inst.rows, inst.allowed = gen.pressure_tables(rng, n, self.restricted_frac)
            table = [{k: CostVec(*c) for k, c in row.items()} for row in inst.rows]
            inst.cost_fn = lambda v, b, bl, br, _t=table: _t[v][(b, bl, br)]
            inst.best_node_cost = _cheapest_combo(inst.rows, inst.allowed)
            out.append(inst)
        return out

    def nodes(self, inst):
        return inst.n

    def op(self, inst):
        return lospre.dp.solve_extended(inst.cfg, inst.problem, inst.nice, inst.cost_fn,
                                        allowed_combos=inst.allowed)

    def summary(self, sol):
        return ((sol.cost.primary, sol.cost.secondary), sol.life_set, sol.calc_set,
                sol.life_left, sol.life_right)

    def objective(self, summary):
        return list(summary[0])

    def check(self, index, inst, summary, expected=None):
        cost, life, calc_reported, life_left, life_right = summary
        calc = refcheck.calc_edges(inst.edges, inst.use, inst.inv, life)
        counters = _solver_counters(inst, calc)
        if calc != calc_reported:
            return "calculation set does not follow from the life set", counters
        primary, secondary = len(calc), 0
        for v in range(inst.n):
            combo = (int(v in life), int(v in life_left), int(v in life_right))
            if v in inst.allowed and combo not in inst.allowed[v]:
                return f"node {v} uses the forbidden combination {combo}", counters
            p, s = inst.rows[v][combo]
            primary += p
            secondary += s
        if cost != (primary, secondary):
            return f"reported cost {list(cost)} is not the objective {[primary, secondary]}", counters
        best = refcheck.banded_optimum(inst.n, inst.edges, inst.use, inst.inv, self.band,
                                       inst.best_node_cost)
        if (primary, secondary) != best:
            return f"objective {[primary, secondary]} is not the optimum {list(best)}", counters
        if expected is not None and [primary, secondary] != expected:
            return (f"objective {[primary, secondary]} differs from the recorded "
                    f"optimum {expected}"), counters
        return None, counters


def _cheapest_combo(rows, allowed):
    """node_cost(v, b): the cheapest allowed operand bits for value bit b.

    The operand bits enter only the node's own cost, so for a fixed value
    bit they can be chosen per node.
    """
    def node_cost(v, b):
        combos = allowed.get(v, rows[v])
        return min(rows[v][c] for c in combos if c[0] == b)
    return node_cost


WORKLOADS = {w.name: w for w in (Pipeline, Chain, Wide, Extended)}
