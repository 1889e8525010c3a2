"""Command-line front-end.

Subcommands: run (IR pipeline), graph (solve problems from a graph file),
decompose, safety, oracle-check, bench.  Exit codes: 0 success, 2 parse
error, 3 width guard exceeded, 4 verification mismatch, 1 anything else.
Emitted artifacts are byte-identical across runs for identical inputs and
flags; --verify only ever changes the exit status.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import ir as irmod
from .cfg import DEFAULT_EDGE_COST, dump_dot, load_cfg, min_calc_count
from .dp import eliminated_count, format_solution, solve
from .errors import (GraphFormatError, IrParseError, LospreError,
                     VerificationError, WidthExceededError)
from .oracle import (InstanceGenerator, brute_lospre, brute_safety, brute_safety_fixpoint,
                     generate)
from .safety import apply_safety, solve_safety
from .treedec import decompose, dump_dot_treedec, make_nice

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_WIDTH = 3
EXIT_VERIFY = 4

VERIFY_MAX_NODES = 12
VERIFY_SAFETY_MAX_NODES = 16
VERIFY_FIXPOINT_MAX_NODES = 12


@dataclass
class RunConfig:
    mode: str = "ir"            # ir | graph
    goal: str = "size"          # size | speed
    safety: str = "auto"        # auto | always | never
    max_width: int = 16
    emit: set = field(default_factory=set)  # dot, solution, stats, rewritten-ir
    verify: bool = False
    seed: int = 0
    out_dir: Path = Path(".")


def _emit(config: RunConfig, name: str, text: str) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / name).write_text(text)


def _decompose_for(cfg, config: RunConfig):
    nice = make_nice(decompose(cfg))
    if nice.width > config.max_width:
        raise WidthExceededError(
            f"decomposition width {nice.width} exceeds --max-width {config.max_width}")
    return nice


def _check_goal(config: RunConfig, program=None) -> None:
    if config.goal != "speed":
        return
    # speed optimization needs user-supplied execution weights
    if program is not None and program.default_edge_cost == irmod.DEFAULT_EDGE_COST \
            and not program.edge_cost_overrides:
        raise IrParseError("--goal speed requires edge weights (!edgecost directives)")


@dataclass
class PipelineResult:
    program: object
    applied: list           # (candidate, solution) pairs, in application order
    passes: int
    verify_failures: list


def _safety_oracle(cfg):
    """The brute-force safety reference that ``--verify`` can afford on ``cfg``, or None."""
    if cfg.node_count <= VERIFY_SAFETY_MAX_NODES and cfg.is_acyclic():
        return brute_safety
    if cfg.node_count <= VERIFY_FIXPOINT_MAX_NODES:
        return brute_safety_fixpoint
    return None


def _unit_costs(cfg) -> bool:
    """Every edge costs [1,0] and every node cost has primary 0: the cut is the optimum."""
    return all(c == DEFAULT_EDGE_COST for c in cfg.edge_cost.values()) and \
        all(not c.infinite and c.primary == 0 for c in cfg.node_cost.values())


def _verify_solution(cfg, problem, candidate, solution) -> list:
    """Failures found by checking one solve against brute force and the cut bound."""
    failures = []
    if cfg.node_count <= VERIFY_MAX_NODES:
        oracle_sol = brute_lospre(cfg, problem)
        if (oracle_sol.cost, oracle_sol.life_set) != (solution.cost, solution.life_set):
            failures.append(
                f"optimality mismatch for {candidate.display()}: "
                f"cost {solution.cost} vs oracle {oracle_sol.cost}")
    calcs = len(solution.calc_set)
    cut = min_calc_count(cfg, problem, calcs + 1)
    if cut > calcs or (cut < calcs and _unit_costs(cfg)):
        failures.append(
            f"certificate mismatch for {candidate.display()}: "
            f"minimum cut {cut} vs {calcs} calculations")
    return failures


def run_pipeline(program, config: RunConfig) -> PipelineResult:
    """Eliminate candidates to fixpoint.

    Each pass re-derives candidates on the current program and applies the
    first one whose solution uses fewer calculations than it has
    occurrences; a rewrite strictly reduces the static computation count,
    which bounds the number of passes.  Safety routing follows the config:
    auto enlarges the invalidation set for loads and divisions.  When every
    cost of the pass's graph is finite, a candidate whose minimum cut
    (``min_calc_count``) reaches its occurrence count cannot gain under any
    costs and is not solved; --verify solves every candidate.
    """
    applied = []
    verify_failures = []
    passes = 0
    pass_limit = 2 * len(program.instructions) + 8
    while passes < pass_limit:
        passes += 1
        cfg = irmod.build_cfg(program)
        nice = _decompose_for(cfg, config)
        certify = not config.verify and cfg.has_finite_costs()
        safety_oracle = _safety_oracle(cfg) if config.verify else None
        chosen = None
        for candidate, problem in irmod.derive_problems(program, cfg):
            occurrences = len(candidate.occurrence_nodes)
            if occurrences < 2 and not config.verify:
                # a reachable use forces at least one calculation edge, so a
                # single occurrence can never shrink
                continue
            wants_safety = (config.safety == "always" or
                            (config.safety == "auto" and candidate.safety_required))
            if wants_safety:
                safety_sol = solve_safety(cfg, problem, nice, max_width=config.max_width)
                if safety_oracle is not None:
                    oracle_sol = safety_oracle(cfg, problem)
                    if oracle_sol.i_prime != safety_sol.i_prime:
                        verify_failures.append(
                            f"safety mismatch for {candidate.display()}: "
                            f"{sorted(safety_sol.i_prime)} vs oracle {sorted(oracle_sol.i_prime)}")
                problem = apply_safety(problem, safety_sol)
            if certify and min_calc_count(cfg, problem, occurrences) >= occurrences:
                # every life set has at least as many calculation edges as
                # there are occurrences, the optimum included
                continue
            solution = solve(cfg, problem, nice, max_width=config.max_width)
            if config.verify:
                verify_failures.extend(_verify_solution(cfg, problem, candidate, solution))
            if len(solution.calc_set) < occurrences:
                chosen = (candidate, solution)
                break
        if chosen is None:
            break
        candidate, solution = chosen
        applied.append((candidate, solution))
        program = irmod.rewrite(program, cfg, candidate, solution)
        program = irmod.copy_propagate(program)
    return PipelineResult(program=program, applied=applied, passes=passes,
                          verify_failures=verify_failures)


def cmd_run(config: RunConfig, path: Path) -> int:
    program = irmod.parse_ir(path.read_text())
    _check_goal(config, program)
    result = run_pipeline(program, config)

    stats = eliminated_count(result.applied)
    lines = []
    for display, uses, calcs, delta in stats.per_candidate:
        lines.append(f"candidate {display} uses={uses} calcs={calcs} eliminated={delta}")
    lines.append(f"total eliminated={stats.total}")
    lines.append(f"passes={result.passes}")
    stats_text = "\n".join(lines) + "\n"
    sys.stdout.write(stats_text)

    stem = path.stem
    if "stats" in config.emit:
        _emit(config, f"{stem}.stats", stats_text)
    if "rewritten-ir" in config.emit:
        _emit(config, f"{stem}.out.ir", irmod.format_ir(result.program))
    if "dot" in config.emit:
        _emit(config, f"{stem}.dot", dump_dot(irmod.build_cfg(result.program)))
    if "solution" in config.emit:
        text = "".join(format_solution(sol, index=k)
                       for k, (_, sol) in enumerate(result.applied))
        _emit(config, f"{stem}.solution", text)

    if result.verify_failures:
        for msg in result.verify_failures:
            sys.stderr.write(msg + "\n")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_graph(config: RunConfig, path: Path) -> int:
    cfg, problems = load_cfg(path.read_text(), synthetic_source=True)
    nice = _decompose_for(cfg, config)
    out = []
    mismatches = []
    solutions = []
    for k, problem in enumerate(problems):
        if config.safety == "always":
            problem = apply_safety(problem, solve_safety(cfg, problem, nice,
                                                         max_width=config.max_width))
        solution = solve(cfg, problem, nice, max_width=config.max_width)
        solutions.append(solution)
        out.append(format_solution(solution, index=k))
        if config.verify and cfg.node_count <= VERIFY_MAX_NODES:
            oracle_sol = brute_lospre(cfg, problem)
            if (oracle_sol.cost, oracle_sol.life_set) != (solution.cost, solution.life_set):
                mismatches.append(f"problem {k}: cost {solution.cost} vs oracle {oracle_sol.cost}")
    text = "".join(out)
    sys.stdout.write(text)
    stem = path.stem
    if "solution" in config.emit:
        _emit(config, f"{stem}.solution", text)
    if "dot" in config.emit:
        for k, (problem, solution) in enumerate(zip(problems, solutions)):
            _emit(config, f"{stem}.{k}.dot", dump_dot(cfg, problem, solution))
    if mismatches:
        for msg in mismatches:
            sys.stderr.write(msg + "\n")
        return EXIT_VERIFY
    return EXIT_OK


def _load_any(config: RunConfig, path: Path):
    if config.mode == "ir" or (config.mode == "auto" and path.suffix == ".ir"):
        return irmod.build_cfg(irmod.parse_ir(path.read_text()))
    cfg, _ = load_cfg(path.read_text(), synthetic_source=True)
    return cfg


def cmd_decompose(config: RunConfig, path: Path) -> int:
    cfg = _load_any(config, path)
    td = decompose(cfg)
    nice = make_nice(td)
    if nice.width > config.max_width:
        raise WidthExceededError(
            f"decomposition width {nice.width} exceeds --max-width {config.max_width}")
    sys.stdout.write(f"nodes={cfg.node_count} bags={len(td.bags)} width={td.width} "
                     f"nice_nodes={nice.node_count}\n")
    for i, bag in enumerate(td.bags):
        sys.stdout.write(f"bag {i}: {' '.join(str(v) for v in sorted(bag))}\n")
    if "dot" in config.emit:
        _emit(config, f"{path.stem}.treedec.dot", dump_dot_treedec(td))
    return EXIT_OK


def cmd_safety(config: RunConfig, path: Path) -> int:
    if config.mode == "ir":
        program = irmod.parse_ir(path.read_text())
        cfg = irmod.build_cfg(program)
        nice = _decompose_for(cfg, config)
        for candidate, problem in irmod.derive_problems(program, cfg):
            if not (candidate.safety_required or config.safety == "always"):
                continue
            sol = solve_safety(cfg, problem, nice, max_width=config.max_width)
            sys.stdout.write(f"candidate {candidate.display()}\n")
            sys.stdout.write("i_prime " + " ".join(map(str, sorted(sol.i_prime))) + "\n")
            sys.stdout.write("added " + " ".join(map(str, sorted(sol.added))) + "\n")
        return EXIT_OK
    cfg, problems = load_cfg(path.read_text(), synthetic_source=True)
    nice = _decompose_for(cfg, config)
    for k, problem in enumerate(problems):
        sol = solve_safety(cfg, problem, nice, max_width=config.max_width)
        sys.stdout.write(f"problem {k}\n")
        sys.stdout.write("i_prime " + " ".join(map(str, sorted(sol.i_prime))) + "\n")
        sys.stdout.write("added " + " ".join(map(str, sorted(sol.added))) + "\n")
    return EXIT_OK


def cmd_oracle_check(config: RunConfig, seeds: str, size: int, style: str) -> int:
    try:
        first, _, last = seeds.partition("..")
        lo, hi = int(first), int(last if last else first)
    except ValueError:
        raise LospreError(f"malformed seed range {seeds!r}; expected A..B")
    failed = 0
    checked = 0
    for seed in range(lo, hi + 1):
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, size), style=style))
        nice = make_nice(decompose(cfg))
        solution = solve(cfg, problem, nice)
        reference = brute_lospre(cfg, problem)
        ok = (solution.cost, solution.life_set) == (reference.cost, reference.life_set)
        if ok and cfg.node_count <= VERIFY_SAFETY_MAX_NODES:
            ssol = solve_safety(cfg, problem, nice)
            sref = brute_safety(cfg, problem)
            ok = ssol.i_prime == sref.i_prime
        checked += 1
        if not ok:
            failed += 1
        sys.stdout.write(f"seed {seed} {'ok' if ok else 'FAIL'}\n")
    sys.stdout.write(f"checked {checked} failed {failed}\n")
    return EXIT_VERIFY if failed else EXIT_OK


def bench_sizes(sizes, seed=0):
    """Time decompose+convert+solve on diamond chains; returns (rows, slope).

    Rows are (size, seconds, width).  The slope is the least-squares slope
    of log time against log size (None for a single size).  Each size is
    timed best-of-N with the garbage collector quiesced so allocator noise
    from earlier runs does not distort the scaling estimate.
    """
    import gc
    rows = []
    for n in sizes:
        if n <= 0:
            raise LospreError("bench sizes must be positive")
        if n % 4:
            raise LospreError("bench sizes must be multiples of 4 (diamond chains)")
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(n, n),
                                                  style="chained-diamonds"))
        repeats = 3 if n < 8192 else 2
        best = math.inf
        width = 0
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                nice = make_nice(decompose(cfg))
                solve(cfg, problem, nice)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            width = nice.width
        rows.append((n, best, width))
    slope = None
    if len(rows) >= 2:
        xs = [math.log(n) for n, _, _ in rows]
        ys = [math.log(t) for _, t, _ in rows]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
            sum((x - mx) ** 2 for x in xs)
    return rows, slope


def cmd_bench(config: RunConfig, sizes_text: str) -> int:
    try:
        sizes = [int(t) for t in sizes_text.split(",")]
    except ValueError:
        raise LospreError(f"malformed size list {sizes_text!r}")
    if sizes != sorted(sizes):
        raise LospreError("bench sizes must be ascending")
    rows, slope = bench_sizes(sizes, seed=config.seed)
    for n, t, width in rows:
        sys.stdout.write(f"n={n} width={width} time={t:.4f}s\n")
    if slope is not None:
        sys.stdout.write(f"loglog_slope={slope:.3f}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lospre",
                                     description="speculative redundancy elimination "
                                                 "on bounded-treewidth control-flow graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", type=Path)
        p.add_argument("--goal", choices=("size", "speed"), default="size")
        p.add_argument("--safety", choices=("auto", "always", "never"), default="auto")
        p.add_argument("--max-width", type=int, default=16)
        p.add_argument("--emit", default="", help="comma list: dot,solution,stats,rewritten-ir")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.add_argument("--mode", choices=("auto", "ir", "graph"), default="auto")

    common(sub.add_parser("run", help="IR pipeline: derive, solve, rewrite to fixpoint"))
    common(sub.add_parser("graph", help="solve every problem in a graph file"))
    common(sub.add_parser("decompose", help="report the tree-decomposition"))
    common(sub.add_parser("safety", help="print enlarged invalidation sets"))
    oc = sub.add_parser("oracle-check", help="batch compare solver against brute force")
    common(oc, needs_input=False)
    oc.add_argument("--seeds", default="0..99")
    oc.add_argument("--size", type=int, default=10)
    oc.add_argument("--style", default="random-sparse")
    be = sub.add_parser("bench", help="time diamond-chain instances and report scaling")
    common(be, needs_input=False)
    be.add_argument("--sizes", default="1024,2048,4096,8192,16384,32768,65536")
    return parser


def _config_from(args) -> RunConfig:
    emit = {t for t in args.emit.split(",") if t}
    unknown = emit - {"dot", "solution", "stats", "rewritten-ir"}
    if unknown:
        raise LospreError(f"unknown --emit values: {sorted(unknown)}")
    mode = args.mode
    if mode == "auto" and getattr(args, "input", None) is not None:
        mode = "ir" if args.input.suffix == ".ir" else "graph"
    return RunConfig(mode=mode, goal=args.goal, safety=args.safety,
                     max_width=args.max_width, emit=emit, verify=args.verify,
                     seed=args.seed, out_dir=args.out_dir)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "run":
            return cmd_run(config, args.input)
        if args.command == "graph":
            return cmd_graph(config, args.input)
        if args.command == "decompose":
            return cmd_decompose(config, args.input)
        if args.command == "safety":
            return cmd_safety(config, args.input)
        if args.command == "oracle-check":
            return cmd_oracle_check(config, args.seeds, args.size, args.style)
        if args.command == "bench":
            return cmd_bench(config, args.sizes)
        raise LospreError(f"unknown command {args.command!r}")
    except (GraphFormatError, IrParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except WidthExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_WIDTH
    except VerificationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    except LospreError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
