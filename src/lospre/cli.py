"""Command-line front-end.

Subcommands: run (IR pipeline), graph (solve problems from a graph file),
decompose, safety, oracle-check; each takes only the options it reads.
Exit codes: 0 success, 2 parse error or usage error, 3 width guard
exceeded, 4 verification mismatch, 1 anything else.
Emitted artifacts are byte-identical across runs for identical inputs and
flags; --verify checks the plain run's decisions and takes none of its
own, so it only ever changes the exit status.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import ir as irmod
from .cfg import DEFAULT_EDGE_COST, dump_dot, load_cfg, min_calc_count
from .dp import eliminated_count, format_solution, solve
from .errors import GraphFormatError, IrParseError, LospreError, WidthExceededError
from .oracle import (BRUTE_LOSPRE_MAX_NODES, BRUTE_SAFETY_FIXPOINT_MAX_NODES,
                     BRUTE_SAFETY_MAX_NODES, STYLES, InstanceGenerator, brute_lospre,
                     brute_safety, brute_safety_fixpoint, generate)
from .safety import apply_safety, solve_safety
from .treedec import decompose, dump_dot_treedec, make_nice, subdivide

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_WIDTH = 3
EXIT_VERIFY = 4

VERIFY_MAX_NODES = 12


@dataclass
class RunConfig:
    safety: str = "auto"        # auto | always | never
    max_width: int = 16
    emit: set = field(default_factory=set)  # dot, solution, stats, rewritten-ir
    verify: bool = False
    out_dir: Path = Path(".")


def _emit(config: RunConfig, name: str, text: str) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / name).write_text(text)


def _nice_within(td, config: RunConfig):
    """The nice form of ``td``, refused when it is wider than --max-width."""
    nice = make_nice(td)
    if nice.width > config.max_width:
        raise WidthExceededError(
            f"decomposition width {nice.width} exceeds --max-width {config.max_width}")
    return nice


@dataclass
class PipelineResult:
    program: object
    applied: list           # (candidate, solution) pairs, in application order
    passes: int
    verify_failures: list


def _safety_oracle(cfg):
    """The brute-force safety reference that ``--verify`` can afford on ``cfg``, or None."""
    if cfg.node_count <= BRUTE_SAFETY_MAX_NODES and cfg.is_acyclic():
        return brute_safety
    if cfg.node_count <= BRUTE_SAFETY_FIXPOINT_MAX_NODES:
        return brute_safety_fixpoint
    return None


def _unit_costs(cfg) -> bool:
    """Every edge costs [1,0] and every node cost has primary 0: the cut is the optimum."""
    return all(c == DEFAULT_EDGE_COST for c in cfg.edge_cost.values()) and \
        all(not c.infinite and c.primary == 0 for c in cfg.node_cost.values())


def _enlarge(cfg, problem, label: str, safety_oracle, failures: list):
    """The problem with its safety-enlarged invalidation set, checked against
    ``safety_oracle`` unless it is None; a mismatch is appended to ``failures``."""
    safety_sol = solve_safety(cfg, problem)
    if safety_oracle is not None:
        oracle_sol = safety_oracle(cfg, problem)
        if oracle_sol.i_prime != safety_sol.i_prime:
            failures.append(
                f"safety mismatch for {label}: "
                f"{sorted(safety_sol.i_prime)} vs oracle {sorted(oracle_sol.i_prime)}")
    return apply_safety(problem, safety_sol)


def _verify_solution(cfg, problem, label: str, solution) -> list:
    """Failures found by checking one solve against brute force and the cut bound."""
    failures = []
    if cfg.node_count <= VERIFY_MAX_NODES:
        oracle_sol = brute_lospre(cfg, problem)
        if (oracle_sol.cost, oracle_sol.life_set) != (solution.cost, solution.life_set):
            failures.append(
                f"optimality mismatch for {label}: "
                f"cost {solution.cost} vs oracle {oracle_sol.cost}")
    calcs = len(solution.calc_set)
    cut = min_calc_count(cfg, problem, calcs + 1)
    if cut > calcs or (cut < calcs and _unit_costs(cfg)):
        failures.append(
            f"certificate mismatch for {label}: "
            f"minimum cut {cut} vs {calcs} calculations")
    return failures


def _report(failures: list) -> int:
    for msg in failures:
        sys.stderr.write(msg + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def _decomposition(cfg, td, step, max_width: int):
    """A decomposition of ``cfg``: the last pass's ``td`` patched through
    ``step``, or, without a step or when the patch is wider than
    ``max_width``, a fresh one."""
    if step is not None:
        patched = subdivide(cfg, td, step.node_map, step.inserted)
        if patched.width <= max_width:
            return patched
    return decompose(cfg)


def _carries(verdict, problem, node_map) -> bool:
    """Whether ``problem`` has the use and invalidation sets of ``verdict``,
    the last pass's (use, invalidation) pair, mapped through ``node_map``."""
    use, inv = verdict
    return ({node_map[v] for v in use} == problem.use_set and
            {node_map[v] for v in inv} == problem.invalidation_set)


def run_pipeline(program, config: RunConfig) -> PipelineResult:
    """Eliminate candidates to fixpoint.

    Each pass re-derives candidates on the current program and applies the
    first one whose solution uses fewer calculations than it has
    occurrences; a rewrite strictly reduces the static computation count,
    which bounds the number of passes.  Safety routing follows the config:
    auto enlarges the invalidation set for loads and divisions.  When every
    cost of the pass's graph is finite, a candidate with one occurrence, or
    whose minimum cut (``min_calc_count``) reaches its occurrence count,
    cannot gain under any costs and is not solved (--verify solves it, and
    records a verdict mismatch if it gains); otherwise every candidate is
    solved, so an infeasible one fails.

    A run decomposes once: the first pass that solves decomposes its graph,
    and a later pass that solves patches that decomposition through the
    rewrite in between (``treedec.subdivide``).  A "cannot gain" verdict
    carries to the next pass, which skips safety and the cut, when the
    candidate's key comes back with derived use and invalidation sets equal
    to the verdict's mapped through the rewrite: every new node then lies
    outside both sets, and subdividing an edge with such a node keeps the
    minimum cut, enlarged or not.  A pass whose graph is not the last one
    subdivided (a fake edge moved) decomposes afresh and carries nothing.
    A patch wider than --max-width gives way to a fresh decomposition
    before the width guard (exit 3) refuses.
    """
    applied = []
    verify_failures = []
    passes = 0
    pass_limit = 2 * len(program.instructions) + 8
    td = None                    # decomposition of the last pass that solved
    last_cfg = last_step = None  # graph and rewrite of the last pass
    verdicts = {}                # candidate key -> (use, invalidation) that cannot gain
    while passes < pass_limit:
        passes += 1
        cfg = irmod.build_cfg(program)
        step = None
        if last_step is not None and last_step.subdivided_edges(last_cfg) == cfg.edges:
            step = last_step
        nice = None  # decomposed when the pass first solves
        certify = cfg.has_finite_costs()
        carried, verdicts = (verdicts if certify and step is not None else {}), {}
        safety_oracle = _safety_oracle(cfg) if config.verify else None
        chosen = None
        for candidate, problem in irmod.derive_problems(program, cfg):
            occurrences = len(candidate.occurrence_nodes)
            key = (candidate.op, candidate.left, candidate.right)
            derived = (problem.use_set, problem.invalidation_set)
            # a reachable use forces at least one calculation edge, so a
            # single occurrence can never shrink
            cannot_gain = certify and occurrences < 2
            if not cannot_gain and key in carried and _carries(carried[key], problem, step.node_map):
                verdicts[key] = derived
                cannot_gain = True
            if cannot_gain and not config.verify:
                continue
            wants_safety = (config.safety == "always" or
                            (config.safety == "auto" and candidate.safety_required))
            if wants_safety:
                problem = _enlarge(cfg, problem, candidate.display(), safety_oracle,
                                   verify_failures)
            if not cannot_gain and certify and \
                    min_calc_count(cfg, problem, occurrences) >= occurrences:
                # every life set has at least as many calculation edges as
                # there are occurrences, the optimum included
                verdicts[key] = derived
                if not config.verify:
                    continue
                cannot_gain = True
            if nice is None:
                td = _decomposition(cfg, td, step, config.max_width)
                nice = _nice_within(td, config)
            solution = solve(cfg, problem, nice, max_width=config.max_width)
            if config.verify:
                verify_failures.extend(
                    _verify_solution(cfg, problem, candidate.display(), solution))
            if len(solution.calc_set) < occurrences:
                if not cannot_gain:
                    chosen = (candidate, solution)
                    break
                # only --verify solves a candidate that cannot gain
                verify_failures.append(f"verdict mismatch for {candidate.display()}: "
                                       f"{len(solution.calc_set)} calculations")
        if chosen is None:
            break
        candidate, solution = chosen
        applied.append((candidate, solution))
        last_cfg, last_step = cfg, irmod.rewrite(program, cfg, candidate, solution)
        program = irmod.copy_propagate(last_step.program)
    return PipelineResult(program=program, applied=applied, passes=passes,
                          verify_failures=verify_failures)


def cmd_run(config: RunConfig, path: Path) -> int:
    program = irmod.parse_ir(path.read_text())
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
    return _report(result.verify_failures)


def cmd_graph(config: RunConfig, path: Path) -> int:
    cfg, problems = load_cfg(path.read_text())
    nice = _nice_within(decompose(cfg), config)
    safety_oracle = _safety_oracle(cfg) if config.verify else None
    failures = []
    solutions = []
    for k, problem in enumerate(problems):
        label = f"problem {k}"
        if config.safety == "always":
            problem = _enlarge(cfg, problem, label, safety_oracle, failures)
        solution = solve(cfg, problem, nice, max_width=config.max_width)
        if config.verify:
            failures.extend(_verify_solution(cfg, problem, label, solution))
        solutions.append(solution)
    text = "".join(format_solution(solution, index=k) for k, solution in enumerate(solutions))
    sys.stdout.write(text)
    stem = path.stem
    if "solution" in config.emit:
        _emit(config, f"{stem}.solution", text)
    if "dot" in config.emit:
        for k, (problem, solution) in enumerate(zip(problems, solutions)):
            _emit(config, f"{stem}.{k}.dot", dump_dot(cfg, problem, solution))
    return _report(failures)


def cmd_decompose(config: RunConfig, path: Path) -> int:
    text = path.read_text()
    if path.suffix == ".ir":
        cfg = irmod.build_cfg(irmod.parse_ir(text))
    else:
        cfg, _ = load_cfg(text)
    td = decompose(cfg)
    nice = _nice_within(td, config)
    sys.stdout.write(f"nodes={cfg.node_count} bags={len(td.bags)} width={td.width} "
                     f"nice_nodes={nice.node_count}\n")
    for i, bag in enumerate(td.bags):
        sys.stdout.write(f"bag {i}: {' '.join(str(v) for v in sorted(bag))}\n")
    if "dot" in config.emit:
        _emit(config, f"{path.stem}.treedec.dot", dump_dot_treedec(td))
    return EXIT_OK


def cmd_safety(config: RunConfig, path: Path) -> int:
    if path.suffix == ".ir":
        program = irmod.parse_ir(path.read_text())
        cfg = irmod.build_cfg(program)
        pairs = [(f"candidate {candidate.display()}", problem)
                 for candidate, problem in irmod.derive_problems(program, cfg)
                 if candidate.safety_required or config.safety == "always"]
    elif config.safety == "always":
        # graph files carry no "safety required" mark: auto already enlarges every problem
        sys.stderr.write("error: --safety always needs IR input; "
                         "on a graph file every problem is enlarged\n")
        return EXIT_PARSE
    else:
        cfg, problems = load_cfg(path.read_text())
        pairs = [(f"problem {k}", problem) for k, problem in enumerate(problems)]
    for header, problem in pairs:
        sol = solve_safety(cfg, problem)
        sys.stdout.write(f"{header}\n"
                         f"i_prime {' '.join(map(str, sorted(sol.i_prime)))}\n"
                         f"added {' '.join(map(str, sorted(sol.added)))}\n")
    return EXIT_OK


def seed_range(text: str) -> range:
    """``--seeds A..B`` (or one seed A) as a non-empty range of seeds."""
    first, _, last = text.partition("..")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}: A > B")
    return seeds


def cmd_oracle_check(checked: range, size: int, style: str) -> int:
    failed = 0
    for seed in checked:
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, size), style=style))
        nice = make_nice(decompose(cfg))
        solution = solve(cfg, problem, nice)
        reference = brute_lospre(cfg, problem)
        ok = (solution.cost, solution.life_set) == (reference.cost, reference.life_set)
        if ok and cfg.node_count <= BRUTE_SAFETY_MAX_NODES:
            ok = solve_safety(cfg, problem).i_prime == brute_safety(cfg, problem).i_prime
        failed += not ok
        sys.stdout.write(f"seed {seed} {'ok' if ok else 'FAIL'}\n")
    sys.stdout.write(f"checked {len(checked)} failed {failed}\n")
    return EXIT_VERIFY if failed else EXIT_OK


_OPTIONS = {
    "--safety": dict(),
    "--max-width": dict(type=int, default=16),
    "--emit": dict(default=""),
    "--verify": dict(action="store_true"),
    "--out-dir": dict(type=Path, default=Path(".")),
    "--seeds": dict(type=seed_range, default="0..99"),
    "--size": dict(type=int, choices=range(4, BRUTE_LOSPRE_MAX_NODES + 1),
                   metavar=f"4..{BRUTE_LOSPRE_MAX_NODES}", default=10),
    "--style": dict(choices=STYLES, default="random-sparse"),
}

# --safety values per subcommand, the default first: graph files carry no
# "safety required" mark, so graph has no auto; safety selects which
# candidates to print, and never would print what auto prints
_SAFETY = {"run": ("auto", "always", "never"), "graph": ("never", "always"),
           "safety": ("auto", "always")}

# subcommand: (help, takes an input file, its options, the artifacts --emit may name)
_COMMANDS = {
    "run": ("IR pipeline: derive, solve, rewrite to fixpoint", True,
            ("--safety", "--max-width", "--emit", "--verify", "--out-dir"),
            ("dot", "solution", "stats", "rewritten-ir")),
    "graph": ("solve every problem in a graph file", True,
              ("--safety", "--max-width", "--emit", "--verify", "--out-dir"),
              ("dot", "solution")),
    "decompose": ("report the tree-decomposition", True,
                  ("--max-width", "--emit", "--out-dir"), ("dot",)),
    "safety": ("print enlarged invalidation sets", True, ("--safety",), ()),
    "oracle-check": ("batch compare solver against brute force", False,
                     ("--seeds", "--size", "--style"), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lospre",
                                     description="speculative redundancy elimination "
                                                 "on bounded-treewidth control-flow graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, takes_input, options, artifacts) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if takes_input:
            p.add_argument("input", type=Path)
        for option in options:
            spec = dict(_OPTIONS[option])
            if option == "--emit":
                spec["help"] = "comma list: " + ",".join(artifacts)
            elif option == "--safety":
                spec.update(choices=_SAFETY[command], default=_SAFETY[command][0])
            p.add_argument(option, **spec)
    return parser


def _config_from(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if "emit" in given:
        emit = {t for t in args.emit.split(",") if t}
        unknown = emit - set(_COMMANDS[args.command][3])
        if unknown:
            raise LospreError(f"unknown --emit values: {sorted(unknown)}")
        given["emit"] = emit
    return RunConfig(**given)


_DISPATCH = {
    "run": lambda args: cmd_run(_config_from(args), args.input),
    "graph": lambda args: cmd_graph(_config_from(args), args.input),
    "decompose": lambda args: cmd_decompose(_config_from(args), args.input),
    "safety": lambda args: cmd_safety(_config_from(args), args.input),
    "oracle-check": lambda args: cmd_oracle_check(args.seeds, args.size, args.style),
}

# checked in order, so a subclass precedes its base
_EXIT_CODES = ((GraphFormatError, EXIT_PARSE), (IrParseError, EXIT_PARSE),
               (WidthExceededError, EXIT_WIDTH), (LospreError, EXIT_ERROR),
               (FileNotFoundError, EXIT_PARSE))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
