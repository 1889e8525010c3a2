"""Command-line front-end.

Subcommands: run (IR pipeline), graph (solve problems from a graph file),
decompose, safety, oracle-check; each takes only the options it reads, and
only values they can take.  --max-width guards one thing: the width of a
use region about to be solved (``_region_solve``), in run and in graph.
Exit codes: 0 success, 2 usage error or unreadable, malformed or unwritable
input or output, 3 width guard exceeded, 4 verification mismatch, 1 else.
Emitted artifacts are byte-identical across runs for identical inputs and
flags; --verify checks the plain run's decisions and takes none of its
own, so it only ever changes the exit status and stderr.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import ir as irmod
from .cfg import (DEFAULT_EDGE_COST, Cfg, calc_set, dump_dot, load_cfg,
                  make_problem, min_calc_count, use_region)
from .cost import ZERO, CostVec, sum_costs
from .dp import format_solution, solve
from .errors import InputFormatError, LospreError, NoFeasibleSolutionError, WidthExceededError
from .oracle import (BRUTE_LOSPRE_MAX_NODES, STYLES, InstanceGenerator, brute_lospre,
                     brute_safety, generate)
from .safety import apply_safety, solve_safety
from .treedec import decompose, dump_dot_treedec, make_nice

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


def _too_wide(width: int, config: RunConfig) -> WidthExceededError:
    return WidthExceededError(f"decomposition width {width} exceeds --max-width {config.max_width}")


@dataclass
class PipelineResult:
    """What ``run_pipeline`` did, with the graph its last pass used."""
    program: object
    cfg: Cfg                # the input's graph with every rewrite subdivided, in run ids
    applied: list           # (candidate, solution) pairs, in application order, in run ids
    orders: list            # the order of each applied pair's pass graph
    passes: int
    verify_failures: list


def _unit_costs(cfg) -> bool:
    """Every edge costs [1,0] and every node cost has primary 0: the cut is the optimum."""
    return all(c == DEFAULT_EDGE_COST for c in cfg.edge_cost.values()) and \
        all(not c.infinite and c.primary == 0 for c in cfg.node_cost.values())


def _enlarge(cfg, problem, label: str, failures=None):
    """The problem with its safety-enlarged invalidation set.  When ``failures``
    is a list (under --verify, and in oracle-check), the set is checked
    against ``brute_safety`` and a mismatch is appended to it."""
    safety_sol = solve_safety(cfg, problem)
    if failures is not None:
        oracle_sol = brute_safety(cfg, problem)
        if oracle_sol.i_prime != safety_sol.i_prime:
            failures.append(
                f"safety mismatch for {label}: "
                f"{sorted(safety_sol.i_prime)} vs oracle {sorted(oracle_sol.i_prime)}")
    return apply_safety(problem, safety_sol)


def _verify_solution(cfg, problem, region, label: str, solution) -> list:
    """Failures found by checking one solve against brute force and the cut
    bound; ``region`` is the problem's use region."""
    failures = []
    if cfg.node_count <= VERIFY_MAX_NODES:
        oracle_sol = brute_lospre(cfg, problem)
        if (oracle_sol.cost, oracle_sol.life_set) != (solution.cost, solution.life_set):
            failures.append(
                f"optimality mismatch for {label}: "
                f"cost {solution.cost} vs oracle {oracle_sol.cost}")
    calcs = len(solution.calc_set)
    cut = min_calc_count(cfg, problem, region, calcs + 1)
    if cut > calcs or (cut < calcs and _unit_costs(cfg)):
        failures.append(
            f"certificate mismatch for {label}: "
            f"minimum cut {cut} vs {calcs} calculations")
    return failures


def _report(failures: list) -> int:
    for msg in failures:
        sys.stderr.write(msg + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def _use_region(cfg, problem, region):
    """The problem on its use region B, with each chain of B made one edge:
    ``(region cfg, its problem, kept, constant, chains)``.

    B is ``region``, ``use_region(cfg, problem)``: the uses and every node
    that reaches one without passing an invalidating node.  It is every node
    instead when a node cost is below [0,0] (``Cfg`` refuses such edge
    costs).  With costs of at least [0,0] the least optimal life set lies in
    B, so an edge leaving B is never a calculation edge.  An edge entering
    B comes from an invalidating node: into a use it is a calculation edge
    under every life set, and its cost joins ``constant``; else its cost
    joins its head's node cost.

    Only when the region is B, a chain is a maximal run x1..xk, k > 1, of
    nodes of B with one predecessor and one successor in B, neither itself,
    and no use.  Its least optimal part is dead unless its successor y is a
    use or live, and else live from some xj on: at best A, the least over j
    of c(x(j-1), xj) plus the node costs from xj on (x0 is its predecessor
    p, and j = k+1 computes on (xk, y)), or C = min(A, all its node costs)
    when p is live and valid.  So it costs A when y needs the value and p
    does not hold it, C when p does, and 0 when y does not need it: it is
    the edge (p, y), a self-loop when p is y, costing A - C and added to
    any edge p -> y, with C in ``constant`` when y is a use and on y's node
    cost else.  The optimal life sets are closed under intersection, so the
    region's least one is B's without the chains.  ``chains`` holds (p, y,
    nodes, j when p is live and valid, j else) per chain, j the index in
    ``nodes`` of its first live node when y is a use or live.

    Region node i is ``kept[i]``, in ``cfg``'s id order.  A node of B with
    no predecessor in B gets a zero-cost self-loop, and the region's source
    is one more node, isolated.
    """
    use, inv = problem.use_set, problem.invalidation_set
    whole = any(c.primary < 0 or c.primary == 0 and c.secondary < 0 for c in cfg.node_cost.values())
    inside = range(cfg.node_count) if whole else region
    edge_cost, node_cost, preds, succ, constant = cfg.edge_cost, {}, {}, {}, ZERO
    for v in inside if whole else sorted(inside):
        node_cost[v], preds[v] = cfg.node_cost[v], []
        for p in cfg.pred[v]:
            if p in inside:
                preds[v].append(p)
            elif v in use:
                constant = constant + edge_cost[(p, v)]
            else:
                node_cost[v] = node_cost[v] + edge_cost[(p, v)]
        # a node of B that is not a use reaches one, so it is not its own only successor
        if len(preds[v]) == 1 and v not in use and not whole:
            out = [w for w in cfg.succ[v] if w in inside]
            if len(out) == 1:
                succ[v] = out[0]
    chain = {v: y for v, y in succ.items() if y in succ or preds[v][0] in succ}
    kept = [v for v in preds if v not in chain]
    index = {v: i for i, v in enumerate(kept)}
    edges, costs, chains = {}, {i: node_cost[v] for i, v in enumerate(kept)}, []
    for i, v in enumerate(kept):
        for p in preds[v]:
            if p not in chain:
                edges[(index[p], i)] = edge_cost[(p, v)]
        if not preds[v]:
            edges[(i, i)] = ZERO
    for x, y in chain.items():
        p, nodes = preds[x][0], [x]
        if p in chain:
            continue
        while y in chain:
            nodes.append(y)
            y = chain[y]
        # costs as (infinite, primary, secondary), summed from xk back to x1
        e = edge_cost[(nodes[-1], y)]
        best, j, total = (e.infinite, e.primary, e.secondary), len(nodes), (False, 0, 0)
        for i in range(len(nodes) - 1, -1, -1):
            c, e = node_cost[nodes[i]], edge_cost[(nodes[i - 1] if i else p, nodes[i])]
            total = (total[0] or c.infinite, total[1] + c.primary, total[2] + c.secondary)
            into = (total[0] or e.infinite, total[1] + e.primary, total[2] + e.secondary)
            if i and into < best:
                best, j = into, i
        a, unavailable = (into, 0) if into < best else (best, j)
        c, available = (total, 0) if total < best else (best, j)
        edge, cost = (index[p], index[y]), CostVec(a[1] - c[1], a[2] - c[2], a[0])
        edges[edge] = edges[edge] + cost if edge in edges else cost  # infinite when A is
        cost = CostVec(c[1], c[2], c[0])
        if y in use:
            constant = constant + cost
        else:
            costs[index[y]] = costs[index[y]] + cost
        chains.append((p, y, nodes, available, unavailable))
    region_cfg = Cfg(len(kept) + 1, edges, edges, costs)
    region_problem = make_problem(region_cfg, [index[u] for u in use],
                                  [i for i, v in enumerate(kept) if v in inv])
    return region_cfg, region_problem, kept, constant, chains


def _lift(cfg, problem, life, constant, part):
    """``part``, a solution of the region problem, as one of ``problem`` on
    ``cfg`` with ``life``, the life set it stands for in ``cfg`` ids: the
    calculation set and cost recomputed, the cost summed over that one
    calculation set, which must equal ``part``'s plus ``constant``."""
    life = frozenset(life)
    calcs = calc_set(cfg, problem, life)
    cost = sum_costs([cfg.edge_cost[e] for e in calcs] + [cfg.node_cost[v] for v in life])
    if cost.infinite:
        # an infinite edge from an invalidating node into a use
        raise NoFeasibleSolutionError("no feasible solution: all assignments have infinite cost")
    if cost != part.cost + constant:
        raise LospreError("internal error: region cost disagrees with recomputed objective")
    return replace(part, life_set=life, calc_set=calcs, cost=cost)


def _region_solve(cfg, problem, region, max_width: int):
    """``(solution, width)``: ``problem`` solved on its contracted use region
    (``_use_region`` of ``region``), each chain completed by the states of
    its ends, and lifted to ``cfg`` (``_lift``), and the width of the
    region's nice decomposition; the solution is None when that width is
    above ``max_width``, and nothing is solved then."""
    region_cfg, region_problem, kept, constant, chains = _use_region(cfg, problem, region)
    nice = make_nice(decompose(region_cfg))
    if nice.width > max_width:
        return None, nice.width
    part = solve(region_cfg, region_problem, nice, max_width=max_width)
    life = {kept[i] for i in part.life_set if i < len(kept)}
    for p, y, nodes, available, unavailable in chains:
        if y in problem.use_set or y in life:
            valid = p in life and p not in problem.invalidation_set
            life.update(nodes[available if valid else unavailable:])
    return _lift(cfg, problem, life, constant, part), nice.width


def _wants_safety(config: RunConfig, candidate) -> bool:
    """Whether --safety enlarges ``candidate``: always, or on auto for loads and divisions."""
    return config.safety == "always" or config.safety == "auto" and candidate.safety_required


def _verify_pass(cfg, derived, chosen, config: RunConfig, failures: list) -> None:
    """Under --verify, re-check one pass of ``run_pipeline`` after it has
    decided, deciding nothing: ``derived`` is its derivation on ``cfg`` and
    ``chosen`` the (candidate, solution) it applies, or None.  Each candidate
    up to the applied one, or every one when none was applied, is enlarged
    and checked against ``brute_safety`` where --safety asks, solved by
    ``_region_solve`` and checked by ``_verify_solution``; above the plain
    run's --max-width, brute force checks it on at most VERIFY_MAX_NODES
    nodes, and stderr calls it "unchecked" on more.  One that gains but was
    not applied is a verdict mismatch.  Failures go to ``failures``."""
    if not config.verify:
        return
    for k, candidate in enumerate(derived.candidates):
        label, problem = candidate.display(), derived[k][1]
        if _wants_safety(config, candidate):
            problem = _enlarge(cfg, problem, label, failures)
        region = use_region(cfg, problem)
        solution, width = _region_solve(cfg, problem, region, config.max_width)
        if solution is not None:
            failures.extend(_verify_solution(cfg, problem, region, label, solution))
        elif cfg.node_count <= VERIFY_MAX_NODES:
            solution = brute_lospre(cfg, problem)
        else:
            sys.stderr.write(f"unchecked: width {width} > --max-width "
                             f"{config.max_width} for {label}\n")
        if chosen is not None and candidate is chosen[0]:
            return
        if solution is not None and len(solution.calc_set) < len(candidate.occurrence_nodes):
            failures.append(f"verdict mismatch for {label}: "
                            f"{len(solution.calc_set)} calculations")


def _carried(verdicts: set, touched: set, loaded: set) -> set:
    """The keys of ``verdicts``, the last pass's "cannot gain" verdicts, that
    carry to this pass: not ``touched`` and with no operand in ``loaded``.

    ``touched`` holds the key the last pass applied and every key that copy
    propagation took from or gave to an instruction; ``loaded`` holds the
    last pass's load results when it applied a load, and is empty
    otherwise.  Any other candidate has the use and invalidation sets it
    had, node for node (a rewrite keeps every id): a rewrite defines only a
    fresh temporary, which no key of the last pass names, moves no store,
    and moves a load only when it applies one; copy propagation changes
    reads only.
    """
    return {key for key in verdicts
            if key not in touched and key[1] not in loaded and key[2] not in loaded}


def run_pipeline(program, config: RunConfig) -> PipelineResult:
    """Eliminate candidates to fixpoint.

    Each pass re-derives candidates on the current program and applies the
    first one whose solution uses fewer calculations than it has
    occurrences; a rewrite strictly reduces the static computation count,
    which bounds the number of passes, so a run that reaches the bound
    without a pass that applies nothing is an internal error.  Safety
    routing follows the config: auto enlarges the invalidation set for
    loads and divisions.  When every
    cost of the input graph is finite, a candidate with one occurrence, or
    whose minimum cut (``min_calc_count``) reaches its occurrence count,
    cannot gain under any costs and is not solved; otherwise every
    candidate is solved, so an infeasible one fails.  Enlarging only raises
    the cut, so the plain problem is cut first, and only a candidate whose
    plain cut is below its occurrence count is enlarged and cut again.  The
    input graph decides this for the whole run: a rewrite drops the
    ``!edgecost`` override only of a calculation edge, which is finite, and
    costs the edges and nodes it adds by the directives' defaults, which
    already cost the source edge and the source node, so no rewrite changes
    whether every cost is finite.  Each solve goes through ``_region_solve``, and
    the width guard (exit 3) reads the width of the region it solves.  Each
    cut walks its problem's use region B once, and the solve builds its
    region from the B of the candidate's last cut.

    A "cannot gain" verdict carries to the next pass, which skips the
    candidate before building its problem, when ``_carried`` finds that the
    last pass left the candidate's use and invalidation sets as they were,
    node for node: its key is not the one applied, copy propagation
    neither took it from an instruction nor gave it to one, and, when a
    load was applied, no operand is one of that pass's load results.  Every
    new node then lies outside both sets, and subdividing an edge with such
    a node keeps the minimum cut, enlarged or not.  So only the first pass
    calls ``build_cfg``; each later one takes the graph
    the last rewrite returned (``Rewrite.cfg``), whose fake edges and source
    edges are those of the input, and the result keeps the last graph.
    Node ids are fixed for the run: the input's keep theirs and each
    rewrite numbers its new nodes after the highest, so a pass graph's
    ``order`` maps its program's positions to ids.  ``applied`` names each
    solution's nodes by run id, and ``orders`` keeps its pass's order (a
    tuple no later pass changes), from which an artifact renames it to
    positions (``ir.positional_solution``).
    Copy propagation runs on the pass's graph, and a candidate's problem is
    built only when the pass looks past its occurrence count.

    The candidate loop decides alone.  Once a pass has decided,
    ``_verify_pass`` re-checks it under --verify and changes nothing but
    ``verify_failures`` and stderr; a pass the width guard stops is not
    re-checked.
    """
    applied, orders = [], []
    verify_failures = []
    pass_limit = 2 * len(program.instructions) + 8
    cfg = irmod.build_cfg(program)
    tmp_names = irmod.tmp_names(program)
    certify = cfg.has_finite_costs()
    verdicts = set()  # keys of the candidates that cannot gain; empty unless certify
    touched = loaded = ()  # what the last pass changed, for _carried
    for passes in range(1, pass_limit + 1):
        chosen = None
        derived = irmod.derive_problems(program, cfg)
        carried = _carried(verdicts, touched, loaded) if verdicts else ()
        verdicts = set()
        for k, candidate in enumerate(derived.candidates):
            occurrences = len(candidate.occurrence_nodes)
            # a reachable use forces at least one calculation edge, so a
            # single occurrence can never shrink
            if certify and occurrences < 2:
                continue
            key = (candidate.op, candidate.left, candidate.right)
            if key in carried:
                verdicts.add(key)
                continue
            # every life set has at least as many calculation edges as the
            # minimum cut, the optimum included, enlarged or not
            problem = derived[k][1]
            region = use_region(cfg, problem)
            stuck = certify and min_calc_count(cfg, problem, region, occurrences) >= occurrences
            if not stuck and _wants_safety(config, candidate):
                problem = _enlarge(cfg, problem, candidate.display())
                region = use_region(cfg, problem)
                stuck = certify and min_calc_count(cfg, problem, region, occurrences) >= occurrences
            if stuck:
                verdicts.add(key)
                continue
            # the solve builds its region from the B the last cut walked
            solution, width = _region_solve(cfg, problem, region, config.max_width)
            if solution is None:
                raise _too_wide(width, config)
            if len(solution.calc_set) < occurrences:
                chosen = (candidate, solution)
                break
        _verify_pass(cfg, derived, chosen, config, verify_failures)
        if chosen is None:
            break
        candidate, solution = chosen
        applied.append(chosen)
        orders.append(cfg.order)
        step = irmod.rewrite(program, cfg, candidate, solution, next(tmp_names))
        program, cfg = step.program, step.cfg
        rewritten = program.instructions
        program = irmod.copy_propagate(program, cfg)
        # copy propagation replaces each instruction it changes
        changed = ((old, new) for old, new in zip(rewritten, program.instructions)
                   if old is not new)
        touched = {(candidate.op, candidate.left, candidate.right)}
        touched.update(irmod.candidate_key(ins) for pair in changed for ins in pair)
        loaded = derived.load_results if candidate.op == "load" else ()
    else:
        raise LospreError(f"internal error: no fixpoint after {pass_limit} passes")
    return PipelineResult(program=program, cfg=cfg, applied=applied, orders=orders,
                          passes=passes, verify_failures=verify_failures)


def _read(path: Path) -> str:
    """The text of an input file; one that is not UTF-8 is an input error that names it."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def cmd_run(config: RunConfig, path: Path, text: str) -> int:
    program = irmod.parse_ir(text)
    result = run_pipeline(program, config)

    lines = []
    total = 0
    for candidate, solution in result.applied:
        uses, calcs = len(candidate.occurrence_nodes), len(solution.calc_set)
        lines.append(f"candidate {candidate.display()} uses={uses} calcs={calcs} "
                     f"eliminated={uses - calcs}")
        total += uses - calcs
    lines.append(f"total eliminated={total}")
    lines.append(f"passes={result.passes}")
    stats_text = "\n".join(lines) + "\n"
    sys.stdout.write(stats_text)

    stem = path.stem
    if "stats" in config.emit:
        _emit(config, f"{stem}.stats", stats_text)
    if "rewritten-ir" in config.emit:
        _emit(config, f"{stem}.out.ir", irmod.format_ir(result.program))
    if "dot" in config.emit:
        _emit(config, f"{stem}.dot", dump_dot(irmod.positional(result.cfg)))
    if "solution" in config.emit:
        text = "".join(format_solution(irmod.positional_solution(result.cfg, order, sol), index=k)
                       for k, ((_, sol), order) in enumerate(zip(result.applied, result.orders)))
        _emit(config, f"{stem}.solution", text)
    return _report(result.verify_failures)


def cmd_graph(config: RunConfig, path: Path, text: str) -> int:
    cfg, problems = load_cfg(text)
    failures, solutions = [], []
    for k, problem in enumerate(problems):
        label = f"problem {k}"
        if config.safety == "always":
            problem = _enlarge(cfg, problem, label, failures if config.verify else None)
        region = use_region(cfg, problem)
        solution, width = _region_solve(cfg, problem, region, config.max_width)
        if solution is None:
            raise _too_wide(width, config)
        if config.verify:
            failures.extend(_verify_solution(cfg, problem, region, label, solution))
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


def cmd_decompose(config: RunConfig, path: Path, text: str) -> int:
    if path.suffix == ".ir":
        cfg = irmod.build_cfg(irmod.parse_ir(text))
    else:
        cfg, _ = load_cfg(text)
    td = decompose(cfg)
    nice = make_nice(td)
    sys.stdout.write(f"nodes={cfg.node_count} bags={len(td.bags)} width={td.width} "
                     f"nice_nodes={nice.node_count}\n")
    for i, bag in enumerate(td.bags):
        sys.stdout.write(f"bag {i}: {' '.join(str(v) for v in sorted(bag))}\n")
    if "dot" in config.emit:
        _emit(config, f"{path.stem}.treedec.dot", dump_dot_treedec(td))
    return EXIT_OK


def cmd_safety(config: RunConfig, path: Path, text: str) -> int:
    if path.suffix == ".ir":
        program = irmod.parse_ir(text)
        cfg = irmod.build_cfg(program)
        pairs = [(f"candidate {candidate.display()}", problem)
                 for candidate, problem in irmod.derive_problems(program, cfg)
                 if _wants_safety(config, candidate)]
    elif config.safety == "always":
        # graph files carry no "safety required" mark: auto already enlarges every problem
        sys.stderr.write("error: --safety always needs IR input; "
                         "on a graph file every problem is enlarged\n")
        return EXIT_PARSE
    else:
        cfg, problems = load_cfg(text)
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


def width_guard(text: str) -> int:
    """``--max-width W``: a width of at least 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"negative width {text}")
    return int(text)


def artifacts(allowed):
    """The ``--emit`` type of a subcommand: a comma list of names from ``allowed``."""
    def parse(text: str) -> set:
        emit = {t for t in text.split(",") if t}
        unknown = emit - set(allowed)
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown artifacts {sorted(unknown)}, "
                                             f"choose from {','.join(allowed)}")
        return emit
    return parse


def cmd_oracle_check(checked: range, size: int, style: str) -> int:
    failed = 0
    for seed in checked:
        cfg, problem = generate(InstanceGenerator(seed=seed, node_range=(4, size), style=style))
        nice = make_nice(decompose(cfg))
        solution = solve(cfg, problem, nice)
        reference = brute_lospre(cfg, problem)
        failures = []
        _enlarge(cfg, problem, f"seed {seed}", failures)
        ok = (solution.cost, solution.life_set) == (reference.cost, reference.life_set) and \
            not failures
        failed += not ok
        sys.stdout.write(f"seed {seed} {'ok' if ok else 'FAIL'}\n")
    sys.stdout.write(f"checked {len(checked)} failed {failed}\n")
    return EXIT_VERIFY if failed else EXIT_OK


_OPTIONS = {
    "--safety": dict(),
    "--max-width": dict(type=width_guard, default=RunConfig.max_width),
    "--emit": dict(default=""),
    "--verify": dict(action="store_true"),
    "--out-dir": dict(type=Path, default=RunConfig.out_dir),
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
                  ("--emit", "--out-dir"), ("dot",)),
    "safety": ("print enlarged invalidation sets", True, ("--safety",), ()),
    "oracle-check": ("batch compare solver against brute force", False,
                     ("--seeds", "--size", "--style"), ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lospre",
                                     description="speculative redundancy elimination "
                                                 "on bounded-treewidth control-flow graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, takes_input, options, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if takes_input:
            p.add_argument("input", type=Path)
        for option in options:
            spec = dict(_OPTIONS[option])
            if option == "--emit":
                spec.update(type=artifacts(names), help="comma list: " + ",".join(names))
            elif option == "--safety":
                spec.update(choices=_SAFETY[command], default=_SAFETY[command][0])
            p.add_argument(option, **spec)
    return parser


_DISPATCH = {"run": cmd_run, "graph": cmd_graph, "decompose": cmd_decompose, "safety": cmd_safety}

# checked in order, so a subclass precedes its base
_EXIT_CODES = ((InputFormatError, EXIT_PARSE), (WidthExceededError, EXIT_WIDTH),
               (LospreError, EXIT_ERROR), (OSError, EXIT_PARSE))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            return cmd_oracle_check(args.seeds, args.size, args.style)
        config = RunConfig(**{f.name: getattr(args, f.name)
                              for f in fields(RunConfig) if hasattr(args, f.name)})
        return _DISPATCH[args.command](config, args.input, _read(args.input))
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
