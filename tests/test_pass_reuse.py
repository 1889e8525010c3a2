"""Each `run` pass reuses the last one: the patched graph, problems built on
demand, copy propagation stopped at its fixpoint, the cut on the use region
and verdicts carried without a problem give exactly what the whole-program
constructions give.  Node ids are fixed for a run, so a reference that
compares two passes compares ids as they are, and one that compares with
``build_cfg`` renames the pass graph through its order (``positional``)."""
import warnings
from dataclasses import replace

import pytest

import lospre.cli as cli
import lospre.ir as irmod
from lospre.cfg import make_problem, use_region
from lospre.cli import RunConfig, run_pipeline
from lospre.cost import CostVec
from lospre.dp import LospreSolution
from lospre.errors import NoFeasibleSolutionError
from lospre.interp import equivalent_states, interpret
from lospre.ir import (ASSIGN, BINOP, BRANCH, JUMP, LOAD, RET, STORE, UnreachableCodeWarning,
                       build_cfg, candidate_key, copy_propagate, derive_problems, format_ir,
                       parse_ir, positional, positions, rewrite)
from lospre.oracle import generate_program_text
from test_pipeline_frozen import cases, cost_variant


def reference_copy_propagate(program):
    """Copy propagation as whole-program rounds until a round changes
    nothing, on successors computed from the instructions (the entry has no
    predecessor).  The library stops a round earlier and runs on the graph."""
    instructions = list(program.instructions)
    n = len(instructions)
    labels = {ins.label: i for i, ins in enumerate(instructions) if ins.label}
    succ = []
    for i, ins in enumerate(instructions):
        outs = {RET: [], JUMP: [labels.get(ins.target)],
                BRANCH: [i + 1, labels.get(ins.target)]}.get(ins.kind, [i + 1])
        succ.append(sorted({o for o in outs if o is not None and o < n}))
    preds = [[] for _ in range(n)]
    for i, outs in enumerate(succ):
        for o in outs:
            preds[o].append(i)
    changed = True
    while changed:
        changed = False
        pair_id = {}
        for ins in instructions:
            if ins.kind == ASSIGN and ins.dest != ins.left:
                pair_id.setdefault((ins.dest, ins.left), len(pair_id))
        if not pair_id:
            break
        copies = list(pair_id)
        all_mask = (1 << len(copies)) - 1
        dest_mask, touch_mask = {}, {}
        for c, (dest, src) in enumerate(copies):
            dest_mask[dest] = dest_mask.get(dest, 0) | 1 << c
            touch_mask[dest] = touch_mask.get(dest, 0) | 1 << c
            touch_mask[src] = touch_mask.get(src, 0) | 1 << c
        gen, kill = [0] * n, [0] * n
        for i, ins in enumerate(instructions):
            if ins.dest is not None:
                kill[i] = touch_mask.get(ins.dest, 0)
                if ins.kind == ASSIGN and ins.dest != ins.left:
                    gen[i] = 1 << pair_id[(ins.dest, ins.left)]
        out_sets, in_sets = [all_mask] * n, [0] * n
        work = list(range(n - 1, -1, -1))
        while work:
            i = work.pop()
            new_in = all_mask if preds[i] else 0
            for p in preds[i]:
                new_in &= out_sets[p]
            new_out = (new_in & ~kill[i]) | gen[i]
            if new_in != in_sets[i] or new_out != out_sets[i]:
                in_sets[i], out_sets[i] = new_in, new_out
                work.extend(succ[i])

        def sub(i, o):
            m = in_sets[i] & dest_mask.get(o, 0)
            return copies[m.bit_length() - 1][1] if m else o

        for i, ins in enumerate(instructions):
            if in_sets[i]:
                left, right = sub(i, ins.left), sub(i, ins.right)
                if left != ins.left or right != ins.right:
                    instructions[i] = replace(ins, left=left, right=right)
                    changed = True
    return instructions


def reference_invalidation(program, cfg, candidate):
    """The invalidation set ``derive_problems`` documents, without source and
    sink, in the ids of ``cfg``, the program's graph."""
    operands = [o for o in (candidate.left, candidate.right) if isinstance(o, str)]
    load_results = {ins.dest for ins in program if ins.kind == LOAD}
    inv = set()
    for i, ins in enumerate(program):
        kind = ins.kind
        if ins.dest in operands or \
                kind == STORE and (candidate.op == "load" or load_results & set(operands)) or \
                kind == LOAD and load_results & set(operands):
            inv.add(cfg.order[i])
    return inv


def whole_graph_cut(cfg, problem, limit):
    """``min_calc_count`` on the whole graph: one network node per graph node
    and an arc for every edge, into B or not."""
    use, inv = problem.use_set, problem.invalidation_set
    n = cfg.node_count
    source, sink = n, n + 1
    flow = 0
    head = []
    out = [[] for _ in range(n + 2)]
    for (x, y) in cfg.edges:
        u = source if x in inv else None if x in use else x
        w = sink if y in use else None if y in inv else y
        if u is None or w is None or u == w:
            continue
        if u == source and w == sink:
            flow += 1
            continue
        out[u].append(len(head))
        head.append(w)
        out[w].append(len(head))
        head.append(u)
    cap = [1, 0] * (len(head) // 2)
    while flow < limit:
        via = [-1] * (n + 2)
        queue = [source]
        for v in queue:
            for a in out[v]:
                w = head[a]
                if cap[a] and via[w] < 0 and w != source:
                    via[w] = a
                    queue.append(w)
            if via[sink] >= 0:
                break
        if via[sink] < 0:
            break
        w = sink
        while w != source:
            a = via[w]
            cap[a] -= 1
            cap[a ^ 1] += 1
            w = head[a ^ 1]
        flow += 1
    return min(flow, limit)


def reference_carries(verdict, problem):
    """Whether ``problem`` has the use and invalidation sets of ``verdict``,
    the last pass's (use, invalidation) pair: the test a pass made on a
    carried verdict after building its problem.  A rewrite keeps every
    node's id, so the sets compare as they are."""
    return verdict == (problem.use_set, problem.invalidation_set)


def key_of(candidate):
    return candidate.op, candidate.left, candidate.right


# pass 1 finds that 4 + t, t a load result, cannot gain (the store splits its
# uses) and applies *r; that moves the loads, so 4 + t is not carried
LOADED_OPERAND = "t = *p\nx = t + 4\n*q = 1\ny = t + 4\nu = *r\nv = *r\nret\n"


def reference_runs_of(programs):
    """Runs of the (name, text) ``programs`` that compare each
    ``min_calc_count`` call with ``whole_graph_cut`` and check
    ``reference_carries`` on each candidate that a carried verdict skips."""
    runs = {"cuts": 0, "cut_mismatches": [], "skipped": 0, "carry_failures": [],
            "carried_keys": {}}
    cut, derive, carried = cli.min_calc_count, irmod.derive_problems, cli._carried
    # [derivation, carried keys (None: _carried not called)] per pass of the
    # current run
    passes = []

    def checking_cut(cfg, problem, region, limit):
        got, expected = cut(cfg, problem, region, limit), whole_graph_cut(cfg, problem, limit)
        runs["cuts"] += 1
        if got != expected:
            runs["cut_mismatches"].append((sorted(problem.use_set), limit, got, expected))
        return got

    def recording_derive(program, cfg):
        passes.append([derive(program, cfg), None])
        return passes[-1][0]

    def recording_carried(*args):
        passes[-1][1] = carried(*args)
        return passes[-1][1]

    def check_skips(name, applied):
        # pass p skips the carried candidates before the one it applies
        for p in range(1, len(passes)):
            (last, _), (now, keys) = passes[p - 1], passes[p]
            runs["carried_keys"][name, p + 1] = keys
            last_index = {key_of(c): k for k, c in enumerate(last.candidates)}
            keys_now = [key_of(c) for c in now.candidates]
            # find the applied candidate by its key
            stop = keys_now.index(key_of(applied[p][0])) if p < len(applied) else None
            for k, candidate in enumerate(now.candidates[:stop]):
                key = key_of(candidate)
                if keys is not None and key in keys:
                    runs["skipped"] += 1
                    old = last[last_index[key]][1]
                    if not reference_carries((old.use_set, old.invalidation_set), now[k][1]):
                        runs["carry_failures"].append((name, p + 1, key))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "min_calc_count", checking_cut)
        monkeypatch.setattr(irmod, "derive_problems", recording_derive)
        monkeypatch.setattr(cli, "_carried", recording_carried)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnreachableCodeWarning)
            for name, text in programs:
                passes.clear()
                check_skips(name, run_pipeline(parse_ir(text), RunConfig()).applied)
    return runs


@pytest.fixture(scope="module")
def reference_runs():
    """The frozen corpus, two ladder programs and LOADED_OPERAND, checked."""
    return reference_runs_of(list(cases()) + [
        ("ladder/0/1600", generate_program_text(0, max_statements=1600)),
        ("ladder/7/3200", generate_program_text(7, max_statements=3200)),
        ("loaded-operand", LOADED_OPERAND)])


def test_the_cut_on_the_use_region_is_the_whole_graph_cut(reference_runs):
    assert reference_runs["cuts"] >= 1500
    assert not reference_runs["cut_mismatches"]


def test_every_carried_verdict_keeps_its_sets_through_the_rewrite(reference_runs):
    assert reference_runs["skipped"] >= 5000
    assert not reference_runs["carry_failures"]
    assert reference_runs["carried_keys"]["loaded-operand", 2] == set()


def test_the_carry_reference_catches_a_dropped_load_condition(monkeypatch):
    # a mutant that ignores what the applied load moved carries 4 + t into
    # pass 2 of LOADED_OPERAND, where its invalidation set has changed
    monkeypatch.setattr(cli, "_carried", lambda verdicts, touched, loaded: verdicts - touched)
    runs = reference_runs_of([("loaded-operand", LOADED_OPERAND)])
    assert runs["carry_failures"] == [("loaded-operand", 2, ("+", 4, "t"))]


def same_graph(a, b):
    return (a.node_count, a.edges, a.edge_cost, a.node_cost) == \
        (b.node_count, b.edges, b.edge_cost, b.node_cost)


def fake_edges(program, cfg):
    """The edges of ``cfg``, a graph in position ids, into the sink from an
    instruction that is not a ``ret`` and does not fall off the end."""
    sink, n = cfg.node_count - 1, len(program)
    return {(u, v) for (u, v) in cfg.edges if v == sink and u != 0 and
            program[u - 1].kind != RET and (u < n or program[u - 1].kind == JUMP)}


def real_part(program, cfg):
    """``cfg`` without its fake edges: node count, edges, and the costs."""
    fakes = fake_edges(program, cfg)
    return (cfg.node_count, cfg.edges - fakes, cfg.node_cost,
            {e: c for e, c in cfg.edge_cost.items() if e not in fakes})


def beyond_the_change(program, cfg, solution, step):
    """What ``step``, the rewrite of ``program`` on ``cfg`` by ``solution``,
    changed beyond the edges it subdivides, as a list of faults.

    Its new ids must be exactly ``range(cfg.node_count, new node_count)``,
    one per added instruction.  The edges it removes must be the calculation
    edges and, when a ``ret`` is appended, the last instruction's edge into
    the sink.  Every old node keeps its ``succ`` and ``pred`` tuples, except
    the ends of those edges, and its cost; every old edge left keeps its
    cost, and new nodes and edges cost the program's defaults."""
    new, faults = step.cfg, []
    added = range(cfg.node_count, new.node_count)
    if sorted(new.order) != sorted(cfg.order) + list(added) or \
            len(added) != len(step.program) - len(program):
        faults.append(f"new ids {sorted(set(new.order) - set(cfg.order))}, not {added}")
    last, (sink,) = cfg.order[-1], cfg.sinks
    removed = set(cfg.edges) - set(new.edges)
    subdivided = set(solution.calc_set)
    if program[-1].kind not in (JUMP, RET) and len(new.order) > new.order.index(last) + 1:
        # blocks follow a last instruction that falls off the end: the
        # computation on its edge into the sink, or the ret appended there
        subdivided.add((last, sink))
    if removed != subdivided:
        faults.append(f"removed edges {sorted(removed)}, subdivided {sorted(subdivided)}")
    ends = {v for edge in subdivided for v in edge}
    for v in range(cfg.node_count):
        if v not in ends and (new.succ[v], new.pred[v]) != (cfg.succ[v], cfg.pred[v]):
            faults.append(f"node {v} rewired")
        if new.node_cost[v] != cfg.node_cost[v]:
            faults.append(f"node {v} recosted")
    for v in added:
        if new.node_cost[v] != program.default_node_cost:
            faults.append(f"new node {v} costs {new.node_cost[v]}")
    for e, c in new.edge_cost.items():
        if c != cfg.edge_cost.get(e, program.default_edge_cost):
            faults.append(f"edge {e} costs {c}")
    return faults


class Recorder:
    """Wraps the library's pass steps inside ``run_pipeline`` and checks each
    rewrite, each pass's graph and each copy propagation against the
    references.

    A rewrite must touch nothing beyond the edges it subdivides
    (``beyond_the_change``; ``touch_faults``).  A pass graph, renamed through
    its order (``positional``), must be ``build_cfg`` of the pass's program
    when the input graph has no fake edge; otherwise it must have the same
    real edges and costs, and its fake edges must be the input's, which keep
    their ids.  ``moved`` counts the passes whose graph ``build_cfg`` would
    have given other fake edges.  ``finiteness`` holds, for each pass after
    the first, whether the input graph and the pass's graph have only finite
    costs: ``run_pipeline`` asks the input graph once for the whole run."""

    def __init__(self, monkeypatch):
        self.passes = self.built = self.candidates = self.problems = self.propagations = 0
        self.moved = self.rewrites = 0
        self.graph_mismatches, self.copy_mismatches, self.finiteness = [], [], []
        self.touch_faults = []
        build, derive, propagate, make, apply = (irmod.build_cfg, irmod.derive_problems,
                                                 irmod.copy_propagate, irmod.make_problem,
                                                 irmod.rewrite)

        def counting_build(program):
            self.built += 1
            return build(program)

        def checking_derive(program, cfg):
            self.passes += 1
            if self.input_fakes is None:
                # the input graph: its ids are the positions
                self.input_fakes = fake_edges(program, cfg)
                self.input_finite = cfg.has_finite_costs()
            else:
                self.finiteness.append((self.input_finite, cfg.has_finite_costs()))
            rebuilt, seen, rank = build(program), positional(cfg), positions(cfg, cfg.order)
            if self.input_fakes:
                ok = real_part(program, seen) == real_part(program, rebuilt) and \
                    fake_edges(program, seen) == {(rank[u], rank[v]) for (u, v) in self.input_fakes}
                self.moved += seen.edges != rebuilt.edges
            else:
                ok = same_graph(seen, rebuilt)
            if not ok:
                self.graph_mismatches.append(format_ir(program))
            result = derive(program, cfg)
            self.candidates += len(result)
            return result

        def checking_rewrite(program, cfg, candidate, solution, tmp):
            step = apply(program, cfg, candidate, solution, tmp)
            self.rewrites += 1
            self.touch_faults += beyond_the_change(program, cfg, solution, step)
            return step

        def checking_propagate(program, cfg=None):
            self.propagations += 1
            out = propagate(program, cfg)
            if out.instructions != reference_copy_propagate(program):
                self.copy_mismatches.append(format_ir(program))
            return out

        def counting_make(*args):
            self.problems += 1
            return make(*args)

        monkeypatch.setattr(irmod, "build_cfg", counting_build)
        monkeypatch.setattr(irmod, "derive_problems", checking_derive)
        monkeypatch.setattr(irmod, "rewrite", checking_rewrite)
        monkeypatch.setattr(irmod, "copy_propagate", checking_propagate)
        monkeypatch.setattr(irmod, "make_problem", counting_make)

    def run(self, text):
        self.input_fakes = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnreachableCodeWarning)
            return run_pipeline(parse_ir(text), RunConfig())


@pytest.fixture(scope="module")
def corpus_run():
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = Recorder(monkeypatch)
        recorder.programs = 0
        for _, text in cases():
            recorder.programs += 1
            recorder.run(text)
    return recorder


def test_patched_graphs_equal_build_cfg_on_the_frozen_corpus(corpus_run):
    # every rewrite touches only what it subdivides, and every pass graph,
    # renamed through its order, is the graph build_cfg gives its program
    assert corpus_run.rewrites >= 450 and not corpus_run.touch_faults
    assert not corpus_run.graph_mismatches
    # no corpus graph has an extra edge, so only the first pass of each
    # program builds its graph
    assert corpus_run.built == corpus_run.programs
    assert corpus_run.passes - corpus_run.built >= 450


def test_copy_propagation_equals_whole_program_rounds_on_the_frozen_corpus(corpus_run):
    assert corpus_run.propagations >= 450
    assert not corpus_run.copy_mismatches


def test_problems_are_built_only_for_candidates_a_pass_looks_at(corpus_run):
    assert 0 < corpus_run.problems < corpus_run.candidates / 2


def infinite_variant(seed):
    """``cost_variant(seed)`` with every other per-label cost made infinite."""
    lines = cost_variant(seed).splitlines()
    labelled = [i for i, line in enumerate(lines) if line.startswith("!") and
                len(line.split()) > 2]
    for i in labelled[::2]:
        lines[i] = lines[i].rsplit(" ", 1)[0] + " inf"
    return "\n".join(lines) + "\n"


def test_every_pass_graph_has_finite_costs_when_the_input_graph_does(corpus_run, monkeypatch):
    # run_pipeline asks the input graph alone whether its verdicts may skip
    # a solve: a rewrite subdivides finite edges only, and costs what it
    # adds by the defaults, so no pass graph may answer otherwise
    assert len(corpus_run.finiteness) >= 450
    assert all(a == b for a, b in corpus_run.finiteness)
    recorder = Recorder(monkeypatch)
    infeasible = 0
    for seed in range(100):
        try:
            recorder.run(infinite_variant(seed))
        except NoFeasibleSolutionError:
            infeasible += 1
    assert infeasible < 5
    assert all(a == b for a, b in recorder.finiteness)
    # passes after a rewrite of a graph with an infinite cost
    assert sum(not a for a, _ in recorder.finiteness) >= 25


@pytest.mark.parametrize("text", [
    # an unreachable loop gets a source edge
    "x = a + b\ny = a + b\nret\nL: z = 1\ngoto L\n",
    # so does an unreachable block, which reaches a ret: no fake edge
    "x = a + b\nret\ny = a + b\nz = a + b\nret\n",
    # an infinite loop gets a fake edge to the sink
    "x = a / d\nL: y = a / d\ngoto L\n",
])
def test_graphs_with_extra_edges_are_patched(monkeypatch, text):
    recorder = Recorder(monkeypatch)
    result = recorder.run(text)
    assert result.applied and not recorder.graph_mismatches and not recorder.touch_faults
    assert recorder.passes == 2 and recorder.built == 1


def test_a_carried_fake_edge_keeps_its_verdicts(monkeypatch):
    # pass 1 cuts d + e (uses 1 and 3) and applies a + b with a computation
    # on the back edge; the block appended after the old goto would take the
    # fake edge into the sink in a rebuilt graph, but the patched graph keeps
    # it on the goto, so pass 2 carries d + e, and a fresh cut agrees
    text = ("p = d + e\nd = d + 1\nq = d + e\nL: x = a + b\ny = a + b\nz = a + b\n"
            "a = c\ngoto L\n")
    cuts, carried, graphs = [], [], []
    derive, cut, carry = irmod.derive_problems, cli.min_calc_count, cli._carried

    def recording_derive(program, cfg):
        cuts.append([])
        graphs.append((program, cfg))
        return derive(program, cfg)

    def recording_cut(cfg, problem, region, bound):
        cuts[-1].append(sorted(problem.use_set))
        return cut(cfg, problem, region, bound)

    def recording_carried(*args):
        carried.append(carry(*args))
        return carried[-1]

    monkeypatch.setattr(irmod, "derive_problems", recording_derive)
    monkeypatch.setattr(cli, "min_calc_count", recording_cut)
    monkeypatch.setattr(cli, "_carried", recording_carried)
    result = run_pipeline(parse_ir(text), RunConfig())
    assert [c.display() for c, _ in result.applied] == ["a + b"]
    assert any(ins.label == "__L0" for ins in result.program)  # the appended block
    assert cuts == [[[1, 3], [4, 5, 6]], []]
    assert carried == [{("+", "d", "e")}]  # pass 2 carries d + e
    program, cfg = graphs[1]
    # the goto's, node 8 into the sink 9 as on pass 1, at positions 9 and 12 now
    assert (8, 9) in cfg.edges and fake_edges(program, positional(cfg)) == {(9, 12)}
    assert fake_edges(program, build_cfg(program)) == {(11, 12)}  # the appended block's
    ((_, problem),) = [(c, p) for c, p in derive_problems(program, cfg) if key_of(c) == ("+", "d", "e")]
    assert cut(cfg, problem, use_region(cfg, problem), 2) == 2


# the program and solution of
# test_ir.py::test_rewrite_keeps_the_last_instruction_out_of_appended_blocks,
# and the same with a computation on the last instruction's edge into the sink
@pytest.mark.parametrize("calcs, placed", [({(0, 1), (3, 5)}, (8,)),
                                           ({(0, 1), (3, 5), (5, 6)}, (8, 9))],
                         ids=["alone", "after-a-computation"])
def test_a_rewrite_that_appends_a_ret_is_patched(calcs, placed):
    prog = parse_ir("if c goto L\nx = a + b\ngoto M\nL: z = 1\nM: y = a + b\n")
    cfg = build_cfg(prog)
    ((cand, _),) = derive_problems(prog, cfg)
    sol = LospreSolution(frozenset(), frozenset(calcs), CostVec(len(calcs), 0))
    step = rewrite(prog, cfg, cand, sol, "__lospre0")
    assert step.program[-3].kind == RET  # the appended ret, before the trailing block
    # the edge from node 5 into the sink 6 runs through the ret, after the
    # computation if any; node 7 is the computation on the source edge
    path = (5, *placed, 6)
    assert set(zip(path, path[1:])) <= step.cfg.edges and (5, 6) not in step.cfg.edges
    assert step.cfg.order[0] == 7 and RET == step.program[step.cfg.order.index(placed[-1])].kind
    assert not beyond_the_change(prog, cfg, sol, step)
    assert same_graph(positional(step.cfg), build_cfg(step.program))


def test_patched_graph_drops_the_override_of_a_subdivided_edge(monkeypatch):
    # the override names A -> B, the edge that pass 1 subdivides; pass 2
    # patches, and its costs are build_cfg's, the override gone
    text = "!edgecost A B [2,0]\n!nodecost C [0,3]\nA: a = 1\nB: y = a + b\nC: z = a + b\nret\n"
    recorder = Recorder(monkeypatch)
    result = recorder.run(text)
    assert len(result.applied) == 1 and not recorder.graph_mismatches
    assert recorder.rewrites == 1 and not recorder.touch_faults
    assert recorder.passes == 2 and recorder.built == 1


def test_every_problem_built_on_demand_is_the_eager_one():
    # on each input graph and on the last pass graph of its run, whose ids
    # are not the positions once a rewrite has inserted a block
    texts = [text for _, text in cases()][::5]
    texts += ["t1 = *p\nt2 = t1 + 4\nt3 = *t2\n*q = t3\nu = t1 + 4\nv = *t2\nw = *p\n"
              "x = - t1\ny = - t1\nret\n"]
    spliced = 0
    for text in texts:
        program = parse_ir(text)
        result = run_pipeline(program, RunConfig())
        spliced += result.cfg.order != tuple(range(1, len(result.program) + 1))
        for program, cfg in ((program, build_cfg(program)), (result.program, result.cfg)):
            derived = derive_problems(program, cfg)
            assert len(derived) == len(derived.candidates)
            for k in reversed(range(len(derived))):
                candidate, problem = derived[k]
                assert candidate is derived.candidates[k]
                assert derived[k][1] == problem
                key = key_of(candidate)
                assert candidate.occurrence_nodes == {
                    v for v, ins in zip(cfg.order, program) if candidate_key(ins) == key}
                assert problem == make_problem(cfg, candidate.occurrence_nodes,
                                               reference_invalidation(program, cfg, candidate))
            assert [c for c, _ in derived] == derived.candidates
    assert spliced >= 50


@pytest.mark.parametrize("text, reads", [
    ("a = b\nc = a\nd = c + 1\nret\n", ["b"]),
    ("a = b\nc = a\ne = c\nd = e + 1\nf = e * c\nret\n", ["b", "b"]),
    ("if x goto L\na = b\nc = a\ngoto M\nL: a = b\nc = a\nM: d = c + 1\nret\n", ["b"]),
])
def test_copy_chains_propagate_to_the_first_source(text, reads):
    program = parse_ir(text)
    out = copy_propagate(program, build_cfg(program))
    assert out.instructions == reference_copy_propagate(program)
    assert [ins.left for ins in out if ins.kind == BINOP] == reads


def test_copy_propagation_sees_the_entry_path_into_a_loop_head():
    # the loop head is the first instruction: on entry x is the input, not
    # t, so y = x + 1 keeps x (rounds over instruction successors alone took
    # the back edge for every path in and read t)
    text = "L: y = x + 1\nx = t\nz = a + b\nw = a + b\nc = c - 1\nif c goto L\nret\n"
    program = parse_ir(text)
    assert copy_propagate(program, build_cfg(program)).instructions[0].left == "x"
    assert reference_copy_propagate(program)[0].left == "t"
    result = run_pipeline(program, RunConfig())
    assert len(result.applied) == 1
    init = {"x": 5, "t": 1, "a": 2, "b": 3, "c": 1}
    assert equivalent_states(interpret(program, init), interpret(result.program, init),
                             ["a", "b", "c", "t", "w", "x", "y", "z"])
