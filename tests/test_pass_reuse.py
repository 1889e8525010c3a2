"""Each `run` pass reuses the last one: the patched graph, problems built on
demand and copy propagation stopped at its fixpoint give exactly what the
whole-program constructions give."""
import warnings
from dataclasses import replace

import pytest

import lospre.ir as irmod
from lospre.cfg import make_problem
from lospre.cli import RunConfig, run_pipeline
from lospre.cost import CostVec
from lospre.dp import LospreSolution
from lospre.interp import equivalent_states, interpret
from lospre.ir import (ASSIGN, BINOP, BRANCH, JUMP, LOAD, RET, STORE, UnreachableCodeWarning,
                       build_cfg, copy_propagate, derive_problems, format_ir, instr_node,
                       parse_ir, patchable, rewrite)
from test_pipeline_frozen import cases


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
            d = ins.defines()
            if d is not None:
                kill[i] = touch_mask.get(d, 0)
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


def reference_invalidation(program, candidate):
    """The invalidation set ``derive_problems`` documents, without source and sink."""
    operands = [o for o in (candidate.left, candidate.right) if isinstance(o, str)]
    load_results = {ins.dest for ins in program if ins.kind == LOAD}
    inv = set()
    for i, ins in enumerate(program):
        kind = ins.kind
        if ins.defines() in operands or \
                kind == STORE and (candidate.op == "load" or load_results & set(operands)) or \
                kind == LOAD and load_results & set(operands):
            inv.add(instr_node(i))
    return inv


def same_graph(a, b):
    return (a.node_count, a.edges, a.edge_cost, a.node_cost) == \
        (b.node_count, b.edges, b.edge_cost, b.node_cost)


class Recorder:
    """Wraps the library's pass steps inside ``run_pipeline`` and checks each
    pass's graph and each copy propagation against the references."""

    def __init__(self, monkeypatch):
        self.passes = self.built = self.candidates = self.problems = self.propagations = 0
        self.graph_mismatches, self.copy_mismatches = [], []
        build, derive, propagate, make = (irmod.build_cfg, irmod.derive_problems,
                                          irmod.copy_propagate, irmod.make_problem)

        def counting_build(program):
            self.built += 1
            return build(program)

        def checking_derive(program, cfg):
            self.passes += 1
            if not same_graph(cfg, build(program)):
                self.graph_mismatches.append(format_ir(program))
            result = derive(program, cfg)
            self.candidates += len(result)
            return result

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
        monkeypatch.setattr(irmod, "copy_propagate", checking_propagate)
        monkeypatch.setattr(irmod, "make_problem", counting_make)

    def run(self, text):
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


@pytest.mark.parametrize("text", [
    # an unreachable loop gets a source edge
    "x = a + b\ny = a + b\nret\nL: z = 1\ngoto L\n",
    # an infinite loop gets a fake edge to the sink
    "x = a / d\nL: y = a / d\ngoto L\n",
])
def test_graphs_with_extra_edges_are_rebuilt(monkeypatch, text):
    program = parse_ir(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreachableCodeWarning)
        assert not patchable(program, build_cfg(program))
    recorder = Recorder(monkeypatch)
    result = recorder.run(text)
    assert result.applied and not recorder.graph_mismatches
    assert recorder.built == recorder.passes == 2


def test_a_moved_fake_edge_carries_no_verdict(monkeypatch):
    # pass 1 cuts d + e (uses 1 and 3) and applies a + b with a computation
    # on the back edge; the block appended after the old goto moves the fake
    # edge into the sink, so pass 2 cuts d + e afresh and carries nothing
    import lospre.cli as cli
    text = ("p = d + e\nd = d + 1\nq = d + e\nL: x = a + b\ny = a + b\nz = a + b\n"
            "a = c\ngoto L\n")
    cuts, carries = [], []
    derive, cut = irmod.derive_problems, cli.min_calc_count

    def recording_derive(program, cfg):
        cuts.append([])
        return derive(program, cfg)

    def recording_cut(cfg, problem, bound):
        cuts[-1].append(sorted(problem.use_set))
        return cut(cfg, problem, bound)

    monkeypatch.setattr(irmod, "derive_problems", recording_derive)
    monkeypatch.setattr(cli, "min_calc_count", recording_cut)
    monkeypatch.setattr(cli, "_carries", lambda *args: carries.append(args))
    result = run_pipeline(parse_ir(text), RunConfig())
    assert [c.display() for c, _ in result.applied] == ["a + b"]
    assert any(ins.label == "__L0" for ins in result.program)  # the appended block
    assert cuts == [[[1, 3], [4, 5, 6]], [[1, 3]]]
    assert carries == []


def test_a_rewrite_that_appends_a_ret_is_not_patched():
    # the program and solution of
    # test_ir.py::test_rewrite_keeps_the_last_instruction_out_of_appended_blocks
    prog = parse_ir("if c goto L\nx = a + b\ngoto M\nL: z = 1\nM: y = a + b\n")
    cfg = build_cfg(prog)
    assert patchable(prog, cfg)
    ((cand, _),) = derive_problems(prog, cfg)
    sol = LospreSolution(frozenset(), frozenset({(0, 1), (3, 5)}), CostVec(2, 0))
    step = rewrite(prog, cfg, cand, sol)
    assert step.program[-3].kind == RET  # the appended ret, before the trailing block
    assert step.patched_cfg(cfg) is None


def test_patched_graph_drops_the_override_of_a_subdivided_edge(monkeypatch):
    # the override names A -> B, the edge that pass 1 subdivides; pass 2
    # patches, and its costs are build_cfg's, the override gone
    text = "!edgecost A B [2,0]\n!nodecost C [0,3]\nA: a = 1\nB: y = a + b\nC: z = a + b\nret\n"
    recorder = Recorder(monkeypatch)
    result = recorder.run(text)
    assert len(result.applied) == 1 and not recorder.graph_mismatches
    assert recorder.passes == 2 and recorder.built == 1


def test_every_problem_built_on_demand_is_the_eager_one():
    texts = [text for _, text in cases()][::5]
    texts += ["t1 = *p\nt2 = t1 + 4\nt3 = *t2\n*q = t3\nu = t1 + 4\nv = *t2\nw = *p\n"
              "x = - t1\ny = - t1\nret\n"]
    for text in texts:
        program = parse_ir(text)
        cfg = build_cfg(program)
        derived = derive_problems(program, cfg)
        assert len(derived) == len(derived.candidates)
        for k in reversed(range(len(derived))):
            candidate, problem = derived[k]
            assert candidate is derived.candidates[k]
            assert derived[k][1] is problem
            assert problem == make_problem(cfg, candidate.occurrence_nodes,
                                           reference_invalidation(program, candidate))
        assert [c for c, _ in derived] == derived.candidates


@pytest.mark.parametrize("text, reads", [
    ("a = b\nc = a\nd = c + 1\nret\n", ["b"]),
    ("a = b\nc = a\ne = c\nd = e + 1\nf = e * c\nret\n", ["b", "b"]),
    ("if x goto L\na = b\nc = a\ngoto M\nL: a = b\nc = a\nM: d = c + 1\nret\n", ["b"]),
])
def test_copy_chains_propagate_to_the_first_source(text, reads):
    program = parse_ir(text)
    out = copy_propagate(program)
    assert out.instructions == reference_copy_propagate(program)
    assert [ins.left for ins in out if ins.kind == BINOP] == reads


def test_copy_propagation_sees_the_entry_path_into_a_loop_head():
    # the loop head is the first instruction: on entry x is the input, not
    # t, so y = x + 1 keeps x (rounds over instruction successors alone took
    # the back edge for every path in and read t)
    text = "L: y = x + 1\nx = t\nz = a + b\nw = a + b\nc = c - 1\nif c goto L\nret\n"
    program = parse_ir(text)
    assert copy_propagate(program).instructions[0].left == "x"
    assert reference_copy_propagate(program)[0].left == "t"
    result = run_pipeline(program, RunConfig())
    assert len(result.applied) == 1
    init = {"x": 5, "t": 1, "a": 2, "b": 3, "c": 1}
    assert equivalent_states(interpret(program, init), interpret(result.program, init),
                             ["a", "b", "c", "t", "w", "x", "y", "z"])
