from pathlib import Path

import pytest

from lospre.cli import (EXIT_ERROR, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, EXIT_WIDTH, RunConfig,
                        main, run_pipeline)
from lospre.ir import parse_ir

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

TWO_ARM = (SAMPLES / "redundant_load.ir").read_text()


def test_run_reports_three_eliminations(tmp_path, capsys):
    src = tmp_path / "f.ir"
    src.write_text(TWO_ARM)
    rc = main(["run", str(src), "--emit", "stats,rewritten-ir,solution,dot",
               "--out-dir", str(tmp_path), "--verify"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "total eliminated=3" in out
    assert (tmp_path / "f.stats").exists()
    assert (tmp_path / "f.out.ir").exists()
    assert (tmp_path / "f.solution").exists()
    assert (tmp_path / "f.dot").exists()


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    src = tmp_path / "f.ir"
    src.write_text(TWO_ARM)
    blobs = []
    for d in ("a", "b"):
        out_dir = tmp_path / d
        assert main(["run", str(src), "--emit", "rewritten-ir,stats",
                     "--out-dir", str(out_dir)]) == EXIT_OK
        blobs.append((out_dir / "f.out.ir").read_bytes() + (out_dir / "f.stats").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_a_run_that_reaches_the_pass_limit_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # each applied pass lowers the static computation count, so only a
    # broken rewrite (here one that changes nothing) exhausts the passes
    from lospre import ir
    from lospre.errors import LospreError

    monkeypatch.setattr(ir, "rewrite", lambda program, cfg, candidate, solution, tmp:
                        ir.Rewrite(program, cfg))
    with pytest.raises(LospreError, match="internal error: no fixpoint after"):
        run_pipeline(parse_ir(TWO_ARM), RunConfig())
    assert main(["run", str(SAMPLES / "redundant_load.ir")]) == EXIT_ERROR
    assert "internal error" in capsys.readouterr().err


def test_run_without_flags_builds_the_default_config(tmp_path, monkeypatch):
    from lospre import cli

    built = []
    monkeypatch.setitem(cli._DISPATCH, "run", lambda config, path, text: built.append(config) or 0)
    src = tmp_path / "f.ir"
    src.write_text(TWO_ARM)
    assert main(["run", str(src)]) == EXIT_OK
    assert built == [RunConfig()]


def test_graph_mode_solves_each_problem(tmp_path, capsys):
    src = tmp_path / "g.graph"
    src.write_text("cfg 5\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nedge 1 3 c=[1,0]\n"
                   "edge 2 4 c=[1,0]\nedge 3 4 c=[1,0]\n"
                   "problem use=2,3 invalidate=0,4\n")
    rc = main(["graph", str(src), "--verify"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "cost [1,1]" in out
    assert "life 1" in out
    assert "calc 0->1" in out


def test_empty_function(tmp_path, capsys):
    src = tmp_path / "empty.ir"
    src.write_text("ret\n")
    rc = main(["run", str(src)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "total eliminated=0" in out


def test_empty_file(tmp_path, capsys):
    # no instruction at all: the graph is the source's one edge to the sink
    src = tmp_path / "empty.ir"
    src.write_text("")
    assert main(["run", str(src), "--verify", "--emit", "stats,rewritten-ir,solution,dot",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == "total eliminated=0\npasses=1\n"
    assert (tmp_path / "empty.out.ir").read_text() == "\n"
    assert (tmp_path / "empty.solution").read_text() == ""
    assert (tmp_path / "empty.dot").read_text() == \
        'digraph cfg {\n  n0 [label="0\\nl=[0,1]"];\n  n1 [label="1\\nl=[0,1]"];\n' \
        '  n0 -> n1 [label="[1,0]"];\n}\n'


def test_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.ir"
    src.write_text("x = y +\n")
    assert main(["run", str(src)]) == EXIT_PARSE
    src2 = tmp_path / "bad.graph"
    src2.write_text("nonsense\n")
    assert main(["graph", str(src2)]) == EXIT_PARSE
    src2.write_text("cfg 0\n")
    assert main(["graph", str(src2)]) == EXIT_PARSE
    capsys.readouterr()


# (IR text, the one line the run prints on stderr); each case reaches another
# error of ``parse_ir``, its helpers or ``build_cfg``
IR_ERRORS = [
    ("x = 1a + b\nret\n", "line 1: malformed operand '1a'"),
    ("1x = a + b\nret\n", "line 1: expected a variable name, got '1x'"),
    ("1L: x = a + b\nret\n", "line 1: malformed label '1L'"),
    ("L: x = a + b\nL: ret\n", "line 2: duplicate label 'L'"),
    ("x = a + b\nL:\nret\n", "line 2: a label must be followed by an instruction on the same line"),
    ("x = a + b\ngoto M\nret\n", "line 2: undefined label 'M'"),
    ("!nodecost M [1,0]\nret\n", "line 1: !nodecost references undefined label 'M'"),
    ("L: x = a + b\n!edgecost L M [1,0]\nret\n",
     "line 2: !edgecost references undefined label 'L' or 'M'"),
    ("!cost [1,0]\nret\n", "line 1: malformed directive '!cost [1,0]'"),
    ("!nodecost [1]\nret\n", "line 1: malformed cost '[1]': expected 'inf' or '[p,s]'"),
    ("goto A B\nret\n", "line 1: expected 'goto L'"),
    ("if x L\nret\n", "line 1: expected 'if x goto L'"),
    ("*p = y z\nret\n", "line 1: expected '*p = y'"),
    ("x = a b c d\nret\n", "line 1: malformed right-hand side 'a b c d'"),
    ("x\nret\n", "line 1: unrecognized instruction 'x'"),
    # both labels exist, but no edge runs from A to C
    ("A: x = a + b\nB: y = a + b\nC: ret\n!edgecost A C [2,0]\n",
     "line 4: !edgecost A C: no such edge in the extracted graph"),
]


@pytest.mark.parametrize("text, message", IR_ERRORS)
def test_ir_errors_name_their_line(tmp_path, capsys, text, message):
    src = tmp_path / "f.ir"
    src.write_text(text)
    assert main(["run", str(src)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


# (graph file, the one line graph prints on stderr); each case reaches
# another error of ``load_cfg``
GRAPH_ERRORS = [
    ("cfg 2\nedge 0 1 c=[1,0]\nproblem use=a invalidate=\n", "line 3: malformed id list 'a'"),
    ("cfg 2\ncfg 2\n", "line 2: duplicate 'cfg' header"),
    ("cfg two\n", "line 1: expected 'cfg <node_count>'"),
    # a digit that int() does not read
    ("cfg \u00b2\n", "line 1: expected 'cfg <node_count>'"),
    ("cfg 0\n", "line 1: a graph must have at least one node"),
    ("node 0 l=[0,1]\n", "line 1: file must start with 'cfg <node_count>'"),
    ("# no header\n", "file must start with 'cfg <node_count>'"),
    ("cfg 2\nnode 0\n", "line 2: expected 'node <id> l=<cost>'"),
    ("cfg 2\nnode 0 l=[0]\n", "line 2: malformed cost '[0]': expected 'inf' or '[p,s]'"),
    ("cfg 2\nnode 2 l=[0,1]\n", "line 2: unknown node id 2"),
    ("cfg 2\nnode x l=[0,1]\n", "line 2: malformed node id 'x'"),
    ("cfg 2\nedge 0 1\n", "line 2: expected 'edge <from> <to> c=<cost>'"),
    ("cfg 2\nedge 0 1 c=[1]\n", "line 2: malformed cost '[1]': expected 'inf' or '[p,s]'"),
    ("cfg 2\nedge 0 2 c=[1,0]\n", "line 2: edge (0, 2) references an unknown node id"),
    ("cfg 2\nedge 0 y c=[1,0]\n", "line 2: malformed node id 'y'"),
    ("cfg 2\nedge 0 1 c=[1,0]\nedge 0 1 c=[1,0]\n", "line 3: duplicate edge 0 -> 1"),
    ("cfg 2\nedge 0 1 c=[1,0]\nproblem use=1 kill=\n", "line 3: unexpected token 'kill='"),
    ("cfg 2\nedge 0 1 c=[1,0]\nproblem use=1\n",
     "line 3: expected 'problem use=<ids> invalidate=<ids>'"),
    ("cfg 2\nedge 0 1 c=[1,0]\nproblem use=3 invalidate=\n", "line 3: unknown node id 3"),
    ("cfg 2\nedge 0 1 c=[1,0]\nproblem use=0 invalidate=\n",
     "line 3: the source node cannot be in the use set"),
    ("cfg 2\nvertex 0\n", "line 2: unknown directive 'vertex'"),
]


@pytest.mark.parametrize("text, message", GRAPH_ERRORS)
def test_graph_file_errors_name_their_line(tmp_path, capsys, text, message):
    src = tmp_path / "g.graph"
    src.write_text(text)
    assert main(["graph", str(src)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def _directory(tmp_path):
    return ["run", str(tmp_path)]


def _not_utf8(tmp_path):
    src = tmp_path / "f.ir"
    src.write_bytes(b"x = a + b\n\xff\n")
    return ["run", str(src)]


def _out_dir_under_a_file(tmp_path):
    src = tmp_path / "f.ir"
    src.write_text(TWO_ARM)
    (tmp_path / "plain").write_text("")
    return ["run", str(src), "--emit", "stats", "--out-dir", str(tmp_path / "plain" / "out")]


@pytest.mark.parametrize("argv_for", [_directory, _not_utf8, _out_dir_under_a_file])
def test_unreadable_input_and_unwritable_output_are_input_errors(tmp_path, capsys, argv_for):
    argv = argv_for(tmp_path)
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv_for is not _out_dir_under_a_file:
        assert argv[1] in err  # the message names the input it could not read


def test_edge_costs_below_zero_are_parse_errors(tmp_path, capsys):
    # an edge cost counts computations; the tie rule needs it at least [0,0]
    src = tmp_path / "f.ir"
    for directive in ("!edgecost [0,-1]", "!edgecost [-1,5]", "!edgecost A B [-1,0]"):
        src.write_text(f"{directive}\nA: x = a + b\nB: y = a + b\nret\n")
        assert main(["run", str(src)]) == EXIT_PARSE
        assert "is below [0,0]" in capsys.readouterr().err
    graph = tmp_path / "g.graph"
    graph.write_text("cfg 2\nedge 0 1 c=[0,-1]\nproblem use=1 invalidate=\n")
    assert main(["graph", str(graph)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err
    # node costs may be negative, and edge costs zero or infinite
    src.write_text("!nodecost [-2,0]\n!edgecost [0,0]\n!edgecost A B inf\n"
                   "A: x = a + b\nB: y = a + b\nret\n")
    assert main(["run", str(src)]) == EXIT_OK
    capsys.readouterr()


DIAMOND_EDGES = ("cfg 5\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nedge 1 3 c=[1,0]\n"
                 "edge 2 4 c=[1,0]\nedge 3 4 c=[1,0]\n")


def test_width_guard_exit_code(tmp_path, capsys):
    # the guard reads the region about to be solved: a use at the join
    # needs every node of the diamond, a region of width 2
    src = tmp_path / "g.graph"
    src.write_text(DIAMOND_EDGES + "problem use=4 invalidate=\n")
    assert main(["graph", str(src), "--max-width", "1"]) == EXIT_WIDTH
    assert capsys.readouterr().err == "error: decomposition width 2 exceeds --max-width 1\n"
    assert main(["graph", str(src), "--max-width", "2"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("max_width", ["0", "1", "16"])
def test_graph_without_problems_solves_nothing(tmp_path, capsys, max_width):
    src = tmp_path / "g.graph"
    src.write_text(DIAMOND_EDGES)
    assert main(["graph", str(src), "--max-width", max_width]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_graph_guards_each_problem_region(tmp_path, capsys):
    # both problems of the sample lie on the arms, regions of width 1
    sample = str(SAMPLES / "diamond.graph")
    assert main(["graph", sample]) == EXIT_OK
    wide = capsys.readouterr().out
    assert main(["graph", sample, "--max-width", "1", "--verify"]) == EXIT_OK
    assert capsys.readouterr().out == wide
    # a complete DAG on 19 nodes has treewidth 18; a use next to its source
    # has a one-node region
    n = 19
    edges = "".join(f"edge {u} {v} c=[1,0]\n" for u in range(n) for v in range(u + 1, n))
    src = tmp_path / "k19.graph"
    src.write_text(f"cfg {n}\n{edges}problem use=1 invalidate=\n")
    assert main(["graph", str(src), "--max-width", "1", "--verify"]) == EXIT_OK
    assert capsys.readouterr().out == "problem 0\ncost [1,0]\nlife \ncalc 0->1\n"


def test_decompose_command(tmp_path, capsys):
    src = tmp_path / "g.graph"
    src.write_text("cfg 3\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\n")
    rc = main(["decompose", str(src), "--emit", "dot", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK and "width=1" in out
    assert (tmp_path / "g.treedec.dot").read_text().startswith("graph treedec {\n  b0 [shape=box")


def test_safety_command(tmp_path, capsys):
    src = tmp_path / "g.graph"
    src.write_text("cfg 4\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nedge 2 3 c=[1,0]\n"
                   "problem use= invalidate=\n")
    rc = main(["safety", str(src)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "added 1 2" in out


def test_oracle_check_command(capsys):
    rc = main(["oracle-check", "--seeds", "0..15", "--size", "9"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "checked 16 failed 0" in out


def test_run_drops_the_override_of_a_subdivided_edge(tmp_path, capsys):
    # pass 1 computes a + b on A -> B; the override named that edge, which
    # no longer exists when pass 2 extracts the graph
    src = tmp_path / "f.ir"
    src.write_text("!edgecost A B [2,0]\nA: a = 1\nB: y = a + b\nC: z = a + b\nret\n")
    rc = main(["run", str(src), "--emit", "rewritten-ir", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert "total eliminated=1" in capsys.readouterr().out
    assert "!edgecost A B" not in (tmp_path / "f.out.ir").read_text()


def test_verify_detects_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # sabotage the oracle to force a mismatch; --verify must flip the exit
    # status without changing artifacts
    import lospre.cli as cli
    from lospre.dp import LospreSolution
    from lospre.cost import CostVec

    def fake_brute(cfg, problem):
        return LospreSolution(frozenset({0}), frozenset(), CostVec(99, 0))

    monkeypatch.setattr(cli, "brute_lospre", fake_brute)
    src = tmp_path / "g.graph"
    src.write_text("cfg 3\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nproblem use=1 invalidate=\n")
    assert main(["graph", str(src), "--verify"]) == EXIT_VERIFY
    assert main(["graph", str(src)]) == EXIT_OK
    capsys.readouterr()


def test_verify_safety_with_use_inv_overlap(tmp_path, capsys):
    # v2 = *v2 reads memory before it writes v2: it uses and invalidates the
    # load, so it ends no unsafe corridor and the oracle must agree
    src = tmp_path / "f.ir"
    src.write_text("v3 = v4\nv2 = *v2\nv1 = *9\nret\n")
    assert main(["run", str(src), "--verify"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("op", ["-", "~"])
def test_run_spells_unary_candidates_as_the_ir_does(tmp_path, capsys, op):
    # the stats name a unary candidate in IR syntax, and the rewritten
    # program computes it once and agrees with the original
    from lospre.interp import equivalent_states, interpret

    src = tmp_path / "f.ir"
    src.write_text(f"x = {op} a\ny = {op} a\nret\n")
    assert main(["run", str(src), "--verify", "--emit", "rewritten-ir",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert f"candidate {op} a uses=2 calcs=1 eliminated=1\n" in capsys.readouterr().out
    before, after = parse_ir(src.read_text()), parse_ir((tmp_path / "f.out.ir").read_text())
    assert [ins.op for ins in after if ins.kind == "unop"] == [op]
    for a in (5, -3, 0):
        assert equivalent_states(interpret(before, {"a": a}), interpret(after, {"a": a}),
                                 ["x", "y"])


def test_pipeline_skips_when_no_gain():
    # a single-occurrence candidate never shrinks, so nothing is applied
    prog = parse_ir("x = a + b\nret\n")
    res = run_pipeline(prog, RunConfig())
    assert res.applied == []
    assert [i for i in res.program] == [i for i in prog]


def test_pipeline_loop_with_repeated_load():
    # duplicate load inside a loop body: safety routing runs on a cyclic
    # graph and the two reads collapse to one per iteration
    from lospre.interp import equivalent_states, interpret

    text = ("n = 3\nL: t = 0\nx = *20\nx2 = *20\ny = x + x2\n*21 = y\n"
            "n = n - 1\nif n goto L\nret\n")
    prog = parse_ir(text)
    res = run_pipeline(prog, RunConfig())
    assert sum(len(c.occurrence_nodes) - len(s.calc_set) for c, s in res.applied) == 1
    loads = [ins for ins in res.program if ins.kind == "load"]
    assert len(loads) == 1
    mem = {20: 7, 21: 0}
    r0 = interpret(prog, {}, mem)
    r1 = interpret(res.program, {}, mem)
    assert equivalent_states(r0, r1, sorted(prog.variables()))


def test_pipeline_self_invalidating_use():
    # x = x / y both uses and invalidates: first occurrence reuses the
    # hoisted value, the recomputation lands after the redefinition, and
    # later occurrences share it
    from lospre.interp import equivalent_states, interpret

    prog = parse_ir("x = x / y\nz = x / y\nw = x / y\nret\n")
    res = run_pipeline(prog, RunConfig())
    assert sum(len(c.occurrence_nodes) - len(s.calc_set) for c, s in res.applied) == 1
    for init in ({"x": 36, "y": 3}, {"x": -7, "y": 2}, {"x": 5, "y": 0}):
        r0 = interpret(prog, init)
        r1 = interpret(res.program, init)
        assert equivalent_states(r0, r1, ["x", "y", "z", "w"])


def test_pipeline_store_blocks_load_reuse_across_iterations():
    # with no alias analysis a store invalidates every load, so a loop that
    # stores between reads has nothing to eliminate
    text = ("n = 3\nL: x = *20\ny = x + n\n*21 = y\nn = n - 1\nif n goto L\n"
            "z = *20\nret\n")
    res = run_pipeline(parse_ir(text), RunConfig())
    assert res.applied == []


def test_infinite_costs_still_surface_infeasibility(tmp_path, capsys):
    # every edge costs inf, so every life set of a + b is infeasible; neither
    # the minimum cut (a = 1 forces 2 calculations for 2 occurrences) nor a
    # single occurrence may skip the solve that reports it
    src = tmp_path / "f.ir"
    for text in ("!edgecost inf\nx = a + b\na = 1\ny = a + b\nret\n",
                 "!edgecost inf\nx = a + b\nret\n"):
        src.write_text(text)
        for flags in ([], ["--verify"]):
            assert main(["run", str(src), *flags]) == EXIT_ERROR
            assert "no feasible solution" in capsys.readouterr().err


def test_verify_checks_the_cut_certificate(tmp_path, capsys, monkeypatch):
    # sabotage min_calc_count: above the solver's calculation count is always
    # wrong, below it is wrong only under unit costs
    import lospre.cli as cli

    src = tmp_path / "f.ir"
    src.write_text(TWO_ARM)
    assert main(["run", str(src), "--verify"]) == EXIT_OK
    monkeypatch.setattr(cli, "min_calc_count", lambda cfg, problem, region, limit: limit)
    assert main(["run", str(src), "--verify"]) == EXIT_VERIFY
    assert "certificate mismatch" in capsys.readouterr().err
    monkeypatch.setattr(cli, "min_calc_count", lambda cfg, problem, region, limit: 0)
    assert main(["run", str(src), "--verify"]) == EXIT_VERIFY
    src.write_text("!edgecost [2,0]\n" + TWO_ARM)
    assert main(["run", str(src), "--verify"]) == EXIT_OK
    capsys.readouterr()


# pass 1 finds 2 * x cannot gain (x = 5 splits its two occurrences) and
# applies a + b; copy propagation then turns y * 2 into a third occurrence
# of 2 * x, which gains in pass 2
CARRIED_THEN_GAINS = "y = x\nr = x * 2\nt = y * 2\nx = 5\ns = x * 2\np = a + b\nq = a + b\nret\n"


@pytest.mark.parametrize("name, sabotage, text", [
    ("min_calc_count", lambda cfg, problem, region, limit: limit, TWO_ARM),
    ("_carried", lambda verdicts, touched, loaded: verdicts, CARRIED_THEN_GAINS),
], ids=["cut", "carried"])
def test_verify_reports_a_wrong_verdict_but_keeps_it(tmp_path, capsys, monkeypatch,
                                                      name, sabotage, text):
    # a "cannot gain" verdict forced wrong skips a candidate that gains:
    # --verify solves that candidate, reports it, and writes what the plain
    # run under the same sabotage writes
    import lospre.cli as cli

    monkeypatch.setattr(cli, name, sabotage)
    src = tmp_path / "f.ir"
    src.write_text(text)
    runs = []
    for flags in ([], ["--verify"]):
        out_dir = tmp_path / f"out{len(runs)}"
        rc = main(["run", str(src), "--emit", "stats,rewritten-ir,solution",
                   "--out-dir", str(out_dir), *flags])
        runs.append((rc, [(out_dir / f"f.{ext}").read_bytes()
                          for ext in ("stats", "out.ir", "solution")]))
    assert [rc for rc, _ in runs] == [EXIT_OK, EXIT_VERIFY]
    assert runs[1][1] == runs[0][1]
    assert "verdict mismatch for " in capsys.readouterr().err


def test_verify_checks_safety_on_cyclic_graphs(tmp_path, capsys, monkeypatch):
    # a load, a counter loop of 8 instructions and the load again: 13 nodes,
    # cyclic.  Every entry to the loop passes the first load, so the loop is
    # up-safe and nothing is added; a reference that adds it, as the earlier
    # two-sided witness peel did, must be caught at this size
    import lospre.cli as cli
    from lospre.ir import build_cfg
    from lospre.safety import SafetySolution
    from test_safety import witness_peel

    text = ("x = *5\nL: c = c - 1\n" + "".join(f"w = w + {k}\n" for k in range(6)) +
            "if c goto L\ny = *5\nret\n")
    cfg = build_cfg(parse_ir(text))
    assert cfg.node_count > 12 and not cfg.is_acyclic()
    src = tmp_path / "f.ir"
    src.write_text(text)
    assert main(["run", str(src), "--verify", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "total eliminated=1" in capsys.readouterr().out

    def two_sided(cfg, problem):
        added = witness_peel(cfg, problem, pred_side=True, self_witness=False)
        return SafetySolution(problem.invalidation_set | added, added)

    monkeypatch.setattr(cli, "brute_safety", two_sided)
    assert main(["run", str(src), "--verify", "--out-dir", str(tmp_path)]) == EXIT_VERIFY
    assert "safety mismatch for *5" in capsys.readouterr().err


def test_verify_checks_safety_on_acyclic_graphs_of_any_size(tmp_path, capsys, monkeypatch):
    # 19 nodes, acyclic: the safety oracle, the dataflow sweep of
    # brute_safety, checks any size, and a reference that drops the
    # enlargement after the join must be caught
    import lospre.cli as cli
    from lospre.ir import build_cfg
    from lospre.safety import SafetySolution

    text = ("i = 0\nif c goto T\nx = a / d\nb = b + 1\nb = b + 2\nb = b + 3\ngoto J\n"
            "T: i = i + 1\ni = i + 2\nJ: y = a / d\nd = 1\n"
            + "".join(f"w = w + {k}\n" for k in range(5)) + "ret\n")
    cfg = build_cfg(parse_ir(text))
    assert cfg.node_count > 16 and cfg.is_acyclic()
    src = tmp_path / "f.ir"
    src.write_text(text)
    assert main(["run", str(src), "--verify"]) == EXIT_OK
    monkeypatch.setattr(cli, "brute_safety",
                        lambda cfg, problem: SafetySolution(problem.invalidation_set, frozenset()))
    assert main(["run", str(src), "--verify"]) == EXIT_VERIFY
    assert "safety mismatch for a / d" in capsys.readouterr().err
    assert main(["run", str(src)]) == EXIT_OK
    capsys.readouterr()


def test_emit_dot_draws_the_graph_of_the_last_pass(tmp_path, capsys, monkeypatch):
    # the loop never returns, so its graph links the original `goto L` (9)
    # to the sink (12); a graph rebuilt from the output would link the
    # appended block's `goto L` (11) instead
    import lospre.ir as ir

    built = []
    build_cfg = ir.build_cfg
    monkeypatch.setattr(ir, "build_cfg", lambda program: built.append(program) or
                        build_cfg(program))
    src = tmp_path / "f.ir"
    src.write_text("p = d + e\nd = d + 1\nq = d + e\nL: x = a + b\ny = a + b\n"
                   "z = a + b\na = c\ngoto L\n")
    assert main(["run", str(src), "--emit", "dot", "--out-dir", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    dot = (tmp_path / "f.dot").read_text()
    assert "  n9 -> n12 " in dot and "n11 -> n12" not in dot
    assert len(built) == 1


DIAMOND = ("cfg 5\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nedge 1 3 c=[1,0]\n"
           "edge 2 4 c=[1,0]\nedge 3 4 c=[1,0]\n"
           "problem use=2,3 invalidate=0,4\n")


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "64"],
    ["run", "x.ir", "--seed", "1"],
    ["oracle-check", "--max-width", "4"],
    ["decompose", "g.graph", "--verify"],
    ["decompose", "g.graph", "--mode", "ir"],
    ["safety", "g.graph", "--emit", "dot"],
    ["graph", "g.graph", "--goal", "speed"],
    # values a flag cannot take are usage errors too
    ["oracle-check", "--size", "3"],
    ["oracle-check", "--size", "21"],
    ["oracle-check", "--style", "bogus"],
    ["oracle-check", "--seeds", "5..2"],
    ["oracle-check", "--seeds", "x..2"],
    ["run", "x.ir", "--goal", "speed"],
    ["graph", "g.graph", "--emit", "stats"],
    ["decompose", "g.graph", "--emit", "solution"],
    ["run", "x.ir", "--max-width", "-1"],
    # decompose builds no DP table, so it has no width to guard
    ["decompose", "g.graph", "--max-width", "4"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()


def test_emit_accepts_only_the_subcommand_artifacts(tmp_path, capsys):
    src = tmp_path / "g.graph"
    src.write_text(DIAMOND)
    with pytest.raises(SystemExit):
        main(["graph", str(src), "--emit", "stats,dot", "--out-dir", str(tmp_path)])
    assert "unknown artifacts ['stats'], choose from dot,solution" in capsys.readouterr().err
    assert main(["graph", str(src), "--emit", "solution,dot",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "g.solution").exists() and (tmp_path / "g.0.dot").exists()
    assert not (tmp_path / "g.stats").exists()
    capsys.readouterr()


def test_safety_needs_no_decomposition(tmp_path, capsys):
    # a complete DAG on 19 nodes has treewidth 18, above the default
    # --max-width of 16; the peel runs on it all the same
    n = 19
    edges = "".join(f"edge {u} {v} c=[1,0]\n" for u in range(n) for v in range(u + 1, n))
    src = tmp_path / "k19.graph"
    src.write_text(f"cfg {n}\n{edges}problem use=5,9 invalidate=2,14\n")
    assert main(["decompose", str(src)]) == EXIT_OK
    assert " width=18 " in capsys.readouterr().out.splitlines()[0]
    assert main(["safety", str(src)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "problem 0"
    assert out[1].startswith("i_prime ") and out[2].startswith("added ")
    assert {2, 14} <= set(map(int, out[1].split()[1:]))


def test_graph_verify_checks_the_cut_certificate(tmp_path, capsys, monkeypatch):
    import lospre.cli as cli

    src = tmp_path / "g.graph"
    src.write_text(DIAMOND)
    assert main(["graph", str(src), "--verify"]) == EXIT_OK
    monkeypatch.setattr(cli, "min_calc_count", lambda cfg, problem, region, limit: limit)
    assert main(["graph", str(src), "--verify"]) == EXIT_VERIFY
    assert "certificate mismatch for problem 0" in capsys.readouterr().err
    assert main(["graph", str(src)]) == EXIT_OK
    capsys.readouterr()


def test_graph_verify_checks_the_safety_set(tmp_path, capsys, monkeypatch):
    import lospre.cli as cli
    from lospre.safety import SafetySolution

    src = tmp_path / "g.graph"
    src.write_text(DIAMOND)
    assert main(["graph", str(src), "--safety", "always", "--verify"]) == EXIT_OK
    monkeypatch.setattr(cli, "brute_safety",
                        lambda cfg, problem: SafetySolution(frozenset(), frozenset()))
    assert main(["graph", str(src), "--safety", "always", "--verify"]) == EXIT_VERIFY
    assert "safety mismatch for problem 0" in capsys.readouterr().err
    assert main(["graph", str(src), "--safety", "always"]) == EXIT_OK
    assert main(["graph", str(src), "--verify"]) == EXIT_OK
    capsys.readouterr()


# a diamond whose right arm can leave through 3 -> 6 without reaching a use,
# so only a speculative solution computes above the branch
ESCAPE = ("cfg 7\nedge 0 1 c=[1,0]\nedge 1 2 c=[1,0]\nedge 1 3 c=[1,0]\nedge 2 4 c=[1,0]\n"
          "edge 3 4 c=[1,0]\nedge 4 5 c=[1,0]\nedge 3 6 c=[1,0]\nedge 5 6 c=[1,0]\n"
          "problem use=2,5 invalidate=\n")


def test_graph_safety_values_each_do_something(tmp_path, capsys):
    src = tmp_path / "g.graph"
    src.write_text(ESCAPE)
    outs = {}
    for flags in ([], ["--safety", "never"], ["--safety", "always"]):
        assert main(["graph", str(src), *flags]) == EXIT_OK
        outs[tuple(flags)] = capsys.readouterr().out
    assert outs[()] == outs[("--safety", "never")] == \
        "problem 0\ncost [1,4]\nlife 1 2 3 4\ncalc 0->1\n"
    assert outs[("--safety", "always")] == "problem 0\ncost [2,0]\nlife \ncalc 1->2 4->5\n"
    # a graph file has no "safety required" mark for auto to read
    with pytest.raises(SystemExit) as exc:
        main(["graph", str(src), "--safety", "auto"])
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()


def test_safety_values_each_do_something(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text(ESCAPE)
    for flags in ([], ["--safety", "auto"]):
        assert main(["safety", str(graph), *flags]) == EXIT_OK
        assert capsys.readouterr().out == "problem 0\ni_prime 0 1 3 6\nadded 1 3\n"
    assert main(["safety", str(graph), "--safety", "always"]) == EXIT_PARSE
    assert "--safety always needs IR input" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["safety", str(graph), "--safety", "never"])
    assert exc.value.code == EXIT_PARSE
    capsys.readouterr()
    # in IR mode auto prints the load only, always every candidate
    program = tmp_path / "f.ir"
    program.write_text(TWO_ARM)
    heads = {}
    for value in ("auto", "always"):
        assert main(["safety", str(program), "--safety", value]) == EXIT_OK
        heads[value] = [line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("candidate")]
    assert heads["auto"] == ["candidate *t2"]
    assert len(heads["always"]) > 1 and set(heads["auto"]) < set(heads["always"])


def test_width_guard_fires_only_on_a_pass_that_solves(tmp_path, capsys):
    # both programs are if/else diamonds of width 2; a pass decomposes its
    # graph only when it solves, so --max-width 1 refuses only the program
    # whose a + b is worth solving
    src = tmp_path / "f.ir"
    src.write_text("if c goto L\nx = a + b\ngoto J\nL: x = 2\nJ: ret\n")
    assert main(["decompose", str(src)]) == EXIT_OK
    assert "width=2" in capsys.readouterr().out
    assert main(["run", str(src), "--max-width", "1"]) == EXIT_OK
    src.write_text("if c goto L\nx = a + b\ngoto J\nL: x = a + b\nJ: y = a + b\nret\n")
    assert main(["run", str(src), "--max-width", "1"]) == EXIT_WIDTH
    assert "exceeds --max-width 1" in capsys.readouterr().err


def test_verify_keeps_the_plain_runs_width_guard(tmp_path, capsys):
    # the plain run solves nothing, so it never decomposes; --verify solves
    # the single a + b to check its "cannot gain" verdict on its use region,
    # the diamond above J of width 2, which must not trip --max-width 1
    src = tmp_path / "f.ir"
    diamond = "if c goto L\nt = 1\ngoto J\nL: t = 2\nJ: x = a + b\nret\n"
    src.write_text(diamond)
    for extra in ([], ["--verify"]):
        assert main(["run", str(src), "--max-width", "1"] + extra) == EXIT_OK
        assert capsys.readouterr().err == ""
    # above VERIFY_MAX_NODES brute force cannot check it: it is reported
    src.write_text(diamond.replace("ret", "y = 0\n" + "y = y + 1\n" * 12 + "ret"))
    assert main(["run", str(src), "--max-width", "1", "--verify"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "unchecked: width 2 > --max-width 1 for a + b" in err
    assert "error" not in err


@pytest.mark.parametrize("text", [
    "if c goto L\nx = a + b\ngoto J\nL: x = a + b\nJ: y = a + b\nret\n",
    # first a single a + b below a diamond, its region as wide, on 14 nodes,
    # too many for brute force
    "if c goto K\nt = 1\ngoto M\nK: t = 2\nM: w = a + b\nif c goto L\nx = d + e\n"
    "goto J\nL: x = d + e\nJ: y = d + e\nz = 0\nz = 1\nret\n",
], ids=["alone", "after-a-wide-single"])
def test_the_width_guard_stops_a_verified_run_as_it_stops_a_plain_one(tmp_path, capsys, text):
    # pass 1 solves the three-occurrence candidate on a region of width 2;
    # the guard stops the run before --verify re-checks that pass, so no
    # "unchecked" line precedes the error
    src = tmp_path / "f.ir"
    src.write_text(text)
    for flags in ([], ["--verify"]):
        assert main(["run", str(src), "--max-width", "1", *flags]) == EXIT_WIDTH
        assert capsys.readouterr().err == "error: decomposition width 2 exceeds --max-width 1\n"


@pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")
def test_verify_makes_no_decision(monkeypatch):
    # with _verify_pass replaced by a recorder, a run under --verify makes the
    # plain run's calls, in the same order, and each pass hands the recorder
    # the candidate the result says it applied, on the graph whose order the
    # result keeps with it
    import lospre.cli as cli
    from test_pipeline_frozen import cases

    calls, chosen = [], []

    def recording(name, fn):
        def wrapper(cfg, problem, *rest):
            calls.append((name, sorted(problem.use_set), sorted(problem.invalidation_set),
                          *rest))
            return fn(cfg, problem, *rest)
        return wrapper

    for name in ("min_calc_count", "solve_safety", "_region_solve"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "_verify_pass", lambda cfg, derived, pair, config, failures:
                        chosen.append(pair and (pair, cfg.order)))
    texts = [text for _, text in cases()]
    runs = []
    for verify in (False, True):
        calls.clear()
        for text in texts:
            chosen.clear()
            result = run_pipeline(parse_ir(text), RunConfig(verify=verify))
            assert len(chosen) == result.passes
            assert [pair for pair in chosen if pair is not None] == \
                list(zip(result.applied, result.orders))
        runs.append(list(calls))
    assert runs[0] == runs[1]
    assert {name for name, *_ in runs[0]} == {"min_calc_count", "solve_safety", "_region_solve"}


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_function_ending_in_an_infinite_loop_runs(tmp_path, capsys, verify):
    src = tmp_path / "f.ir"
    src.write_text("x = a / d\nL: y = a / d\ngoto L\n")
    assert main(["run", str(src), "--emit", "rewritten-ir", "--out-dir", str(tmp_path)]
                + verify) == EXIT_OK
    assert "total eliminated=1" in capsys.readouterr().out
    out = (tmp_path / "f.out.ir").read_text()
    assert out.count("a / d") == 1 and "goto L" in out


def test_straight_line_program_runs_under_max_width_1(tmp_path, capsys):
    # the second pass solves tmp * 2; patching the first pass's path
    # decomposition through the rewrite gives width 2, so that pass
    # decomposes its path afresh (width 1) before the guard decides
    src = tmp_path / "f.ir"
    src.write_text("x = a + b\np = x * 2\ny = a + b\nq = y * 2\nret\n")
    assert main(["run", str(src), "--max-width", "1"]) == EXIT_OK
    assert "total eliminated=2" in capsys.readouterr().out


def test_carried_verdicts_agree_with_a_fresh_cut(monkeypatch):
    # every "cannot gain" verdict carried into a pass is what the pass would
    # have found itself: safety where auto asks for it, then the minimum cut
    import warnings

    import lospre.cli as cli
    import lospre.ir as irmod
    from lospre.cfg import min_calc_count, use_region
    from test_pipeline_frozen import cases

    warnings.simplefilter("ignore", irmod.UnreachableCodeWarning)
    current = {}
    derive, carried_keys = irmod.derive_problems, cli._carried

    def recording_derive(program, cfg):
        current.update(cfg=cfg, derived=derive(program, cfg))
        return current["derived"]

    carried = []

    def recording_carried(*args):
        keys = carried_keys(*args)
        derived = current["derived"]
        for k, candidate in enumerate(derived.candidates):
            if (candidate.op, candidate.left, candidate.right) in keys:
                carried.append((current["cfg"], candidate, derived[k][1]))
        return keys

    monkeypatch.setattr(irmod, "derive_problems", recording_derive)
    monkeypatch.setattr(cli, "_carried", recording_carried)
    for _, text in cases():
        run_pipeline(parse_ir(text), RunConfig())
    assert len(carried) >= 250
    for cfg, candidate, problem in carried:
        if candidate.safety_required:
            problem = cli._enlarge(cfg, problem, candidate.display())
        occurrences = len(candidate.occurrence_nodes)
        assert min_calc_count(cfg, problem, use_region(cfg, problem), occurrences) >= occurrences


@pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")
def test_the_plain_cut_runs_before_safety(monkeypatch):
    # enlarging only raises the minimum cut, so a candidate whose plain cut
    # reaches its occurrence count is never enlarged; under default costs the
    # cut is the optimum's calculation count, so with the enlarged problem cut
    # again, only a candidate that gains is solved
    import lospre.cli as cli
    from lospre.cfg import min_calc_count, use_region
    from test_pipeline_frozen import cases

    enlarged, solved = [], []
    solve_safety, region_solve = cli.solve_safety, cli._region_solve

    def checked_safety(cfg, problem):
        occurrences = len(problem.use_set)
        enlarged.append(min_calc_count(cfg, problem, use_region(cfg, problem), occurrences)
                        < occurrences)
        return solve_safety(cfg, problem)

    def counted_solve(*args):
        solved.append(args)
        return region_solve(*args)

    monkeypatch.setattr(cli, "solve_safety", checked_safety)
    monkeypatch.setattr(cli, "_region_solve", counted_solve)
    applied = 0
    for name, text in cases():
        solved.clear()
        result = run_pipeline(parse_ir(text), RunConfig())
        if not name.startswith("costs/"):
            assert len(solved) == len(result.applied), name
            applied += len(result.applied)
    assert all(enlarged) and len(enlarged) >= 50 and applied >= 400


@pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")
def test_the_solve_reuses_the_use_region_of_the_last_cut(monkeypatch):
    # the candidate loop walks the use region B once per cut, and a solve
    # builds its region from the B the candidate's last cut walked
    import lospre.cli as cli
    from test_pipeline_frozen import cases

    walks, cuts, reused = [], [], []
    walk, cut, region_solve = cli.use_region, cli.min_calc_count, cli._region_solve

    def counted_walk(cfg, problem):
        walks.append(walk(cfg, problem))
        return walks[-1]

    def counted_cut(cfg, problem, region, limit):
        cuts.append(region)
        return cut(cfg, problem, region, limit)

    def counted_solve(cfg, problem, region, max_width):
        reused.append(region is cuts[-1] is walks[-1])
        return region_solve(cfg, problem, region, max_width)

    monkeypatch.setattr(cli, "use_region", counted_walk)
    monkeypatch.setattr(cli, "min_calc_count", counted_cut)
    monkeypatch.setattr(cli, "_region_solve", counted_solve)
    for _, text in cases():
        run_pipeline(parse_ir(text), RunConfig())
    assert len(walks) == len(cuts) >= 1000
    assert all(w is c for w, c in zip(walks, cuts))
    assert all(reused) and len(reused) >= 400


def test_a_region_cost_that_disagrees_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a use region whose constant is one computation off: the lift recomputes
    # the cost on the whole graph and refuses the region's
    from lospre import cli
    from lospre.cost import CostVec
    use_region = cli._use_region

    def off_by_one(cfg, problem, region):
        region_cfg, region_problem, kept, constant, chains = use_region(cfg, problem, region)
        return region_cfg, region_problem, kept, constant + CostVec(1, 0), chains

    monkeypatch.setattr(cli, "_use_region", off_by_one)
    assert main(["graph", str(SAMPLES / "diamond.graph")]) == EXIT_ERROR
    assert capsys.readouterr().err == \
        "error: internal error: region cost disagrees with recomputed objective\n"
