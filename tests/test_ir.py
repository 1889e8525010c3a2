import warnings

import pytest

from lospre.cfg import calc_set
from lospre.cli import RunConfig, run_pipeline
from lospre.cost import CostVec
from lospre.dp import solve
from lospre.errors import IrParseError, LospreError
from lospre.interp import equivalent_states, interpret
from lospre.ir import (ASSIGN, BINOP, BRANCH, LOAD, RET, STORE, UNOP, Instruction, Program,
                       UnreachableCodeWarning, build_cfg, candidate_key,
                       copy_propagate, derive_problems, format_ir, instr_node,
                       parse_ir, rewrite, tmp_names)
from lospre.oracle import generate_inputs, generate_program_text
from lospre.treedec import decompose, make_nice

TWO_ARM = """\
        if b goto else_arm
        t1 = i << 2
        t2 = a + t1
        t3 = *t2
        c = t3 + 8
        goto end
else_arm: t1 = i << 2
        t2 = a + t1
        t3 = *t2
        c = t3 - 13
end:    ret
"""


# -- parsing ------------------------------------------------------------------

def test_parse_forms():
    prog = parse_ir("x = i << 2\ny = x\nz = - y\nw = *p\n*p = w\nif x goto L\nL: ret\n")
    kinds = [ins.kind for ins in prog]
    assert kinds == [BINOP, ASSIGN, UNOP, LOAD, STORE, BRANCH, RET]
    assert prog[0].op == "<<" and prog[0].left == "i" and prog[0].right == 2
    assert prog[6].label == "L"


def test_instruction_roles_come_from_their_fields():
    # only assign, binop, unop and load write a variable; the operands read
    # are the variables among left and right, for every kind
    prog = parse_ir("x = i << y\ny = x\nz = - y\nw = *p\n*p = w\n*3 = 4\nif x goto L\n"
                    "goto L\nL: ret\n")
    assert [ins.dest for ins in prog] == ["x", "y", "z", "w", None, None, None, None, None]
    assert [Program([ins]).variables() for ins in prog] == \
        [{"x", "i", "y"}, {"y", "x"}, {"z", "y"}, {"w", "p"}, {"p", "w"}, set(), {"x"},
         set(), set()]
    assert prog.variables() == {"i", "p", "w", "x", "y", "z"}


def test_parse_negative_literal_vs_unop():
    prog = parse_ir("x = -5\ny = - x\nret\n")
    assert prog[0].kind == ASSIGN and prog[0].left == -5
    assert prog[1].kind == UNOP and prog[1].op == "-"


def test_parse_two_arm_program():
    prog = parse_ir(TWO_ARM)
    assert len(prog) == 11  # transcription choice; the shape is what matters
    assert sum(ins.kind == BINOP for ins in prog) == 6
    assert sum(ins.kind == LOAD for ins in prog) == 2


def test_parse_errors():
    with pytest.raises(IrParseError) as err:
        parse_ir("x = y +\n")
    assert err.value.line == 1
    with pytest.raises(IrParseError):
        parse_ir("goto missing\nret\n")
    with pytest.raises(IrParseError):
        parse_ir("L: x = 1\nL: y = 2\nret\n")
    with pytest.raises(IrParseError):
        parse_ir("x = y ** z\n")


def test_format_roundtrip():
    prog = parse_ir(TWO_ARM)
    again = parse_ir(format_ir(prog))
    assert [ins for ins in again] == [ins for ins in prog]


def test_cost_directives():
    prog = parse_ir("!edgecost [2,0]\n!nodecost [0,3]\n!nodecost L [0,7]\nL: x = y + z\nret\n")
    cfg = build_cfg(prog)
    assert cfg.edge_cost[(0, 1)] == CostVec(2, 0)
    assert cfg.node_cost[instr_node(0)] == CostVec(0, 7)
    assert cfg.node_cost[instr_node(1)] == CostVec(0, 3)
    with pytest.raises(IrParseError):
        parse_ir("!nodecost missing [0,1]\nret\n")


# -- graph extraction ---------------------------------------------------------

def test_straight_line_is_a_path():
    prog = parse_ir("a = 1\nb = 2\nc = 3\n")
    cfg = build_cfg(prog)
    assert cfg.node_count == 5  # source + 3 + sink
    assert cfg.edges == {(0, 1), (1, 2), (2, 3), (3, 4)}


def test_two_arm_shape():
    cfg = build_cfg(parse_ir(TWO_ARM))
    branch_node = instr_node(0)
    assert len(cfg.succ[branch_node]) == 2
    assert len(cfg.sinks) == 1


def test_branch_to_next_collapses_parallel_edges():
    prog = parse_ir("if x goto L\nL: y = 1\nret\n")
    cfg = build_cfg(prog)
    assert len(cfg.succ[instr_node(0)]) == 1


def test_unreachable_code_warns_but_keeps_nodes():
    text = "goto L\nx = 1\nL: ret\n"
    with pytest.warns(UnreachableCodeWarning):
        cfg = build_cfg(parse_ir(text))
    assert cfg.node_count == 5
    assert cfg.source == 0


def test_unreachable_loop_gets_a_source_edge():
    # goto L gives L a predecessor, but none that the entry reaches: the
    # loop's lowest-index instruction (node 3) is linked to the source
    with pytest.warns(UnreachableCodeWarning):
        cfg = build_cfg(parse_ir("x = 1\nret\nL: y = a + b\ngoto L\n"))
    assert (cfg.source, instr_node(2)) in cfg.edges
    reached, stack = set(), [cfg.source]
    while stack:
        v = stack.pop()
        if v not in reached:
            reached.add(v)
            stack.extend(cfg.succ[v])
    assert reached == set(range(cfg.node_count))


def test_infinite_loop_gets_one_fake_edge_to_the_sink():
    # instructions 1 and 2 loop forever; the loop's highest-index
    # instruction (goto L, node 3) is linked to the sink (node 4)
    cfg = build_cfg(parse_ir("x = 1\nL: y = 2\ngoto L\n"))
    assert cfg.edges == {(0, 1), (1, 2), (2, 3), (3, 2), (3, 4)}
    assert cfg.sinks == {4}
    # two separate loops, the second unreachable, get one edge each
    with pytest.warns(UnreachableCodeWarning):
        cfg = build_cfg(parse_ir("L: goto L\nM: x = 1\ngoto M\n"))
    assert {e for e in cfg.edges if e[1] == 4} == {(1, 4), (3, 4)}
    # a loop with an exit gets none
    cfg = build_cfg(parse_ir("L: x = 1\nif x goto L\nret\n"))
    assert {e for e in cfg.edges if e[1] == cfg.node_count - 1} == {(3, 4)}


def test_rewrite_refuses_a_computation_on_a_fake_edge():
    from lospre.dp import LospreSolution
    from lospre.errors import LospreError
    prog = parse_ir("x = a / d\nL: y = a / d\ngoto L\n")
    cfg = build_cfg(prog)
    cand, problem = derive_problems(prog, cfg)[0]
    sol = LospreSolution(life_set=frozenset({4}), calc_set=frozenset({(3, 4)}),
                         cost=CostVec(1, 1))
    with pytest.raises(LospreError, match="fake edge"):
        rewrite(prog, cfg, cand, sol, "__lospre0")
    # the same loop followed by an unreachable ret: goto L (node 2) is not last
    with pytest.warns(UnreachableCodeWarning):
        prog = parse_ir("L: y = a / d\ngoto L\nret\n")
        cfg = build_cfg(prog)
    assert (2, 4) in cfg.edges
    sol = LospreSolution(life_set=frozenset({4}), calc_set=frozenset({(2, 4)}),
                         cost=CostVec(1, 1))
    with pytest.raises(LospreError, match="fake edge"):
        rewrite(prog, cfg, derive_problems(prog, cfg)[0][0], sol, "__lospre0")


def test_rewrite_refuses_inputs_that_do_not_fit_the_program():
    from lospre.cfg import Cfg
    from lospre.dp import LospreSolution
    from lospre.errors import LospreError
    prog = parse_ir("x = a + b\ny = a + b\nz = 1\nret\n")  # nodes 1..4, sink 5
    cfg = build_cfg(prog)
    cand = derive_problems(prog, cfg)[0][0]

    def solution(*edges):
        return LospreSolution(frozenset(), frozenset(edges), CostVec(len(edges), 0))

    with pytest.raises(LospreError, match="not an edge of the graph"):
        rewrite(prog, cfg, cand, solution((1, 3)), "__lospre0")
    with pytest.raises(LospreError, match="size mismatch"):
        rewrite(prog, build_cfg(parse_ir("x = a + b\nret\n")), cand, solution(), "__lospre0")
    # a graph of the program's size whose edge (1, 3) skips an instruction
    skipping = Cfg(cfg.node_count, [(0, 1), (1, 3), (2, 3), (3, 4), (4, 5), (1, 2)])
    with pytest.raises(LospreError, match="does not leave instruction 0"):
        rewrite(prog, skipping, cand, solution((1, 3)), "__lospre0")


def test_empty_function():
    cfg = build_cfg(parse_ir("ret\n"))
    assert cfg.node_count == 3


# -- candidate derivation -----------------------------------------------------

def test_two_arm_candidates():
    prog = parse_ir(TWO_ARM)
    cfg = build_cfg(prog)
    pairs = derive_problems(prog, cfg)
    by_display = {c.display(): (c, p) for c, p in pairs}
    shift, _ = by_display["i << 2"]
    assert len(shift.occurrence_nodes) == 2
    assert not shift.safety_required
    _, shift_problem = by_display["i << 2"]
    assert shift_problem.invalidation_set == {cfg.source} | cfg.sinks
    load, load_problem = by_display["*t2"]
    assert load.safety_required
    # assignments to t2 invalidate the load
    assert instr_node(2) in load_problem.invalidation_set
    assert instr_node(7) in load_problem.invalidation_set


def test_operand_assignment_invalidates():
    prog = parse_ir("x = a + b\na = 7\ny = a + b\nret\n")
    cfg = build_cfg(prog)
    ((cand, problem),) = derive_problems(prog, cfg)
    assert cand.display() == "a + b"
    assert len(cand.occurrence_nodes) == 2
    assert instr_node(1) in problem.invalidation_set


def test_single_use_is_still_a_problem():
    prog = parse_ir("x = a + b\nret\n")
    pairs = derive_problems(prog, build_cfg(prog))
    assert len(pairs) == 1
    assert len(pairs[0][0].occurrence_nodes) == 1


def test_commutative_canonicalization():
    prog = parse_ir("x = b + a\ny = a + b\nz = b - a\nw = a - b\nret\n")
    pairs = derive_problems(prog, build_cfg(prog))
    displays = [c.display() for c, _ in pairs]
    assert displays.count("a + b") == 1
    assert "b - a" in displays and "a - b" in displays


def test_unary_and_binary_minus_are_two_candidates():
    # a unary key has no right operand; the rewritten text is the one the
    # pipeline gave when unary keys were spelt "neg" and "not"
    prog = parse_ir("""\
        x = - a
        if c goto other
        y = a - b
        goto end
other:  z = - a
end:    w = a - b
        ret
""")
    candidates = derive_problems(prog, build_cfg(prog)).candidates
    assert [(c.op, c.left, c.right, len(c.occurrence_nodes)) for c in candidates] == \
        [("-", "a", None, 2), ("-", "a", "b", 2)]
    assert [c.display() for c in candidates] == ["- a", "a - b"]
    result = run_pipeline(prog, RunConfig())
    assert [c.display() for c, _ in result.applied] == ["- a", "a - b"]
    assert format_ir(result.program) == """\
    __lospre0 = - a
    x = __lospre0
    __lospre1 = a - b
    if c goto other
    y = __lospre1
    goto end
other: z = __lospre0
end: w = __lospre1
    ret
"""


def test_stores_invalidate_loads():
    prog = parse_ir("x = *p\n*q = y\nz = *p\nret\n")
    cfg = build_cfg(prog)
    pairs = dict((c.display(), p) for c, p in derive_problems(prog, cfg))
    assert instr_node(1) in pairs["*p"].invalidation_set


def test_load_result_operand_is_pessimized():
    # an expression over a loaded value is invalidated by any memory access
    prog = parse_ir("a = *p\nx = a + 1\ny = *q\nz = a + 1\nret\n")
    cfg = build_cfg(prog)
    pairs = dict((c.display(), p) for c, p in derive_problems(prog, cfg))
    inv = pairs["1 + a"].invalidation_set
    assert instr_node(0) in inv  # assigns a, and is a load
    assert instr_node(2) in inv  # unrelated load still conservatively invalidates


def test_division_requires_safety():
    prog = parse_ir("x = a / b\nret\n")
    ((cand, _),) = derive_problems(prog, build_cfg(prog))
    assert cand.safety_required


def test_every_problem_invalidates_source_and_sinks():
    import warnings
    warnings.simplefilter("ignore")
    for seed in range(25):
        prog = parse_ir(generate_program_text(seed))
        cfg = build_cfg(prog)
        for _, problem in derive_problems(prog, cfg):
            assert ({cfg.source} | cfg.sinks) <= problem.invalidation_set


# -- rewriting ----------------------------------------------------------------

def _solve_for(prog, cfg, candidate, problem):
    return solve(cfg, problem, make_nice(decompose(cfg)))


def test_rewrite_empty_use_returns_program_unchanged():
    prog = parse_ir("x = a + b\nret\n")
    cfg = build_cfg(prog)
    from lospre.dp import LospreSolution
    from lospre.ir import ExprCandidate
    cand = ExprCandidate("+", "a", "b", frozenset(), False)
    sol = LospreSolution(frozenset(), frozenset(), CostVec(0, 0))
    step = rewrite(prog, cfg, cand, sol, "__lospre0")
    assert step.program == prog
    assert step.node_map == list(range(cfg.node_count))
    assert (step.cfg.edge_cost, step.cfg.node_cost) == (cfg.edge_cost, cfg.node_cost)


def test_rewrite_two_arm_once():
    prog = parse_ir(TWO_ARM)
    cfg = build_cfg(prog)
    pairs = derive_problems(prog, cfg)
    cand, problem = pairs[0]
    sol = _solve_for(prog, cfg, cand, problem)
    assert len(sol.calc_set) == 1
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    shifts = [ins for ins in out if ins.kind == BINOP and ins.op == "<<"]
    assert len(shifts) == 1
    assert shifts[0].dest == "__lospre0"
    # static computation count equals the calculation set size
    assert len([ins for ins in out if candidate_key(ins) == ("<<", "i", 2)]) == len(sol.calc_set)
    # occurrences became copies
    assert sum(1 for ins in out if ins.kind == ASSIGN and ins.left == "__lospre0") == 2


def test_rewrite_degenerate_no_motion():
    # a solution with an empty life set puts one computation on each edge
    # entering a use; instruction count grows only by those computations
    prog = parse_ir("x = a + b\ny = a + b\nret\n")
    cfg = build_cfg(prog)
    ((cand, problem),) = derive_problems(prog, cfg)
    from lospre.dp import LospreSolution
    life = frozenset()
    cs = calc_set(cfg, problem, life)
    sol = LospreSolution(life, cs, CostVec(len(cs), 0))
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    assert len(out) == len(prog) + len(cs)
    r0 = interpret(prog, {"a": 3, "b": 4})
    r1 = interpret(out, {"a": 3, "b": 4})
    assert equivalent_states(r0, r1, ["a", "b", "x", "y"])


def test_rewrite_subdivides_branch_edge():
    # the use sits at a label reached both by fallthrough and by jump; the
    # branch edge gets its own block so the other path is untouched
    text = "if c goto L\nx = a + b\nL: y = a + b\nret\n"
    prog = parse_ir(text)
    cfg = build_cfg(prog)
    pairs = dict((c.display(), (c, p)) for c, p in derive_problems(prog, cfg))
    cand, problem = pairs["a + b"]
    sol = _solve_for(prog, cfg, cand, problem)
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    for init in ({"c": 0, "a": 1, "b": 2}, {"c": 1, "a": 1, "b": 2}):
        r0 = interpret(prog, init)
        r1 = interpret(out, init)
        assert equivalent_states(r0, r1, ["x", "y", "a", "b", "c"])


def test_rewrite_loop_edge():
    text = "n = 3\nL: x = a + b\nn = n - 1\nif n goto L\ny = a + b\nret\n"
    prog = parse_ir(text)
    cfg = build_cfg(prog)
    pairs = dict((c.display(), (c, p)) for c, p in derive_problems(prog, cfg))
    cand, problem = pairs["a + b"]
    sol = _solve_for(prog, cfg, cand, problem)
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    r0 = interpret(prog, {"a": 2, "b": 5})
    r1 = interpret(out, {"a": 2, "b": 5})
    assert equivalent_states(r0, r1, ["x", "y", "n", "a", "b"])


def test_rewrite_turns_a_ret_into_a_jump_to_its_computation():
    # the node costs make the optimum compute a + b on R's edge into the
    # sink; the block that computes and returns must be reachable
    text = ("!nodecost [-2,0]\n!nodecost R [5,0]\nx = a + b\nif c goto L\n"
            "y = a + b\nR: ret\nL: z = a + b\nret\n")
    prog = parse_ir(text)
    cfg = build_cfg(prog)
    ((cand, problem),) = derive_problems(prog, cfg)
    sol = _solve_for(prog, cfg, cand, problem)
    assert sol.calc_set == {(0, 1), (4, 7)}
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnreachableCodeWarning)
        build_cfg(out)
    for c in (0, 1):
        init = {"a": 3, "b": 4, "c": c}
        assert equivalent_states(interpret(prog, init), interpret(out, init),
                                 ["a", "b", "c", "x", "y", "z"])


def test_rewrite_computes_before_an_unreachable_head():
    # the source edge into L's region is subdivided just before L, so the
    # reachable path still never divides
    from lospre.cli import RunConfig, run_pipeline
    text = "x = 1\nret\nL: y = a / d\nz = a / d\nret\n"
    with pytest.warns(UnreachableCodeWarning):
        result = run_pipeline(parse_ir(text), RunConfig())
    assert format_ir(result.program) == (
        "    x = 1\n    ret\n    __lospre0 = a / d\nL: y = __lospre0\n"
        "    z = __lospre0\n    ret\n")


def test_rewrite_keeps_the_last_instruction_out_of_appended_blocks():
    # M falls off the end into the sink; the block appended for the jump
    # edge into M must not become its successor
    from lospre.dp import LospreSolution
    prog = parse_ir("if c goto L\nx = a + b\ngoto M\nL: z = 1\nM: y = a + b\n")
    cfg = build_cfg(prog)
    ((cand, _),) = derive_problems(prog, cfg)
    sol = LospreSolution(frozenset(), frozenset({(0, 1), (3, 5)}), CostVec(2, 0))
    out = rewrite(prog, cfg, cand, sol, "__lospre0").program
    for c in (0, 1):
        init = {"a": 1, "b": 2, "c": c}
        assert equivalent_states(interpret(prog, init), interpret(out, init),
                                 ["a", "b", "c", "x", "y", "z"])


def test_tmp_names_skip_names_in_use():
    names = tmp_names(parse_ir("__lospre0 = a + b\n__lospre1: y = __lospre0\n"
                               "x = __lospre3\nret\n"))
    assert [next(names) for _ in range(3)] == ["__lospre2", "__lospre4", "__lospre5"]
    assert next(tmp_names(parse_ir("x = __lospre1\nret\n"))) == "__lospre0"


def test_a_run_draws_its_temporaries_past_the_names_of_its_input():
    # __lospre0 and __lospre3 are variables and __lospre1 a label of the
    # input, so the run's two rewrites take __lospre2 and __lospre4
    from lospre.cli import RunConfig, run_pipeline
    text = ("__lospre0 = a + b\n__lospre3 = 1\nx = a + b\n__lospre1: y = c * d\n"
            "z = c * d\nn = n - 1\nif n goto __lospre1\nw = a + b\nv = c * d\nret\n")
    result = run_pipeline(parse_ir(text), RunConfig())
    assert [c.display() for c, _ in result.applied] == ["a + b", "c * d"]
    assert format_ir(result.program) == (
        "    __lospre2 = a + b\n    __lospre0 = __lospre2\n    __lospre3 = 1\n"
        "    x = __lospre2\n    __lospre4 = c * d\n__lospre1: y = __lospre4\n"
        "    z = __lospre4\n    n = n - 1\n    if n goto __lospre1\n    w = __lospre2\n"
        "    v = __lospre4\n    ret\n")


# -- copy propagation ---------------------------------------------------------

def test_copy_propagation_through_both_arms():
    # t is an input variable; the same copy exists on both paths into M
    text = "if c goto L\nx = t\ngoto M\nL: x = t\nM: y = x + 1\nret\n"
    program = parse_ir(text)
    out = copy_propagate(program, build_cfg(program))
    final = [ins for ins in out if ins.kind == BINOP][0]
    assert final.left == "t"
    # a different source on one arm blocks it
    program = parse_ir(text.replace("L: x = t", "L: x = u"))
    out = copy_propagate(program, build_cfg(program))
    assert [ins for ins in out if ins.kind == BINOP][0].left == "x"


def test_copy_propagation_folds_literals():
    program = parse_ir("t = 5\nx = t\ny = x + 1\nret\n")
    out = copy_propagate(program, build_cfg(program))
    add = [ins for ins in out if ins.kind == BINOP][0]
    assert add.left == 5


def test_copy_propagation_blocked_by_redefinition():
    # t = 9 redefines the copy's source: reads before it take t, reads after keep x
    text = "x = t\nw = x + 2\nt = 9\ny = x + 1\nret\n"
    program = parse_ir(text)
    out = copy_propagate(program, build_cfg(program))
    assert [ins.left for ins in out if ins.kind == BINOP] == ["t", "x"]


def test_copy_propagation_killed_by_redefining_its_destination():
    # x = 4 on one path into L kills x = t there, so the read at L keeps x
    text = "x = t\nif c goto L\nx = 4\nL: y = x + 1\nret\n"
    program = parse_ir(text)
    out = copy_propagate(program, build_cfg(program))
    assert [ins for ins in out if ins.kind == BINOP][0].left == "x"
    assert [ins.left for ins in out if ins.kind == ASSIGN] == ["t", 4]


def test_copy_propagation_preserves_semantics():
    for seed in range(40):
        prog = parse_ir(generate_program_text(seed))
        out = copy_propagate(prog, build_cfg(prog))
        pvars = sorted(prog.variables())
        for trial in range(3):
            init, mem = generate_inputs(seed * 10 + trial, pvars)
            r0 = interpret(prog, init, mem)
            r1 = interpret(out, init, mem)
            assert equivalent_states(r0, r1, pvars), (seed, trial)


# -- interpreter --------------------------------------------------------------

def test_interpreter_basics():
    prog = parse_ir("x = 6\ny = x * 7\n*3 = y\nz = *3\nret\n")
    r = interpret(prog)
    assert r.variables["y"] == 42
    assert r.memory == {3: 42}
    assert r.variables["z"] == 42


def test_equivalent_states_compares_memory_and_listed_variables():
    base = interpret(parse_ir("x = a + 1\n*x = a\nret\n"), {"a": 2})
    assert (base.variables, base.memory) == ({"a": 2, "x": 3}, {3: 2})
    other_memory = interpret(parse_ir("x = a + 1\n*x = 5\nret\n"), {"a": 2})
    assert not equivalent_states(base, other_memory, [])
    other_x = interpret(parse_ir("x = a + 2\n*3 = a\nret\n"), {"a": 2})
    assert other_x.memory == base.memory
    assert not equivalent_states(base, other_x, ["a", "x"])
    assert equivalent_states(base, other_x, ["a"])
    # a rewrite's temporary is not listed, so it may differ
    with_temp = interpret(parse_ir("t = a * 5\nx = a + 1\n*x = a\nret\n"), {"a": 2})
    assert equivalent_states(base, with_temp, ["a", "x"])


def test_interpreter_rejects_an_operator_the_parser_never_gives():
    prog = Program([Instruction(BINOP, dest="x", op="%", left=7, right=2), Instruction(RET)])
    with pytest.raises(LospreError) as info:
        interpret(prog)
    assert str(info.value) == "unknown operator '%'"


def test_interpreter_total_semantics():
    prog = parse_ir("a = 5 / 0\nb = 1 << 200\nc = - 3\nd = ~ 0\nret\n")
    r = interpret(prog)
    assert r.variables["a"] == 0
    assert r.variables["b"] == 1 << (200 & 63)
    assert r.variables["c"] == -3 and r.variables["d"] == -1
