"""`run` on programs that never return or have unreachable code.

Each case is a generated program with an infinite loop added in one of
three shapes: the loop replaces the final ``ret`` (the program never
returns), sits after the ``ret`` where nothing reaches it, or sits after
the ``ret`` behind a branch inserted into the body.  The loop repeats a
computation of the body and divides, so passes rewrite inside it and
append blocks after it; a graph rebuilt from such a program would link
another instruction to the sink than the input's graph did.
"""
import random
from pathlib import Path

import pytest

from lospre.cli import main
from lospre.interp import StepLimitExceeded, equivalent_states, interpret
from lospre.ir import BINOP, parse_ir
from lospre.oracle import generate_inputs, generate_program_text
from test_pass_reuse import Recorder
from test_pipeline_frozen import run_artifacts

pytestmark = pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")

SAMPLE = Path(__file__).resolve().parent.parent / "samples" / "never_returns.ir"
SHAPES = ("never-returns", "unreachable-loop", "entered-loop")
HALT_STEPS = 2000


def never_returning(seed):
    """``generate_program_text(seed)`` with an infinite loop in shape ``SHAPES[seed % 3]``."""
    rng = random.Random(f"never/{seed}")
    lines = generate_program_text(seed, max_statements=rng.choice((14, 24))).splitlines()
    sides = [line.split(" = ", 1)[1] for line in lines if " = " in line]
    exprs = [side for side in sides if len(side.split()) == 3]
    variables = [f"v{k}" for k in range(6)]
    expr = rng.choice(exprs) if exprs else "v0 + v1"
    divide = f"{rng.choice(variables)} / {rng.choice(variables)}"
    operands = [o for o in expr.split()[::2] + divide.split()[::2] if o.isidentifier()]
    # w0..w3 are read nowhere, so each computation is redundant in the loop;
    # a write to an operand before the back edge makes the next round
    # compute again, on the back edge
    loop = [f"spin: w0 = {expr}", f"w1 = {divide}", f"w2 = {expr}", f"w3 = {divide}",
            f"{rng.choice(operands)} = w3", "goto spin"]
    shape = SHAPES[seed % 3]
    if shape == "never-returns":
        lines[-1:] = loop
    else:
        if shape == "entered-loop":
            lines.insert(rng.randrange(len(lines)), f"if {rng.choice(variables)} goto spin")
        lines += loop
    return "\n".join(lines) + "\n"


CASES = [(seed, never_returning(seed)) for seed in range(60)]


@pytest.fixture(scope="module")
def recorded_runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = Recorder(monkeypatch)
        results = [recorder.run(text) for _, text in CASES]
    return recorder, results


def test_every_pass_graph_is_the_input_graph_subdivided(recorded_runs):
    recorder, results = recorded_runs
    assert recorder.built == len(CASES)  # one build_cfg per run
    assert not recorder.graph_mismatches
    assert sum(bool(result.applied) for result in results) >= 40
    # passes where a rebuilt graph would have had other fake edges
    assert recorder.moved >= 30


def test_rewritten_programs_agree_wherever_the_input_halts(recorded_runs):
    _, results = recorded_runs
    halted = 0
    for (seed, text), result in zip(CASES, results):
        program = parse_ir(text)
        variables = sorted(program.variables())
        for trial in range(4):
            init, mem = generate_inputs(seed * 1000 + trial, variables)
            try:
                before = interpret(program, init, mem, max_steps=HALT_STEPS)
            except StepLimitExceeded:
                continue
            halted += 1
            after = interpret(result.program, init, mem)
            assert equivalent_states(before, after, variables), (seed, trial)
    assert halted >= 80


def test_verify_changes_only_the_exit_status(tmp_path):
    for seed, text in CASES:
        plain = run_artifacts(text, tmp_path)
        assert plain[0] == 0, seed
        assert run_artifacts(text, tmp_path, "--verify") == plain, seed


def test_the_sample_divides_once_before_its_endless_loop(tmp_path, capsys):
    rc = main(["run", str(SAMPLE), "--verify", "--emit", "rewritten-ir",
               "--out-dir", str(tmp_path)])
    assert rc == 0 and "total eliminated=1" in capsys.readouterr().out
    out = parse_ir((tmp_path / "never_returns.out.ir").read_text())
    divisions = [i for i, ins in enumerate(out) if ins.kind == BINOP and ins.op == "/"]
    assert divisions == [out.labels()["L"] - 1]
