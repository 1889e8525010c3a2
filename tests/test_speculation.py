"""`run` under --safety auto and always evaluates no load and no division
that the input program does not.

``interpret`` reports the operand values of every load and division a run
evaluates.  Each frozen-corpus program, each never-returning program of
``test_never_returns`` and each program of ``GUARDED`` runs on seeded
inputs whose values lean to 0 and ±1, so divisions by zero and reads of
addresses the program does not otherwise touch occur.  Where the input
halts, the rewritten program must evaluate a subset of what the input
evaluated; where the input runs past the step limit, the rewritten program
must too.  ``--safety never`` lets the solver speculate, and the check must
flag it on every guarded program.
"""
import random

import pytest

from lospre.cli import RunConfig, run_pipeline
from lospre.interp import StepLimitExceeded, interpret
from lospre.ir import parse_ir
from test_never_returns import CASES as NEVER_RETURNING
from test_pipeline_frozen import cases

pytestmark = pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")

MAX_STEPS = 5000
TRIALS = 16


def evaluations(program, values, memory):
    """The set of ("*", address) and ("/", a, b) that ``program`` evaluates
    from ``values`` and ``memory``, or None when it runs past MAX_STEPS."""
    try:
        return interpret(program, values, memory, max_steps=MAX_STEPS).evaluated
    except StepLimitExceeded:
        return None


def leaning_inputs(name, trial, variables):
    """Seeded values and memory: 0 with odds 0.4, 1 or -1 with odds 0.2,
    else a value in -64..64; zeros steer branches both ways."""
    rng = random.Random(f"speculation/{name}/{trial}")

    def pick():
        r = rng.random()
        return 0 if r < 0.4 else rng.choice((1, -1)) if r < 0.6 else rng.randint(-64, 64)

    return {v: pick() for v in sorted(variables)}, {a: pick() for a in range(16)}


# a division or a load behind a test of its operand: computing it once
# before the test removes a computation, and speculates wherever the test fails
GUARDED = [
    ("guarded/division",
     "if d goto T\nx = 0\ngoto J\nT: x = a / d\nJ: if d goto U\nret\nU: y = a / d\nret\n"),
    ("guarded/load",
     "if p goto T\nx = 0\ngoto J\nT: x = *p\nJ: if p goto U\nret\nU: y = *p\nret\n"),
    ("guarded/loop",
     "i = 4\nL: if d goto T\ngoto N\nT: x = a / d\nN: if d goto U\ngoto M\n"
     "U: y = a / d\nM: i = i - 1\nif i goto L\nret\n"),
]

PROGRAMS = list(cases()) + [(f"never/{seed}", text) for seed, text in NEVER_RETURNING] + GUARDED


def speculations(safety):
    """The (name, trial) runs where the output of ``run --safety safety``
    evaluates what the input does not, or halts where the input does not;
    and how many input runs halted and diverged."""
    flagged, halted, diverged = [], 0, 0
    for name, text in PROGRAMS:
        program = parse_ir(text)
        output = run_pipeline(program, RunConfig(safety=safety)).program
        for trial in range(TRIALS):
            values, memory = leaning_inputs(name, trial, program.variables())
            before = evaluations(program, values, memory)
            after = evaluations(output, values, memory)
            halted += before is not None
            diverged += before is None
            if (after is None) != (before is None) or after is not None and after - before:
                flagged.append((name, trial))
    return flagged, halted, diverged


@pytest.mark.parametrize("safety", ["auto", "always"])
def test_safe_runs_evaluate_nothing_the_input_does_not(safety):
    flagged, halted, diverged = speculations(safety)
    assert not flagged
    assert halted >= 10000 and diverged >= 400, (halted, diverged)


def test_the_check_flags_speculation_under_safety_never():
    flagged, _, _ = speculations("never")
    expected = {"corpus/90", "corpus/262", *(name for name, _ in GUARDED)}
    assert {name for name, _ in flagged} >= expected
