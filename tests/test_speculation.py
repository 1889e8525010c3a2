"""`run` under --safety auto and always evaluates no load and no division
that the input program does not.

A small stepper records the operand values of every load and division a
program evaluates.  Each frozen-corpus program and each never-returning
program of ``test_never_returns`` runs on four seeded inputs whose values
lean to 0 and ±1, so divisions by zero and reads of addresses the program
does not otherwise touch occur.  Where the input halts, the rewritten
program must evaluate a subset of what the input evaluated; where the input
runs past the step limit, the rewritten program must too.  ``--safety
never`` lets the solver speculate, and the check must flag it somewhere.
"""
import random

import pytest

from lospre.cli import RunConfig, run_pipeline
from lospre.interp import _binop
from lospre.ir import ASSIGN, BINOP, BRANCH, JUMP, LOAD, RET, STORE, UNOP, parse_ir
from test_never_returns import CASES as NEVER_RETURNING
from test_pipeline_frozen import cases

pytestmark = pytest.mark.filterwarnings("ignore::lospre.ir.UnreachableCodeWarning")

MAX_STEPS = 5000
TRIALS = 4


def evaluations(program, values, memory):
    """The set of ("*", address) and ("/", a, b) that ``program`` evaluates
    from ``values`` and ``memory``, or None when it runs past MAX_STEPS."""
    instructions, labels = list(program), program.labels()
    env, mem, seen = dict(values), dict(memory), set()

    def value(operand):
        return operand if isinstance(operand, int) else env.get(operand, 0)

    pc = 0
    for _ in range(MAX_STEPS):
        if pc == len(instructions):
            return seen
        ins = instructions[pc]
        pc += 1
        if ins.kind == ASSIGN:
            env[ins.dest] = value(ins.left)
        elif ins.kind == BINOP:
            a, b = value(ins.left), value(ins.right)
            if ins.op == "/":
                seen.add(("/", a, b))
            env[ins.dest] = _binop(ins.op, a, b)
        elif ins.kind == UNOP:
            env[ins.dest] = -value(ins.left) if ins.op == "-" else ~value(ins.left)
        elif ins.kind == LOAD:
            seen.add(("*", value(ins.left)))
            env[ins.dest] = mem.get(value(ins.left), 0)
        elif ins.kind == STORE:
            mem[value(ins.left)] = value(ins.right)
        elif ins.kind == JUMP or ins.kind == BRANCH and value(ins.left) != 0:
            pc = labels[ins.target]
        elif ins.kind == RET:
            return seen
    return None


def leaning_inputs(name, trial, variables):
    """Seeded values and memory: 0 with odds 0.4, 1 or -1 with odds 0.2,
    else a value in -64..64; zeros steer branches both ways."""
    rng = random.Random(f"speculation/{name}/{trial}")

    def pick():
        r = rng.random()
        return 0 if r < 0.4 else rng.choice((1, -1)) if r < 0.6 else rng.randint(-64, 64)

    return {v: pick() for v in sorted(variables)}, {a: pick() for a in range(16)}


PROGRAMS = list(cases()) + [(f"never/{seed}", text) for seed, text in NEVER_RETURNING]


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
    assert halted >= 2500 and diverged >= 60, (halted, diverged)


def test_the_check_flags_speculation_under_safety_never():
    flagged, _, _ = speculations("never")
    assert flagged
