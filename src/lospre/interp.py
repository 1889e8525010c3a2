"""Interpreter for the mini IR, used to check that rewriting preserves semantics.

Memory is a flat sparse array: a dict from integer addresses to integer
values, reading 0 for untouched cells.  Uninitialized variables read 0.
The arithmetic is total so random programs always have defined behavior:
division by zero yields 0, division and modulo follow Python's floor
semantics, and shift amounts are masked to 0..63.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, and_, mul, or_, sub, xor

from .errors import LospreError
from .ir import ASSIGN, BINOP, BRANCH, JUMP, LOAD, RET, STORE, UNOP


class StepLimitExceeded(LospreError):
    pass


@dataclass
class InterpResult:
    variables: dict
    memory: dict = field(default_factory=dict)
    evaluated: set = field(default_factory=set)  # ("*", address) of loads, ("/", a, b) of divisions


_BINOPS = {"+": add, "-": sub, "*": mul, "/": lambda a, b: 0 if b == 0 else a // b,
           "<<": lambda a, b: a << (b & 63), ">>": lambda a, b: a >> (b & 63),
           "&": and_, "|": or_, "^": xor}


def _binop(op, a, b):
    if op not in _BINOPS:
        raise LospreError(f"unknown operator {op!r}")
    return _BINOPS[op](a, b)


def interpret(program, initial_vars=None, memory=None, *, max_steps=100000) -> InterpResult:
    """Run a program to its ret (or off the end) and return the final state."""
    instructions = list(program)
    labels = {ins.label: i for i, ins in enumerate(instructions) if ins.label}
    variables = dict(initial_vars or {})
    mem = dict(memory or {})
    evaluated = set()

    def value(operand):
        if isinstance(operand, int):
            return operand
        return variables.get(operand, 0)

    pc = 0
    steps = 0
    n = len(instructions)
    while pc < n:
        steps += 1
        if steps > max_steps:
            raise StepLimitExceeded(f"exceeded {max_steps} interpreter steps")
        ins = instructions[pc]
        kind = ins.kind
        if kind == ASSIGN:
            variables[ins.dest] = value(ins.left)
        elif kind == BINOP:
            a, b = value(ins.left), value(ins.right)
            if ins.op == "/":
                evaluated.add(("/", a, b))
            variables[ins.dest] = _binop(ins.op, a, b)
        elif kind == UNOP:
            variables[ins.dest] = -value(ins.left) if ins.op == "-" else ~value(ins.left)
        elif kind == LOAD:
            evaluated.add(("*", value(ins.left)))
            variables[ins.dest] = mem.get(value(ins.left), 0)
        elif kind == STORE:
            mem[value(ins.left)] = value(ins.right)
        elif kind == BRANCH:
            if value(ins.left) != 0:
                pc = labels[ins.target]
                continue
        elif kind == JUMP:
            pc = labels[ins.target]
            continue
        elif kind == RET:
            break
        pc += 1
    return InterpResult(variables, {a: v for a, v in mem.items() if v != 0}, evaluated)


def equivalent_states(before: InterpResult, after: InterpResult, variables) -> bool:
    """Compare final memory and the given variables (rewrites add fresh temps)."""
    return before.memory == after.memory and \
        all(before.variables.get(v, 0) == after.variables.get(v, 0) for v in variables)
