"""Lifetime-optimal speculative partial redundancy elimination.

The library picks, for one expression at a time, the set of program points
where a temporary holding the expression's value stays alive and the set
of edges where it is (re)computed, minimizing computation cost first and
lifetime cost second.  It runs in time linear in the program size for
control-flow graphs of bounded treewidth, by dynamic programming over a
nice tree-decomposition, and comes with brute-force oracles that certify
optimality on small instances.
"""

from .cost import INFINITY, ZERO, CostVec, format_cost, parse_cost
from .cfg import (Cfg, ExprProblem, calc_set, dump_dot, load_cfg,
                  make_problem, total_cost, validate_problem)
from .treedec import (NiceTreeDec, TreeDec, decompose, dump_dot_treedec,
                      make_nice, validate, validate_nice)
from .dp import LospreSolution, format_solution, solve, solve_extended
from .safety import SafetySolution, apply_safety, solve_safety
from .oracle import (InstanceGenerator, brute_extended, brute_lospre,
                     brute_safety, generate, generate_program_text)
from .ir import (ExprCandidate, Instruction, Program, build_cfg, copy_propagate,
                 derive_problems, format_ir, parse_ir, rewrite)
from .interp import InterpResult, equivalent_states, interpret
from .errors import (CfgError, DecompositionError, GraphFormatError,
                     IrParseError, LospreError, NoFeasibleSolutionError,
                     SizeGuardError, WidthExceededError)

__all__ = [
    "CostVec", "ZERO", "INFINITY", "parse_cost", "format_cost",
    "Cfg", "ExprProblem", "make_problem", "validate_problem", "calc_set",
    "total_cost", "load_cfg", "dump_dot",
    "TreeDec", "NiceTreeDec", "decompose", "validate", "make_nice",
    "validate_nice", "dump_dot_treedec",
    "LospreSolution", "solve", "solve_extended", "format_solution",
    "SafetySolution", "solve_safety", "apply_safety",
    "InstanceGenerator", "generate", "brute_lospre", "brute_safety",
    "brute_extended", "generate_program_text",
    "Instruction", "Program", "ExprCandidate", "parse_ir", "build_cfg",
    "derive_problems", "rewrite", "copy_propagate", "format_ir",
    "InterpResult", "interpret", "equivalent_states",
    "LospreError", "CfgError", "GraphFormatError", "IrParseError",
    "DecompositionError", "WidthExceededError", "SizeGuardError",
    "NoFeasibleSolutionError",
]

__version__ = "0.1.0"
