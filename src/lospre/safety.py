"""Invalidation-set enlargement for safety-required expressions.

An expression that may trap or touch I/O must never be computed on operand
values the original program would not compute on.  In the terms of lazy
code motion (Knoop, Ruething and Steffen, PLDI 1992), a node is up-safe
when every path from the source to it passes a use after the last
invalidation, and down-safe when every path from it reaches a use before an
invalidation; a path that cycles without a use reaches none, and a node's
own self-loop is ignored.  A node that uses and invalidates (``v = *v``
reads before it writes) counts as a use for down-safety and as an
invalidation for up-safety.  Every node outside the use and invalidation
sets that is neither up-safe nor down-safe becomes invalidating, which
walls off exactly the unsafe speculation corridors.

"Not up-safe" is forward reachability from the invalidation set through
non-use nodes.  "Not down-safe" is the largest set of eligible nodes in
which every node v has a successor w != v in the set, or invalidating and
not a use: a peel counts each node's successor witnesses and removes any
node whose count reaches zero.  Both take O(|V| + |E|) and no
decomposition; ``oracle.brute_safety`` checks them as two dataflow sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cfg import Cfg, ExprProblem, reach, validate_problem


@dataclass(frozen=True)
class SafetySolution:
    """The enlarged invalidation set and the nodes it gained."""

    i_prime: frozenset
    added: frozenset


def apply_safety(problem: ExprProblem, sol: SafetySolution) -> ExprProblem:
    """Substitute the enlarged invalidation set into the problem."""
    return ExprProblem(use_set=problem.use_set, invalidation_set=sol.i_prime)


def solve_safety(cfg: Cfg, problem: ExprProblem, nice=None) -> SafetySolution:
    """The enlarged invalidation set: every eligible node that is neither
    up-safe nor down-safe joins it.

    ``nice`` is accepted and ignored: both halves run in linear time on any
    graph, so they need no decomposition and have no width limit.
    """
    validate_problem(cfg, problem)
    use = problem.use_set
    inv = problem.invalidation_set
    n = cfg.node_count
    succ, pred = cfg.succ, cfg.pred

    alive = [v not in use and v not in inv for v in range(n)]
    witness = [alive[w] or (w in inv and w not in use) for w in range(n)]
    # a self-loop does not let a node witness itself
    count = [sum(witness[w] for w in succ[v] if w != v) for v in range(n)]

    stack = [v for v in range(n) if alive[v] and not count[v]]
    for v in stack:
        alive[v] = False
    while stack:
        for u in pred[stack.pop()]:
            if alive[u]:
                count[u] -= 1
                if not count[u]:
                    alive[u] = False
                    stack.append(u)

    added = frozenset(v for v in reach(inv, succ, use) if alive[v])
    return SafetySolution(i_prime=frozenset(inv | added), added=added)
