"""Invalidation-set enlargement for safety-required expressions.

An expression that may trap or touch I/O must never be computed on operand
values the original program would not compute on.  That is enforced by
enlarging the invalidation set: nodes lying in unguarded corridors between
invalidating nodes, whose interiors avoid the use set, become invalidating
themselves, which walls off exactly the unsafe speculation corridors.

The added set is the largest set A of eligible nodes (outside both the use
set and the invalidation set) in which every node v has
  - a successor w != v with w in A, or w invalidating and not a use, and
  - a predecessor u != v with u in A, or u invalidating.
Both conditions are monotone in A, so admissible sets are closed under
union and the largest one is the greatest fixpoint.  It is computed in
O(|V| + |E|) by a peel: start from every eligible node, count each node's
successor and predecessor witnesses, and remove any node whose count
reaches zero, decrementing the counts of its neighbours.  No decomposition
is needed.  On acyclic graphs the set equals the path closure of
``oracle.brute_safety``; in loops, mutually supporting nodes can make it a
superset of the closure.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cfg import Cfg, ExprProblem, validate_problem


@dataclass(frozen=True)
class SafetySolution:
    """The enlarged invalidation set and the nodes it gained."""

    i_prime: frozenset
    added: frozenset


def apply_safety(problem: ExprProblem, sol: SafetySolution) -> ExprProblem:
    """Substitute the enlarged invalidation set into the problem."""
    return ExprProblem(use_set=problem.use_set, invalidation_set=sol.i_prime)


def solve_safety(cfg: Cfg, problem: ExprProblem, nice=None) -> SafetySolution:
    """Compute the enlarged invalidation set as a greatest fixpoint.

    ``nice`` is accepted and ignored: the peel runs in linear time on any
    graph, so it needs no decomposition and has no width limit.
    """
    validate_problem(cfg, problem)
    use = problem.use_set
    inv = problem.invalidation_set
    n = cfg.node_count
    succ, pred = cfg.successors, cfg.predecessors

    alive = [v not in use and v not in inv for v in range(n)]
    succ_witness = [alive[w] or (w in inv and w not in use) for w in range(n)]
    pred_witness = [alive[u] or u in inv for u in range(n)]
    # a self-loop does not let a node witness itself
    succ_count = [sum(succ_witness[w] for w in succ(v) if w != v) for v in range(n)]
    pred_count = [sum(pred_witness[u] for u in pred(v) if u != v) for v in range(n)]

    stack = [v for v in range(n) if alive[v] and not (succ_count[v] and pred_count[v])]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for u in pred(v):
            if alive[u]:
                succ_count[u] -= 1
                if not succ_count[u]:
                    alive[u] = False
                    stack.append(u)
        for w in succ(v):
            if alive[w]:
                pred_count[w] -= 1
                if not pred_count[w]:
                    alive[w] = False
                    stack.append(w)

    added = frozenset(v for v in range(n) if alive[v])
    return SafetySolution(i_prime=frozenset(inv | added), added=added)
