"""Cost values: lexicographically ordered integer pairs with an absorbing infinity.

The primary component counts computation cost units (edge subdivisions),
the secondary component lifetime cost units (temporary liveness).
Components are exact Python integers of any size: sums never overflow and
never lose precision.  The solvers map each solve's costs to
one integer key of their own (see ``dp``).
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass


@functools.total_ordering
@dataclass(frozen=True)
class CostVec:
    """An immutable cost pair, compared lexicographically.

    INFINITY is strictly greater than every finite value, absorbs addition
    and has both components 0.  Instances are freely shareable across threads.
    """

    primary: int = 0
    secondary: int = 0
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "primary", 0)
            object.__setattr__(self, "secondary", 0)

    def __add__(self, other: "CostVec") -> "CostVec":
        if self.infinite or other.infinite:
            return INFINITY
        return CostVec(self.primary + other.primary, self.secondary + other.secondary)

    def __lt__(self, other: "CostVec") -> bool:
        if self.infinite:
            return False
        if other.infinite:
            return True
        return (self.primary, self.secondary) < (other.primary, other.secondary)

    def __repr__(self):
        return "CostVec.INFINITY" if self.infinite else f"CostVec({self.primary}, {self.secondary})"


ZERO = CostVec(0, 0)
INFINITY = CostVec(infinite=True)

_COST_RE = re.compile(r"\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")


def sum_costs(costs: list) -> CostVec:
    """The sum of ``costs``: one CostVec built from integer component sums."""
    return INFINITY if any(c.infinite for c in costs) else \
        CostVec(sum(c.primary for c in costs), sum(c.secondary for c in costs))


def parse_cost(text: str, *, edge: bool = False) -> CostVec:
    """Parse ``inf`` or ``[primary,secondary]``; an ``edge`` cost below [0,0] is refused."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    m = _COST_RE.match(text)
    if m is None:
        raise ValueError(f"malformed cost {text!r}: expected 'inf' or '[p,s]'")
    cost = CostVec(int(m.group(1)), int(m.group(2)))
    if edge and cost < ZERO:
        raise ValueError(f"edge cost {text!r} is below [0,0]: an edge cost counts computations")
    return cost


def format_cost(c: CostVec) -> str:
    return "inf" if c.infinite else f"[{c.primary},{c.secondary}]"

