"""Exception hierarchy shared across the package."""


class LospreError(Exception):
    """Base class for all errors raised by this package."""


class CfgError(LospreError):
    """A control-flow graph or problem invariant is violated."""


class InputFormatError(LospreError):
    """Malformed input text.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(InputFormatError):
    """Malformed graph file."""


class IrParseError(InputFormatError):
    """Malformed IR text."""


class DecompositionError(LospreError):
    """A tree-decomposition is structurally invalid or does not match the graph."""


class WidthExceededError(LospreError):
    """The decomposition width exceeds the configured table-size guard."""


class SizeGuardError(LospreError):
    """A brute-force enumeration was asked to run on an instance that is too large."""


class NoFeasibleSolutionError(LospreError):
    """Every assignment has infinite cost (possible only with user-supplied infinities)."""
