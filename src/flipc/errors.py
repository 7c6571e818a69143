"""Exception hierarchy shared across the pipeline.

User-facing errors (bad programs, bad files, resource limits) derive from
FlipcError and carry an optional source span.  Internal invariant violations
use InternalError and indicate a bug in the compiler itself.
"""

from __future__ import annotations


class FlipcError(Exception):
    """Base class for all user-facing errors."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class ParseError(FlipcError):
    pass


class UnboundIdentifierError(FlipcError):
    pass


class TypeMismatchError(FlipcError):
    def __init__(self, expected, found, span=None):
        super().__init__(f"type mismatch: expected {expected}, found {found}", span)
        self.expected = expected
        self.found = found


class RecursiveCallError(FlipcError):
    """Call to an undefined, later, or self-referencing function."""


class ObserveNonBoolError(FlipcError):
    pass


class SizeMismatchError(FlipcError):
    def __init__(self, left: int, right: int, span=None):
        super().__init__(f"integer size mismatch: {left} vs {right}", span)
        self.left = left
        self.right = right


class BadDistributionError(FlipcError):
    pass


class OracleLimitError(FlipcError):
    """Enumeration refused: too many flips for brute force."""


class MissingWeightError(FlipcError):
    pass


class NodeLimitError(FlipcError):
    """The node store exceeded the configured cap."""


class ShapeMismatchError(FlipcError):
    pass


class OutputTooWideError(FlipcError):
    def __init__(self, values: int, cap: int):
        super().__init__(f"output type has {values} values, cap is {cap}")
        self.values = values
        self.cap = cap


class UnboundFreeVariableError(FlipcError):
    pass


class BifParseError(FlipcError):
    pass


class CyclicNetworkError(FlipcError):
    pass


class MalformedCptError(FlipcError):
    pass


class UnknownQueryVariableError(FlipcError):
    pass


class InternalError(Exception):
    """A compiler invariant was violated; not a user error."""
