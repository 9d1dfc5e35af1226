"""Exception types shared across the package.

Everything raised on purpose derives from TwogapError so callers (and the
CLI) can separate our diagnostics from genuine bugs.
"""

__all__ = [
    "TwogapError",
    "ValidationError",
    "OrderingViolation",
    "RangeViolation",
    "DegenerateRegime",
    "NotDecoupled",
    "OutOfDomain",
    "SupportViolation",
    "EmptySupport",
    "NegativeTime",
    "HalfPlaneViolation",
    "ParseError",
]


class TwogapError(Exception):
    """Base class for all package-level errors."""


class ValidationError(TwogapError):
    """Structurally invalid input (bad breakpoints, malformed scenario...)."""


class OrderingViolation(ValidationError):
    """Interval endpoints out of order (requires 1 < alpha < beta)."""


class RangeViolation(ValidationError):
    """A parameter left its allowed range (e.g. coupling w outside [0, 1])."""


class DegenerateRegime(TwogapError):
    """Operation undefined in the decoupled w = 0 regime."""


class NotDecoupled(TwogapError):
    """Operation only makes sense at w = 0 (pure point spectrum machinery)."""


class OutOfDomain(TwogapError):
    """Point evaluation requested on a removed interval or its boundary."""


class SupportViolation(ValidationError):
    """A packet carries mass on the removed intervals where none is allowed."""


class EmptySupport(ValidationError):
    """Incoming data must live on the left half-line and does not."""


class NegativeTime(TwogapError):
    """The compressed semigroup only runs forward in time."""


class HalfPlaneViolation(TwogapError):
    """Resolvent parameter must have positive real part."""


class ParseError(ValidationError):
    """Scenario file could not be parsed."""
