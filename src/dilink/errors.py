"""Exception taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "DilinkError",
    "ArithmeticOverflow",
    "CoordinateOverflow",
    "DegenerateProjection",
    "DisjointnessViolated",
    "MissingArc",
    "NotACycle",
    "NotApplicable",
    "BadColumn",
    "TooLarge",
    "SearchBudgetExceeded",
    "Impossible",
    "HypothesisViolated",
    "SurgeryFailed",
    "NotEnoughKeyrings",
    "ConstructionFailed",
    "GenerationFailed",
    "FormatError",
]


class DilinkError(Exception):
    """Base class for all package-specific failures."""


class ArithmeticOverflow(DilinkError):
    """An exact result would be too large to represent in memory."""


class CoordinateOverflow(DilinkError):
    """A coordinate left the exact-arithmetic safety box."""


class DegenerateProjection(DilinkError):
    """The standard z-projection of the given geometry is not generic.

    Carries the offending validation report in ``violations`` so callers can
    decide whether to shear and retry.
    """

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class DisjointnessViolated(DilinkError):
    """Loops or cycles that must be disjoint share geometry."""


class MissingArc(DilinkError):
    """A cycle step refers to a directed edge with no embedded arc."""


class NotACycle(DilinkError):
    """Combinatorial input does not form (or produce) a valid simple cycle."""


class NotApplicable(DilinkError):
    """Operation undefined for this input (e.g. no direction changes)."""


class BadColumn(DilinkError):
    """A GF(2) matrix column violates the all-columns-covered hypothesis."""


class TooLarge(DilinkError):
    """Input exceeds a hard exactness/enumeration bound."""


class SearchBudgetExceeded(DilinkError):
    """A backtracking search ran out of its node budget."""


class Impossible(DilinkError):
    """A result that a theorem guarantees came out wrong.

    Raised when an all-pairs sweep exhausts a family whose odd total forces
    at least one odd member (carrying the full table for inspection), and by
    the result guards: an odd signed crossing sum between two closed
    curves, a knot Conway polynomial without constant term 1, a crossing
    not passed exactly twice, a nabla result with no arc to orient it by,
    a theorem-2 threshold below its bounds, or a heavy vector whose offset
    sum is lighter than half the columns.
    """

    def __init__(self, message: str, table: dict | None = None):
        super().__init__(message)
        self.table = dict(table or {})


class HypothesisViolated(DilinkError):
    """A construction's stated hypothesis fails on the given input."""


class SurgeryFailed(DilinkError):
    """A cycle surgery step could not be applied to the recorded pair."""


class NotEnoughKeyrings(DilinkError):
    """The pattern does not contain the keyring structures a step needs."""


class ConstructionFailed(DilinkError):
    """A construction pipeline could not reach its stated conclusion."""


class GenerationFailed(DilinkError):
    """A generator exhausted its resampling budget."""


class FormatError(DilinkError):
    """A serialized document does not match the interchange schema."""
