"""Exception types shared across the toolkit.

Every failure mode callers are expected to branch on gets its own class;
all of them inherit from :class:`MslabError` so blanket handling stays
possible at the CLI boundary.
"""

from __future__ import annotations

__all__ = [
    "MslabError",
    "MetricValidationError",
    "AsymmetricMatrixError",
    "NonzeroDiagonalError",
    "TriangleViolationError",
    "NegativeDistanceError",
    "ZeroOffDiagonalError",
    "EmptySubsetError",
    "EmptyTupleError",
    "LengthMismatchError",
    "InvalidParameterError",
    "InvalidCorrespondenceError",
    "SizeCapExceededError",
    "UnsupportedCaseError",
    "NotDeltaConnectedError",
    "DiameterExceedsTError",
]


class MslabError(Exception):
    """Base class for all library errors."""


class MetricValidationError(MslabError):
    """A distance matrix violates one of the metric axioms."""


class AsymmetricMatrixError(MetricValidationError):
    pass


class NonzeroDiagonalError(MetricValidationError):
    pass


class NegativeDistanceError(MetricValidationError):
    pass


class ZeroOffDiagonalError(MetricValidationError):
    pass


class TriangleViolationError(MetricValidationError):
    """d[i][j] > d[i][k] + d[k][j]; the offending triple is kept."""

    def __init__(self, i: int, j: int, k: int):
        self.i = i
        self.j = j
        self.k = k
        super().__init__(f"d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}]")


class EmptySubsetError(MslabError):
    pass


class EmptyTupleError(MslabError):
    pass


class LengthMismatchError(MslabError):
    pass


class InvalidParameterError(MslabError):
    pass


class InvalidCorrespondenceError(MslabError):
    pass


class SizeCapExceededError(MslabError):
    """An enumeration would exceed an explicit size or budget cap."""


class UnsupportedCaseError(MslabError):
    """The requested closed form has no formula for these arguments."""


class NotDeltaConnectedError(MslabError):
    pass


class DiameterExceedsTError(MslabError):
    pass
