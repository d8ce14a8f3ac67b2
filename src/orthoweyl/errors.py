"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "OrthoweylError",
    "DimensionError",
    "IndexRangeError",
    "UnsupportedRankError",
    "UnsupportedKindError",
    "RankGuardError",
    "NeedsAssignmentError",
    "NotCosetRepresentativeError",
    "RegularityError",
    "RegimeError",
]


class OrthoweylError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionError(OrthoweylError):
    """Operands live in variable universes of different sizes."""


class IndexRangeError(OrthoweylError):
    """A simple-reflection or coordinate index is out of range."""


class UnsupportedRankError(OrthoweylError):
    """The requested rank is below the minimum for the Dynkin kind."""


class UnsupportedKindError(OrthoweylError):
    """The Dynkin kind is neither B nor D."""


class RankGuardError(OrthoweylError):
    """A factorial-size enumeration was refused; carries a size estimate."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


class NeedsAssignmentError(OrthoweylError):
    """A numeric value was required but the weight is still symbolic."""


class NotCosetRepresentativeError(OrthoweylError):
    """The word is not a minimal coset representative for the parabolic."""


class RegularityError(OrthoweylError):
    """A numeric highest weight must be regular (all coordinates > 0)."""


class RegimeError(OrthoweylError):
    """The signature parameter n is outside the supported range n >= 5."""
