"""Exception types shared across the package."""

__all__ = [
    "PartialSearchError",
    "TooSmallError",
    "NonDivisibleError",
    "PrecisionError",
    "BadIndexError",
    "CapExceededError",
    "BadStateFileError",
    "BadKError",
    "BadVariantError",
    "InfeasibleError",
]


class PartialSearchError(Exception):
    """Base class for every error this package raises deliberately."""


class TooSmallError(PartialSearchError, ValueError):
    """The database must contain at least two items."""


class NonDivisibleError(PartialSearchError, ValueError):
    """The block count must divide the database size exactly."""


class PrecisionError(PartialSearchError, ValueError):
    """The database size exceeds the exact integer range of float64 (2**53)."""


class BadIndexError(PartialSearchError, IndexError):
    """Target index outside [0, n_items)."""


class CapExceededError(PartialSearchError):
    """The requested state vector is larger than the amplitude cap."""


class BadStateFileError(PartialSearchError, ValueError):
    """A PGSV file with a bad header, or a payload of the wrong size or not finite."""


class BadKError(PartialSearchError, ValueError):
    """Block count outside the supported range."""


class BadVariantError(PartialSearchError, ValueError):
    """Unknown lower-bound variant name."""


class InfeasibleError(PartialSearchError):
    """No schedule in the search range meets the success threshold."""
