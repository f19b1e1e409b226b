"""Error taxonomy shared across the package.

Four failure modes, kept deliberately coarse: bad data, bad usage,
numeric failures, and oracle budget refusals.  Everything
derives from BesovkError so callers can catch the lot in one clause.
"""

__all__ = ["BesovkError", "DataError", "UsageError", "NumericError", "BudgetError"]


class BesovkError(Exception):
    """Base class for package errors."""


class DataError(BesovkError):
    """Malformed or non-finite input data (NaN coefficients, bad files)."""


class UsageError(BesovkError):
    """Invalid parameters or unsupported operation requested."""


class NumericError(BesovkError):
    """A value left double range, or an interpolation window reached its
    cap short of its tail tolerance."""


class BudgetError(BesovkError):
    """An exhaustive oracle refused a problem larger than its budget."""
