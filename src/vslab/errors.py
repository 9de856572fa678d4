"""Exception hierarchy shared by all vslab modules."""


class VslabError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(VslabError, ValueError):
    """Input outside the hypotheses or the range an operation is defined on."""


class BudgetExceeded(VslabError):
    """The requested enumeration is larger than the configured budget."""


class BrokenInvariant(VslabError):
    """A computed result broke a property the mathematics guarantees: a bug."""
