"""Exception hierarchy shared by all vslab modules."""


class VslabError(Exception):
    """Base class for every error raised by this package."""


class EvenCharacteristic(VslabError):
    """Characteristic 2 (or a non-prime p) was requested."""


class ReducibleModulus(VslabError):
    """The supplied extension modulus is not irreducible over F_p."""


class DivisionByZero(VslabError, ZeroDivisionError):
    """Division or inversion of the zero field element."""


class ZeroPolynomial(VslabError):
    """An operation that needs a nonzero polynomial received the zero one."""


class NonMonic(VslabError):
    """Discriminants are only defined here for monic polynomials."""


class DegreeTooSmall(VslabError):
    """Polynomial degree below the operation's minimum."""


class InexactDivision(VslabError):
    """Multivariate exact division left a nonzero remainder."""


class DegenerateLeadingCoefficient(VslabError):
    """A symbolic Sylvester construction saw a vanishing leading coefficient."""


class DegenerateCase(VslabError):
    """The symbolic derivative vanishes identically; no discriminant exists."""


class InvalidParameter(VslabError, ValueError):
    """An argument lies outside the range the operation is defined on."""


class LengthMismatch(VslabError):
    """A free-coefficient vector has the wrong length for the family."""


class RegimeViolation(VslabError):
    """Parameters outside the regime in which the requested identity holds."""


class RangeMismatch(VslabError):
    """A supplied chi vector / S matrix is missing required cells."""


class BudgetExceeded(VslabError):
    """The requested enumeration is larger than the configured budget."""


class NotUniqueRegime(VslabError):
    """Subset interpolation is only unique for r >= d-s+1."""


class OverlappingSubsets(VslabError):
    """The two subsets handed to the linear-system audit intersect."""


class NotOnVariety(VslabError):
    """A coordinate that must be a root of the polynomial is not one."""


class CaseMismatch(VslabError):
    """The (p, d) pair does not select the requested characteristic case."""


class MissingParameter(VslabError):
    """A bound evaluator was called without one of its required parameters."""


class SchemaMismatch(VslabError):
    """CSV files with different column sets cannot be merged."""


class BrokenInvariant(VslabError):
    """A computed result broke a property the mathematics guarantees."""


class Int64Overflow(VslabError):
    """No chunk size keeps the sweep's int64 intermediates below 2^63."""
