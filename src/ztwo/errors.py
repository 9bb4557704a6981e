"""Exception types shared across the package.

Every error raised on purpose derives from ZtwoError, so callers (and the
CLI) can distinguish domain errors from genuine bugs.
"""


class ZtwoError(Exception):
    """Base class for all expected failures."""


class InvalidInput(ZtwoError):
    """Argument outside the documented range or of the wrong shape."""


class NotSquarefree(InvalidInput):
    """A square divides an integer that must be squarefree."""


class NonCoprime(ZtwoError):
    """Symbol arguments share a factor; the symbol is 0, never +-1."""


class InvalidModulus(InvalidInput):
    """Jacobi symbol requested for an even or too small modulus."""


class NotQuadraticResidue(ZtwoError):
    """Quartic symbol requested for a quadratic non-residue."""


class BadPrimeClass(ZtwoError):
    """Prime lies in the wrong congruence class for the operation."""


class IndefiniteForm(InvalidInput):
    """Binary quadratic form has non-negative discriminant."""


class MismatchedDiscriminant(InvalidInput):
    """Two forms being composed have different discriminants."""


class EnumerationBoundExceeded(ZtwoError):
    """|D| too large for exact class-group enumeration."""


class NoRepresentationInBound(ZtwoError):
    """No representation of the requested kind exists."""


class NoSolutionInBound(ZtwoError):
    """solve_legendre's Z scan reached LEGENDRE_Z_CAP without a solution."""


class PrecondViolated(ZtwoError):
    """Solver or criterion called outside its congruence/symbol hypotheses."""


class UnsupportedFamily(ZtwoError):
    """No exact prediction exists for this classification."""
