"""Exception types shared across the package.

Everything raised on purpose derives from QnetoptError so callers can catch
one base class.  Validation errors carry enough payload (level, residual) to
be reported without re-running the check.
"""


class QnetoptError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(QnetoptError):
    """Two tensor factors carry the same label id."""


class UnknownLabel(QnetoptError):
    """A referenced label id is not present on the operator."""


class BadPermutation(QnetoptError):
    """The requested factor order is not a permutation of the current one."""


class NotHermitian(QnetoptError):
    """Operation requires a Hermitian matrix and the input is not."""


class ShapeMismatch(QnetoptError):
    """Factor structures of two operators do not line up."""


class DimensionCap(QnetoptError):
    """Total dimension exceeds the configured cap."""


class NotTracePreserving(QnetoptError):
    """Kraus operators do not sum to the identity on the input space."""


class NotAState(QnetoptError):
    """Matrix is not positive semidefinite with unit trace."""


class NotPSD(QnetoptError):
    """Matrix has an eigenvalue below the allowed tolerance."""


class NormalizationViolation(QnetoptError):
    """A recursive partial-trace normalization check failed.

    Attributes
    ----------
    level : int
        Recursion level at which the check failed (1 is the innermost).
    residual : float
        Max-entry norm of the violated equality.
    """

    def __init__(self, level, residual):
        self.level = level
        self.residual = residual
        super().__init__("normalization violated at level %d (residual %.3e)"
                         % (level, residual))


class OutcomeMismatch(QnetoptError):
    """Tester outcomes do not match the problem's estimate labels."""


class MaxIterations(QnetoptError):
    """Iteration limit reached before convergence."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class NumericalFailure(QnetoptError):
    """Solver made no progress or a factorization failed."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class InvalidComb(QnetoptError):
    """Certificate operator is not a valid comb."""


class NotLeftInvariant(QnetoptError):
    """Payoff matrix is not invariant under left group translations."""


class NonProductPayoff(QnetoptError):
    """Supplied joint problem is not the product of the factor problems."""


class BadParameter(QnetoptError):
    """Parameter outside its documented range."""


class BadDimension(QnetoptError):
    """Dimension argument outside its documented range."""


class UnknownExample(QnetoptError):
    """Example name not recognized by the command line front end."""


class ParseError(QnetoptError):
    """Input file could not be parsed into the expected structure."""
