"""Exception types raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto exit codes (1 for validation problems, 2 for
numerical failures).
"""


class PoletraceError(Exception):
    """Base class for all package errors."""


class ValidationError(PoletraceError, ValueError):
    """Bad inputs: malformed paths, descriptors, or violated preconditions."""


class NumericalError(PoletraceError, ArithmeticError):
    """A computation could not be carried out to the requested accuracy."""


class InvalidPathError(ValidationError):
    """A w-path has fewer than 2 points or repeated consecutive points."""


class StartInLeftHalfPlaneError(ValidationError):
    """Continuation paths must start with Re(w) > 1/2."""


class InvalidPathPairError(ValidationError):
    """Path pair is not one branch-flipping and one branch-keeping path to w_end."""


class DegenerateParametrizationError(ValidationError):
    """alpha = 0 collapses the radicand curve onto the real axis."""


class InvalidCharacterError(ValidationError):
    """Character parameters with nonzero trace."""


class BranchAmbiguityError(ValidationError):
    """Radicand on the branch cut; a pathwise continuation is required."""


class BranchPointCollisionError(NumericalError):
    """The radicand curve passes within tolerance of the origin."""


class PoleOnContourError(ValidationError):
    """A pole sits on the integration contour."""


class QuadratureFailureError(NumericalError):
    """Adaptive quadrature failed to converge.

    Carries the worst offending interval for diagnosis.
    """

    def __init__(self, message, worst_interval=None, est_error=None):
        super().__init__(message)
        self.worst_interval = worst_interval
        self.est_error = est_error


class AsymmetricNumeratorError(ValidationError):
    """Numerator fails the s <-> 1-s symmetry check on the critical line."""


class DivergentSumError(ValidationError):
    """Lattice sum requested outside its region of absolute convergence."""


class DomainError(ValidationError):
    """Argument outside the domain of a special function."""
