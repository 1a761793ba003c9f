"""Exception hierarchy shared by all gspline modules."""


class GSplineError(Exception):
    """Base class for all gspline errors."""


class FormatError(GSplineError):
    """Malformed input data (non-quad faces, unparsable OBJ records, ...)."""


class EmptyError(FormatError):
    """Input contains no faces."""


class TopologyError(GSplineError):
    """Connectivity is not a consistently oriented manifold quad net."""


class DomainError(GSplineError):
    """Argument outside the domain of an operation."""


class InternalError(GSplineError):
    """Invariant violated inside the library (a bug, not a user error)."""


class DegenerateBasisError(GSplineError):
    """Rational basis denominator is nonpositive at an evaluation point."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class InfeasibleConstraintError(GSplineError):
    """Equality constraints of a basis-function solve are inconsistent."""

    def __init__(self, message, edges=()):
        super().__init__(message)
        self.edges = list(edges)


class SingularParameterizationError(GSplineError):
    """Surface tangents are (numerically) linearly dependent."""

    def __init__(self, message, element=None, uv=None):
        super().__init__(message)
        self.element = element
        self.uv = uv


class ResourceError(GSplineError):
    """A desk-scale resource guard tripped (e.g. too many refinement levels)."""


class LumpingError(GSplineError):
    """Row-sum mass lumping produced a nonpositive diagonal entry."""


class SingularSystemError(GSplineError):
    """A linear system to solve is singular."""


class EigensolverError(GSplineError):
    """Generalized eigenvalue iteration failed to converge."""


class NonFiniteError(GSplineError):
    """A computed report value is not a finite number (an overflow, say)."""
