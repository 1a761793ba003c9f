"""Exception hierarchy shared by all gspline modules, and ``finite_json``,
the one writer of every JSON report."""

import json


class GSplineError(Exception):
    """Base class for all gspline errors.  ``exit_code`` is the command
    line's exit status for the error: 2 input format, 3 topology, 4
    construction infeasible, 5 numeric or any other."""

    exit_code = 5


class FormatError(GSplineError):
    """Malformed input data (non-quad faces, unparsable OBJ records, ...)."""

    exit_code = 2


class EmptyError(FormatError):
    """Input contains no faces."""


class TopologyError(GSplineError):
    """Connectivity is not a consistently oriented manifold quad net."""

    exit_code = 3


class DomainError(GSplineError):
    """Argument outside the domain of an operation."""

    exit_code = 2


class InternalError(GSplineError):
    """Invariant violated inside the library (a bug, not a user error)."""


class DegenerateBasisError(GSplineError):
    """Rational basis denominator is nonpositive at an evaluation point."""

    exit_code = 4

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class InfeasibleConstraintError(GSplineError):
    """Equality constraints of a basis-function solve are inconsistent."""

    exit_code = 4

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


def finite_json(command: str, report: dict) -> str:
    """The ``command``'s ``report`` as indented JSON with sorted keys.
    JSON has no NaN or infinity, so NonFiniteError names the command and
    the first key, in that order, whose value holds one."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        for key in sorted(report):
            try:
                json.dumps(report[key], allow_nan=False)
            except ValueError:
                raise NonFiniteError(
                    f"{command} report value {key!r} is not finite") from None
        raise
