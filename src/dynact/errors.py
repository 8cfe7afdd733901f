"""Exception hierarchy shared across the toolkit.

Each CLI-visible failure class carries the process exit code used by the
``dynact`` command.
"""


class DynactError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(DynactError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class MissingInputError(DynactError):
    """A pipeline stage input file is absent, unreadable, or of a format
    version this program does not read."""

    exit_code = 3


class InstabilityError(DynactError):
    """A Navier-Cauchy solve failed instead of returning a usable field.

    Raised when the explicit scheme produces non-finite values (CFL
    violation) or, without forcing and initial velocity, a snapshot whose
    max|u| exceeds 10x the largest boundary or initial displacement so
    far (silent divergence); and when the quasi-static linear solve does
    not converge.
    """

    exit_code = 4

    def __init__(self, message: str, step: int | None = None, node: tuple[int, int] | None = None):
        super().__init__(message)
        self.step = step
        self.node = node


class MismatchError(DynactError):
    """Artifacts disagree (dimensions, grids, or stored metadata)."""

    exit_code = 5


class MotionError(DynactError):
    """The motion model is not a diffeomorphism at the requested time."""


class GridError(ConfigError):
    """The grid cannot represent the domain (too coarse or degenerate)."""
