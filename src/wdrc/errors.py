"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`WdrcError`, so
callers can catch one base class at tool boundaries and map it to an
exit code.
"""

from __future__ import annotations


class WdrcError(Exception):
    """Base class for all package errors."""


class DimMismatch(WdrcError):
    """Operands have incompatible shapes."""


class NotPSD(WdrcError):
    """A matrix required to be positive semidefinite is not."""


class NotPD(WdrcError):
    """A matrix required to be positive definite is not."""


class EmptySamples(WdrcError):
    """A sample set used for moment estimation is empty."""


class SingularMatrix(WdrcError):
    """A linear system that must be solvable is numerically singular."""


class SingularInnovation(WdrcError):
    """The innovation covariance of a measurement update is singular."""


class PenaltyTooSmall(WdrcError):
    """The penalty parameter violates the feasibility condition.

    Attributes:
        stage: First stage (counting backward from the horizon) at which
            the condition fails.
        margin: Smallest eigenvalue of ``lam * I - P`` at that stage;
            negative when infeasible.
    """

    def __init__(self, stage: int, margin: float):
        self.stage = stage
        self.margin = margin
        super().__init__(
            f"penalty parameter infeasible at stage {stage} "
            f"(margin {margin:.6g})"
        )


class NoFeasibleLambda(WdrcError):
    """No feasible penalty parameter exists in the searched bracket."""


class Diverged(WdrcError):
    """An iterative solver failed to make progress or grew unboundedly."""


class DegenerateLQ(WdrcError):
    """The nominal control problem has a degenerate (non-positive) value."""


class ConfigError(WdrcError):
    """A configuration file is malformed.

    Attributes:
        field: Dotted path of the offending entry, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        prefix = f"{field}: " if field else ""
        super().__init__(prefix + message)
