"""Kalman filtering over the plant's linear-Gaussian measurement model.

The filter tracks the conditional mean and covariance of the state.
Prediction feeds in an explicit disturbance mean and covariance per
stage, so the same primitives serve both the nominal filter and the
robust filter driven by worst-case disturbance moments.  The
measurement step is written once, :func:`kalman_update`: the gain and
the Joseph-form covariance update, which preserves symmetry and
positive semidefiniteness under roundoff.  It and :func:`kalman_gain`
take one ``(n, n)`` prior covariance or a ``(k, n, n)`` stack, and give
each member of a stack the bits of its call alone; the filter's
covariance path, the belief update and the worst-case schedule all use
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, SingularInnovation
from .model import DistributionSpec, LinearSystem
from .psdmath import solve, symmetrize

__all__ = [
    "BeliefState",
    "predict",
    "update",
    "init_belief",
    "kalman_gain",
    "kalman_update",
    "initial_posterior_cov",
    "covariance_path",
]


@dataclass(frozen=True)
class BeliefState:
    """Gaussian belief over the state: mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = symmetrize(np.asarray(self.cov, dtype=float))
        if cov.shape[0] != mean.shape[0]:
            raise DimMismatch(
                f"mean has dim {mean.shape[0]}, covariance {cov.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def predict(
    belief: BeliefState,
    u: np.ndarray,
    w_mean: np.ndarray,
    w_cov: np.ndarray,
    sys: LinearSystem,
) -> BeliefState:
    """Propagate the belief through the dynamics.

    Args:
        belief: Posterior belief at the current stage.
        u: Applied input.
        w_mean: Disturbance mean fed to the filter.
        w_cov: Disturbance covariance fed to the filter.
        sys: Plant matrices.

    Returns:
        The one-step-ahead prior belief.
    """
    mean = sys.A @ belief.mean + sys.B @ np.atleast_1d(u) + w_mean
    cov = symmetrize(sys.A @ belief.cov @ sys.A.T + w_cov)
    return BeliefState(mean=mean, cov=cov)


def kalman_gain(prior_cov: np.ndarray, sys: LinearSystem) -> np.ndarray:
    """Measurement gain ``P C' (C P C' + M)^{-1}`` for a prior covariance,
    or for each of a ``(k, n, n)`` stack.

    Raises:
        SingularInnovation: If an innovation covariance cannot be
            inverted.
    """
    C, M = sys.C, sys.M
    innov = symmetrize(C @ prior_cov @ C.T + M)
    try:
        return solve(innov, C @ prior_cov).mT
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc


def kalman_update(
    prior_cov: np.ndarray, sys: LinearSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement gain and Joseph-form posterior covariance ``(I - K C)
    P (I - K C)' + K M K'`` for a prior covariance, or for each of a
    ``(k, n, n)`` stack.

    Raises:
        SingularInnovation: If an innovation covariance cannot be
            inverted.
    """
    gain = kalman_gain(prior_cov, sys)
    closed = np.eye(sys.n_x) - gain @ sys.C
    post = symmetrize(closed @ prior_cov @ closed.mT + gain @ sys.M @ gain.mT)
    return gain, post


def update(prior: BeliefState, y: np.ndarray, sys: LinearSystem) -> BeliefState:
    """Condition the prior belief on a measurement.

    The mean uses the innovation form and the covariance the Joseph
    form ``(I - K C) P (I - K C)' + K M K'``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape[0] != sys.n_y:
        raise DimMismatch(f"measurement has dim {y.shape[0]}, expected {sys.n_y}")
    gain, cov = kalman_update(prior.cov, sys)
    mean = prior.mean + gain @ (y - sys.C @ prior.mean)
    return BeliefState(mean=mean, cov=cov)


def init_belief(
    x0_dist: DistributionSpec, y0: np.ndarray, sys: LinearSystem
) -> BeliefState:
    """Initial belief: the state prior conditioned on the first measurement.

    The prior uses the exact mean and covariance of the initial-state
    law (for a uniform box these are the midpoint and the diagonal
    ``(hi - lo)^2 / 12``), then applies one measurement update with
    ``y0``.
    """
    prior = BeliefState(mean=x0_dist.mean(), cov=x0_dist.cov())
    return update(prior, y0, sys)


def initial_posterior_cov(x0_dist: DistributionSpec, sys: LinearSystem) -> np.ndarray:
    """Covariance of the initial belief; it does not depend on ``y0``."""
    return kalman_update(x0_dist.cov(), sys)[1]


def covariance_path(
    p0_cov: np.ndarray, feed_covs: np.ndarray, sys: LinearSystem
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate the filter covariance under given disturbance covariances.

    The covariance recursion is measurement-independent, so the whole
    path is fixed by the initial posterior and the per-stage
    disturbance covariances fed to prediction.

    Args:
        p0_cov: Posterior covariance at stage 0.
        feed_covs: ``(T, n, n)`` disturbance covariances.
        sys: Plant matrices.

    Returns:
        ``(prior_covs, post_covs, gains)`` with shapes ``(T, n, n)``,
        ``(T + 1, n, n)``, and ``(T, n, n_y)``; ``gains[t]`` applies to
        the measurement at stage ``t + 1``.
    """
    T = feed_covs.shape[0]
    n = sys.n_x
    prior_covs = np.zeros((T, n, n))
    post_covs = np.zeros((T + 1, n, n))
    gains = np.zeros((T, n, sys.n_y))
    post_covs[0] = symmetrize(p0_cov)
    for t in range(T):
        prior = symmetrize(sys.A @ post_covs[t] @ sys.A.T + feed_covs[t])
        prior_covs[t] = prior
        gains[t], post_covs[t + 1] = kalman_update(prior, sys)
    return prior_covs, post_covs, gains
