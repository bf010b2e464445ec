"""Policy synthesis: the robust policy and the baseline LQG policy.

The robust policy pairs the penalized Riccati gains with a filter
driven by worst-case disturbance moments; the baseline uses
certainty-equivalent LQG gains with a filter driven by the nominal
moments.  Each controller carries everything its loop runs on: the
input gains ``K``, ``L``, the filter's covariance path and measurement
gains ``gains``, which do not depend on the measurements, and the
disturbance mean its filter predicts with, ``H_t x_bar + h_t`` (the
adversary's equilibrium mean for the robust policy; ``H`` is ``None``
and ``h`` the nominal means for the baseline).  Both run in the same
closed loop, simulated by :mod:`wdrc.harness` and evaluated exactly by
:mod:`wdrc.closedloop`, which read the controllers directly.

The baseline gains are synthesized by the textbook finite-horizon
recursion (control-weight inverse ``(R + B' P B)^{-1}``), deliberately
not by taking a large-penalty limit of the robust recursion, so the two
syntheses cross-validate each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .estimator import covariance_path
from .model import CostSpec, LinearSystem, NominalDistribution
from .psdmath import solve, symmetrize
from .riccati import RiccatiSolution, backward_pass
from .worstcase import WorstCaseSchedule, forward_schedule, mean_affine

__all__ = [
    "LqgController",
    "WdrcController",
    "ControllerMode",
    "lqg_gains",
    "synthesize_wdrc",
]


@dataclass(frozen=True)
class LqgController:
    """Certainty-equivalent affine LQG policy and value coefficients.

    The scalar offsets ``z`` exclude all covariance trace terms; those
    enter the value separately through the filter covariance path, in
    the same convention the robust mode uses.  ``post_covs`` (``(T + 1,
    n, n)``) and ``gains`` (``(T, n, n_y)``) are the nominal filter's
    covariance path and measurement gains from the initial posterior;
    the filter predicts with the nominal means ``h`` (``H`` is
    ``None``).
    """

    P: np.ndarray
    S: np.ndarray
    r: np.ndarray
    z: np.ndarray
    K: np.ndarray
    L: np.ndarray
    nominal: NominalDistribution
    post_covs: np.ndarray
    gains: np.ndarray

    @property
    def horizon(self) -> int:
        return self.K.shape[0]

    @property
    def H(self) -> None:
        return None

    @property
    def h(self) -> np.ndarray:
        return self.nominal.means[: self.horizon]


@dataclass(frozen=True)
class WdrcController:
    """Robust policy: penalized Riccati gains plus worst-case schedule.

    ``H`` (``(T, n, n)``) and ``h`` (``(T, n)``) give the worst-case
    mean ``H_t x_bar + h_t`` the filter predicts with
    (:func:`~wdrc.worstcase.mean_affine` of ``solution``).
    """

    solution: RiccatiSolution
    schedule: WorstCaseSchedule
    nominal: NominalDistribution
    H: np.ndarray
    h: np.ndarray

    @property
    def horizon(self) -> int:
        return self.solution.horizon

    @property
    def gains(self) -> np.ndarray:
        return self.schedule.gains

    @property
    def K(self) -> np.ndarray:
        return self.solution.K

    @property
    def L(self) -> np.ndarray:
        return self.solution.L


ControllerMode = Union[WdrcController, LqgController]


def lqg_gains(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    p0_cov: np.ndarray,
) -> LqgController:
    """Synthesize the finite-horizon certainty-equivalent LQG policy.

    The filter's covariance path starts from the initial posterior
    ``p0_cov`` and predicts with the nominal covariances.

    Backward from ``P_T = Q_f`` with ``W = (R + B' P_{t+1} B)^{-1}``:

        K_t = -W B' P_{t+1} A
        L_t = -W B' (P_{t+1} w_hat_t + r_{t+1})
        P_t = Q + A' P_{t+1} A - A' P_{t+1} B W B' P_{t+1} A
        r_t = A' (P_{t+1} B L_t + P_{t+1} w_hat_t + r_{t+1})
        z_t = z_{t+1} + L_t' R L_t + m' P_{t+1} m + 2 r_{t+1}' m,
              with m = B L_t + w_hat_t.
    """
    A, B = sys.A, sys.B
    n, n_u, T = sys.n_x, sys.n_u, cost.horizon
    P = np.zeros((T + 1, n, n))
    S = np.zeros((T + 1, n, n))
    r = np.zeros((T + 1, n))
    z = np.zeros(T + 1)
    K = np.zeros((T, n_u, n))
    L = np.zeros((T, n_u))
    P[T] = cost.Q_f
    for t in range(T - 1, -1, -1):
        P_next, r_next = P[t + 1], r[t + 1]
        w_hat = nominal.mean(t)
        ctrl_weight = cost.R + B.T @ P_next @ B
        K[t] = -solve(ctrl_weight, B.T @ P_next @ A)
        L[t] = -solve(ctrl_weight, B.T @ (P_next @ w_hat + r_next))
        P[t] = symmetrize(
            cost.Q + A.T @ P_next @ A + A.T @ P_next @ B @ K[t]
        )
        S[t] = symmetrize(cost.Q + A.T @ P_next @ A - P[t])
        drift = B @ L[t] + w_hat
        r[t] = A.T @ (P_next @ drift + r_next)
        z[t] = (
            z[t + 1]
            + float(L[t] @ cost.R @ L[t])
            + float(drift @ P_next @ drift)
            + 2.0 * float(r_next @ drift)
        )
    _, post_covs, gains = covariance_path(p0_cov, nominal.covs[:T], sys)
    return LqgController(
        P=P, S=S, r=r, z=z, K=K, L=L, nominal=nominal,
        post_covs=post_covs, gains=gains,
    )


def synthesize_wdrc(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lam: float,
    p0_cov: np.ndarray,
) -> WdrcController:
    """Run the backward pass, the worst-case forward pass and the
    worst-case mean map.

    Raises :class:`~wdrc.errors.Diverged` at an unconverged stage.
    """
    sol = backward_pass(sys, cost, nominal, lam)
    schedule = forward_schedule(sys, sol, nominal, p0_cov)
    H, h = mean_affine(sys, sol, nominal)
    return WdrcController(solution=sol, schedule=schedule, nominal=nominal, H=H, h=h)
