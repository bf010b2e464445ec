"""Optimal-value evaluation, guaranteed cost bounds, and calibration.

The synthesized policy's optimal value at stage 0, conditioned on an
initial belief ``(x_bar_0, P_bar_0)``, is

    J = x_bar_0' P_0 x_bar_0 + tr[(P_0 + S_0) P_bar_0]
        + 2 r_0' x_bar_0 + z_0 + sum_t z_tilde_t.

Its expectation over the first measurement, in closed form, is the
penalized game value ``J_lam``.  It assumes the filter's mean is the
true conditional mean under whatever law the adversary plays; the
deployed filter predicts with the adversary's equilibrium mean instead,
so ``lam T theta^2 + J_lam`` is not a bound on the deployed loop's
cost.

The certificate is the dual bound of the loop that is actually run
(:mod:`wdrc.closedloop`): ``min_kappa kappa T theta^2 + W_kappa``, where
``W_kappa`` is the supremum over per-stage disturbance laws of the
deployed loop's expected cost minus ``kappa`` times the summed squared
Gelbrich distances to the nominal.  By weak duality it upper-bounds the
expected cost under every sequence of independent per-stage laws,
fixed in advance, each within Gelbrich distance ``theta`` of the
nominal (Gaussian or not, stationary or not; only the first two
moments enter, and the Gelbrich distance is at most the 2-Wasserstein
distance), with the initial state and measurement noise following the
model.  The ratio of that bound to the nominal LQG value quantifies
the premium paid for robustness.

``calibrate_lambda`` picks the design penalty that minimizes the bound
by a log-grid scan followed by two zoom scans, each strictly inside the
bracket of the best point evaluated before it.  Each scan's penalties
are synthesized in one stack (:func:`wdrc.controller.synthesize_wdrcs`,
the route a pinned penalty takes too), and the stack's controllers are
certified in one stacked call (:func:`certified_bounds`, which takes
stacks only); the feasibility boundary is found by nested log-space
scans of stacked checks (:func:`wdrc.riccati.min_feasible_lambda`).  The
controller at the chosen penalty and its certificate come with the
result, so callers need not synthesize or certify it again.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .closedloop import DualBound, closed_loop, dual_bounds, initial_moments
from .controller import LqgController, WdrcController, synthesize_wdrcs
from .errors import DegenerateLQ, NoFeasibleLambda
from .estimator import BeliefState, initial_posterior_cov
from .model import (
    CostSpec,
    DistributionSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
)
from .riccati import min_feasible_lambda

__all__ = [
    "CostCertificate",
    "CalibrationResult",
    "evaluate_value",
    "certified_bounds",
    "lqg_value_terms",
    "performance_ratio",
    "calibrate_lambda",
]

# Upper end of the penalty search.
LAMBDA_CAP = 1e6
# Points of the first calibration scan; each zoom scan puts
# ``(SCAN_POINTS - 3) // 2`` points strictly inside each side of the best
# point.
SCAN_POINTS = 33


class CostCertificate(NamedTuple):
    """Guaranteed-bound certificate of a synthesized robust policy.

    ``guaranteed_bound`` equals ``kappa T theta^2 + w_kappa``: ``kappa``
    is the minimizing multiplier and ``w_kappa`` the penalized worst-case
    value of the deployed loop there (with ``theta = 0``, ``kappa`` is
    infinite and the bound is the exact nominal cost).  ``j_lambda`` is
    the penalized game value at the design penalty ``lam``; it prices an
    idealized filter and is not a bound by itself.  ``j_lambda`` and
    ``j_lq`` are the respective optimal values in expectation over the
    first measurement, exact under the initial-state law and the plant's
    measurement noise.  ``rho`` is ``guaranteed_bound / j_lq``.
    """

    lam: float
    theta: float
    j_lambda: float
    kappa: float
    w_kappa: float
    guaranteed_bound: float
    j_lq: float
    rho: float


class CalibrationResult(NamedTuple):
    """Outcome of the penalty calibration.

    Attributes:
        lam: Design penalty minimizing the certified bound.
        objective: Certified bound at ``lam``.
        hit_upper: True when ``lam`` is the bracket's upper edge
            ``LAMBDA_CAP`` (the bound kept decreasing, as with ``theta =
            0``).
        evaluations: The ``(lam, objective)`` pair of every penalty
            the search evaluated, in order: the scan's, then each zoom
            scan's.
        controller: The robust controller synthesized at ``lam``.
        dual: Its certificate (:func:`certified_bounds`), whose
            ``bound`` is ``objective``.
    """

    lam: float
    objective: float
    hit_upper: bool
    evaluations: tuple[tuple[float, float], ...]
    controller: WdrcController
    dual: DualBound


def evaluate_value(sol, z_tilde_path: np.ndarray, b0: BeliefState) -> float:
    """Optimal value at stage 0 for one initial belief.

    ``sol`` needs stagewise coefficients ``P``, ``S``, ``r``, ``z``;
    both the robust solution and the baseline controller qualify.
    """
    z_tilde_path = np.asarray(z_tilde_path, dtype=float)
    horizon = sol.P.shape[0] - 1
    if z_tilde_path.shape[0] != horizon:
        raise ValueError(
            f"z_tilde_path has {z_tilde_path.shape[0]} stages, expected {horizon}"
        )
    x, cov = b0.mean, b0.cov
    return (
        float(x @ sol.P[0] @ x)
        + float(np.trace((sol.P[0] + sol.S[0]) @ cov))
        + 2.0 * float(sol.r[0] @ x)
        + float(sol.z[0])
        + float(z_tilde_path.sum())
    )


def _exact_value(
    sol, z_tilde_path: np.ndarray, x0_dist: DistributionSpec, sys: LinearSystem
) -> float:
    """Stage-0 value in expectation over the first measurement.

    The belief covariance ``P_bar_0`` does not depend on the measurement
    and the filter mean ``x_bar_0`` has mean ``E[x_0]``, so the value is
    :func:`evaluate_value` at ``(E[x_0], P_bar_0)`` plus ``tr[P_0
    Cov(x_bar_0)]``, with ``Cov(x_bar_0) = K_0 (C Sigma_0 C' + M) K_0'``
    the filter-mean block of :func:`wdrc.closedloop.initial_moments`.
    """
    n = sys.n_x
    mean, cov = initial_moments(x0_dist, sys)
    belief = BeliefState(mean=mean[:n], cov=initial_posterior_cov(x0_dist, sys))
    spread = float(np.trace(sol.P[0] @ cov[n:, n:]))
    return evaluate_value(sol, z_tilde_path, belief) + spread


def certified_bounds(
    ctrls: Sequence[WdrcController],
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    theta: float,
) -> list[DualBound]:
    """Certified bound of the deployed loop of each robust controller of
    one nominal, minimized over kappa, in one stacked
    :func:`~wdrc.closedloop.dual_bounds`; each bound equals its
    controller's stack of one, bit for bit.

    The stage-0 moments and the loop's noise follow the plant's ``M``.
    A pure function of its arguments.

    Raises:
        ValueError: If the controllers do not share one nominal.
    """
    if not ctrls:
        return []
    nominal = ctrls[0].nominal
    if any(ctrl.nominal is not nominal for ctrl in ctrls):
        raise ValueError("stacked controllers must share one nominal")
    z0 = initial_moments(x0_dist, sys)
    return dual_bounds(closed_loop(ctrls, sys, cost), z0, nominal, theta)


def lqg_value_terms(ctrl: LqgController) -> np.ndarray:
    """Per-stage value trace terms of the baseline controller.

    The returned path holds ``tr[S_{t+1} P_bar_{t+1}] +
    tr[P_{t+1} Sigma_hat_t]`` along the nominal filter covariance path
    ``ctrl.post_covs``, completing the baseline value in the same
    convention the robust value uses.
    """
    return np.array(
        [
            float(np.trace(ctrl.S[t + 1] @ ctrl.post_covs[t + 1]))
            + float(np.trace(ctrl.P[t + 1] @ ctrl.nominal.cov(t)))
            for t in range(ctrl.horizon)
        ]
    )


def performance_ratio(
    wdrc_ctrl: WdrcController,
    lqg_ctrl: LqgController,
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    theta: float,
    dual: DualBound | None = None,
) -> CostCertificate:
    """Certificate comparing the robust bound with the baseline value.

    The bound is :func:`certified_bounds` of the deployed loop of
    ``wdrc_ctrl``, so it covers every per-stage law within Gelbrich
    distance ``theta`` of the controllers' nominal; it stays finite for
    any design penalty that passes synthesis.  The design penalty is the
    robust controller's ``solution.lam``.  ``lqg_ctrl`` is the baseline
    controller, synthesized for the same nominal; ``x0_dist`` is the
    initial-state law.

    Args:
        dual: Optional certificate of ``wdrc_ctrl`` at ``theta``, as
            calibration returns it; computed here when omitted.

    Raises:
        ValueError: If the controllers were synthesized for different
            nominals.
        DegenerateLQ: If the baseline value is not strictly positive,
            which would make the ratio meaningless.
    """
    ctrl, lqg = wdrc_ctrl, lqg_ctrl
    if lqg.nominal is not ctrl.nominal:
        raise ValueError("controllers must be synthesized for one nominal")
    j_lambda = _exact_value(ctrl.solution, ctrl.schedule.z_tilde_path, x0_dist, sys)
    j_lq = _exact_value(lqg, lqg_value_terms(lqg), x0_dist, sys)
    if not math.isfinite(j_lq) or j_lq <= 0.0:
        raise DegenerateLQ(f"baseline value {j_lq} is not strictly positive")

    if dual is None:
        (dual,) = certified_bounds([ctrl], sys, cost, x0_dist, theta)
    return CostCertificate(
        lam=ctrl.solution.lam,
        theta=theta,
        j_lambda=j_lambda,
        kappa=dual.kappa,
        w_kappa=dual.w_kappa,
        guaranteed_bound=dual.bound,
        j_lq=j_lq,
        rho=dual.bound / j_lq,
    )


def calibrate_lambda(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    scenario: ScenarioSpec,
    theta: float,
) -> CalibrationResult:
    """Minimize the certified bound over the design penalty.

    The objective at ``lam`` is :func:`certified_bounds` of the robust
    controller synthesized at ``lam``, the same number
    :func:`performance_ratio` reports; a penalty that is infeasible or
    whose worst-case schedule does not converge scores infinity.  The
    search runs over ``[lam_min, LAMBDA_CAP]`` in log space, where
    ``lam_min`` is the scanned feasibility boundary.  A scan of
    ``SCAN_POINTS`` points locates the basin; then, twice, the best
    point evaluated so far and its two nearest evaluated neighbours
    bracket a zoom scan of ``(SCAN_POINTS - 3) // 2`` points evenly
    spaced strictly inside each side of the best point (15 a side).  Every zoom point lies strictly between evaluated
    neighbours, so no penalty is evaluated twice.  The answer is the
    best point evaluated, the first of equal ones.  The objective is a
    deterministic function of ``lam``.

    Each of the three scans synthesizes its penalties in one stack
    (:func:`~wdrc.controller.synthesize_wdrcs`) and certifies their
    controllers in one :func:`certified_bounds` call, so every value is
    that of its penalty alone.

    Raises:
        NoFeasibleLambda: If no penalty of the first scan yields a
            finite objective.
    """
    x0_dist = scenario.initial_state
    lam_min = min_feasible_lambda(sys, cost, lo=1e-9 * LAMBDA_CAP, hi=LAMBDA_CAP)
    p0 = initial_posterior_cov(x0_dist, sys)

    lo, hi = math.log(lam_min), math.log(LAMBDA_CAP)
    points = np.linspace(lo, hi, SCAN_POINTS).tolist()
    half = (SCAN_POINTS + 1) // 2
    tried: list[float] = []
    evaluations: list[tuple[float, float]] = []
    # (bound, log lam, controller, certificate) of the best point so far
    best = (math.inf, lo, None, None)
    for _ in range(3):
        lams = [math.exp(s) for s in points]
        ctrls = synthesize_wdrcs(sys, cost, nominal, lams, p0)
        feasible = [ctrl for ctrl in ctrls if isinstance(ctrl, WdrcController)]
        duals = iter(certified_bounds(feasible, sys, cost, x0_dist, theta))
        for s, lam, ctrl in zip(points, lams, ctrls):
            dual = next(duals) if isinstance(ctrl, WdrcController) else None
            value = math.inf if dual is None else dual.bound
            evaluations.append((lam, value))
            if value < best[0]:
                best = (value, s, ctrl, dual)
        if best[2] is None:
            raise NoFeasibleLambda(
                f"guaranteed bound is infinite throughout [{lam_min}, {LAMBDA_CAP}]"
            )
        tried.extend(points)
        s_star = best[1]
        a = max((s for s in tried if s < s_star), default=s_star)
        b = min((s for s in tried if s > s_star), default=s_star)
        points = [
            s
            for side in ((a, s_star), (s_star, b))
            if side[0] < side[1]
            for s in np.linspace(*side, half)[1:-1].tolist()
        ]

    objective, s_star, ctrl, dual = best
    return CalibrationResult(
        lam=math.exp(s_star),
        objective=objective,
        hit_upper=s_star == hi,
        evaluations=tuple(evaluations),
        controller=ctrl,
        dual=dual,
    )
