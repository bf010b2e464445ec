"""Optimal-value evaluation, guaranteed cost bounds, and calibration.

The synthesized policy's optimal value at stage 0, conditioned on an
initial belief ``(x_bar_0, P_bar_0)``, is

    J = x_bar_0' P_0 x_bar_0 + tr[(P_0 + S_0) P_bar_0]
        + 2 r_0' x_bar_0 + z_0 + sum_t z_tilde_t.

Averaging over the first measurement gives the penalized game value
``J_lam``.  It assumes the filter's mean is the true conditional mean
under whatever law the adversary plays; the deployed filter predicts
with the adversary's equilibrium mean instead, so ``lam T theta^2 +
J_lam`` is not a bound on the deployed loop's cost.

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
by a coarse log-grid scan followed by golden-section refinement,
falling back to the best scanned point if refinement does not improve
on it.  The scan's worst-case forward passes run as one stacked pass
over all its penalties (:func:`wdrc.worstcase.forward_schedules`);
backward passes, certificates and the golden section run per penalty.
The controller at the chosen penalty and its certificate come with the
result, so callers need not synthesize or certify it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedloop import (
    DualBound,
    closed_loop,
    dual_bound,
    initial_moments,
    policy_feed,
)
from .controller import LqgController, WdrcController, lqg_gains, synthesize_wdrc
from .errors import DegenerateLQ, Diverged, NoFeasibleLambda, PenaltyTooSmall
from .estimator import BeliefState, initial_posterior_cov, kalman_gain
from .model import (
    STREAM_VALUE_MC,
    CostSpec,
    DistributionSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    RobustnessParams,
    ScenarioSpec,
    split_stream,
)
from .riccati import backward_pass, min_feasible_lambda
from .worstcase import forward_schedules

__all__ = [
    "CostCertificate",
    "CalibrationResult",
    "evaluate_value",
    "expected_value",
    "guaranteed_cost",
    "certified_bound",
    "reference_belief",
    "lqg_value_terms",
    "performance_ratio",
    "calibrate_lambda",
]

# First measurements averaged by the value and the certificate.
MC_SAMPLES = 10_000
DEFAULT_LAMBDA_CAP = 1e6


@dataclass(frozen=True)
class CostCertificate:
    """Guaranteed-bound certificate of a synthesized robust policy.

    ``guaranteed_bound`` equals ``guaranteed_cost(kappa, T, theta,
    w_kappa)``: ``kappa`` is the minimizing multiplier and ``w_kappa``
    the penalized worst-case value of the deployed loop there (with
    ``theta = 0``, ``kappa`` is infinite and the bound is the exact
    nominal cost).  ``j_lambda`` is the penalized game value at the
    design penalty ``lam``; it prices an idealized filter and is not a
    bound by itself.  ``j_lambda`` and ``j_lq`` average the respective
    optimal values over the first measurement by Monte Carlo; the
    ``_ref`` variants condition on the noiseless reference measurement
    instead.  ``rho`` is ``guaranteed_bound / j_lq``.
    """

    lam: float
    theta: float
    j_lambda: float
    j_lambda_ref: float
    kappa: float
    w_kappa: float
    guaranteed_bound: float
    j_lq: float
    j_lq_ref: float
    rho: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the penalty calibration.

    Attributes:
        lam: Design penalty minimizing the certified bound.
        objective: Certified bound at ``lam``.
        hit_upper: True when the search ended at the bracket's upper
            edge (the bound kept decreasing, as with ``theta = 0``).
        evaluations: All ``(lam, objective)`` pairs evaluated.
        controller: The robust controller synthesized at ``lam``.
        dual: Its :func:`certified_bound`, whose ``bound`` is
            ``objective``.
    """

    lam: float
    objective: float
    hit_upper: bool
    evaluations: tuple[tuple[float, float], ...]
    controller: WdrcController = field(compare=False, repr=False)
    dual: DualBound = field(compare=False, repr=False)


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


def reference_belief(x0_dist: DistributionSpec, sys: LinearSystem) -> BeliefState:
    """Belief after observing the noiseless average measurement.

    With ``y_0 = C mean(x_0)`` the innovation vanishes, so the belief
    mean equals the prior mean while the covariance contracts as usual.
    """
    return BeliefState(
        mean=x0_dist.mean(), cov=initial_posterior_cov(x0_dist, sys)
    )


def _y0_samples(
    x0_dist: DistributionSpec, sys: LinearSystem, seed: int, count: int
) -> np.ndarray:
    """Sample first measurements under the model's noise law."""
    rng = split_stream(seed, STREAM_VALUE_MC)
    x0 = x0_dist.sample(rng, count)
    noise = GaussianSpec(np.zeros(sys.n_y), sys.M)
    return x0 @ sys.C.T + noise.sample(rng, count)


def expected_value(
    sol,
    z_tilde_path: np.ndarray,
    x0_dist: DistributionSpec,
    sys: LinearSystem,
    y0_samples: np.ndarray,
) -> float:
    """Average the stage-0 value over sampled first measurements.

    The belief covariance does not depend on the measurement, so only
    the quadratic-in-mean part is averaged.
    """
    base = reference_belief(x0_dist, sys)
    mu = x0_dist.mean()
    gain = kalman_gain(x0_dist.cov(), sys)
    means = mu + (y0_samples - mu @ sys.C.T) @ gain.T
    fixed = evaluate_value(sol, z_tilde_path, base)
    quad = np.einsum("ij,jk,ik->i", means, sol.P[0], means)
    quad_ref = float(mu @ sol.P[0] @ mu)
    lin = 2.0 * (means @ sol.r[0])
    lin_ref = 2.0 * float(sol.r[0] @ mu)
    return fixed + float(np.mean(quad - quad_ref + lin - lin_ref))


def guaranteed_cost(lam: float, horizon: int, theta: float, j_lambda: float) -> float:
    """Weak-duality bound ``lam * T * theta^2 + j_lambda``.

    It bounds the cost over the ambiguity set when ``j_lambda`` is the
    penalized worst-case value, at multiplier ``lam``, of the loop whose
    cost is bounded; :func:`certified_bound` minimizes it over the
    multiplier for the deployed loop.
    """
    return lam * horizon * theta * theta + j_lambda


def certified_bound(
    ctrl: WdrcController,
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    theta: float,
    y0_samples: np.ndarray,
) -> DualBound:
    """Certified bound of the deployed robust loop, minimized over kappa.

    The stage-0 belief is averaged over ``y0_samples`` as in
    :func:`expected_value`, and the measurement noise follows the
    plant's ``M``.  A pure function of its arguments.
    """
    loop = closed_loop(policy_feed(ctrl, sys, x0_dist), sys, cost)
    z0 = initial_moments(x0_dist, sys, sys.M, y0_samples)
    return dual_bound(loop, z0, ctrl.nominal, sys.M, theta)


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
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    scenario: ScenarioSpec,
    params: RobustnessParams,
    wdrc_ctrl: WdrcController | None = None,
    lqg_ctrl: LqgController | None = None,
    dual: DualBound | None = None,
) -> CostCertificate:
    """Certificate comparing the robust bound with the baseline value.

    The bound is :func:`certified_bound` of the deployed loop at
    ``params.lam``, so it covers every per-stage law within Gelbrich
    distance ``params.theta`` of the nominal; it stays finite for any
    design penalty that passes synthesis.

    Args:
        wdrc_ctrl: Optional pre-synthesized robust controller for
            ``params.lam``; synthesized here when omitted.
        lqg_ctrl: Optional pre-synthesized baseline controller;
            synthesized here when omitted.
        dual: Optional :func:`certified_bound` of ``wdrc_ctrl`` at
            ``params.theta``, as calibration returns it; computed here
            when omitted.

    Raises:
        DegenerateLQ: If the baseline value is not strictly positive,
            which would make the ratio meaningless.
    """
    x0_dist = scenario.initial_state
    p0 = initial_posterior_cov(x0_dist, sys)
    ctrl = wdrc_ctrl
    if ctrl is None:
        ctrl = synthesize_wdrc(sys, cost, nominal, params.lam, p0)
    lqg = lqg_ctrl if lqg_ctrl is not None else lqg_gains(sys, cost, nominal, p0)
    y0 = _y0_samples(x0_dist, sys, scenario.seed, MC_SAMPLES)
    z_tilde = ctrl.schedule.z_tilde_path

    ref = reference_belief(x0_dist, sys)
    j_lambda_ref = evaluate_value(ctrl.solution, z_tilde, ref)
    j_lambda = expected_value(ctrl.solution, z_tilde, x0_dist, sys, y0)

    lq_path = lqg_value_terms(lqg)
    j_lq_ref = evaluate_value(lqg, lq_path, ref)
    j_lq = expected_value(lqg, lq_path, x0_dist, sys, y0)
    if not math.isfinite(j_lq) or j_lq <= 0.0:
        raise DegenerateLQ(f"baseline value {j_lq} is not strictly positive")

    if dual is None:
        dual = certified_bound(ctrl, sys, cost, x0_dist, params.theta, y0)
    return CostCertificate(
        lam=params.lam,
        theta=params.theta,
        j_lambda=j_lambda,
        j_lambda_ref=j_lambda_ref,
        kappa=dual.kappa,
        w_kappa=dual.w_kappa,
        guaranteed_bound=dual.bound,
        j_lq=j_lq,
        j_lq_ref=j_lq_ref,
        rho=dual.bound / j_lq,
    )


def _synthesize(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lam: float,
    p0: np.ndarray,
) -> WdrcController | None:
    """The robust controller at ``lam``; None where the penalty is
    infeasible or a worst-case stage does not converge."""
    try:
        return synthesize_wdrc(sys, cost, nominal, lam, p0)
    except (PenaltyTooSmall, Diverged):
        return None


def _synthesize_stacked(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lams: list[float],
    p0: np.ndarray,
) -> list[WdrcController | None]:
    """:func:`_synthesize` at every penalty, with one stacked forward pass."""
    sols = {}
    for i, lam in enumerate(lams):
        try:
            sols[i] = backward_pass(sys, cost, nominal, lam)
        except PenaltyTooSmall:
            pass
    ctrls: list[WdrcController | None] = [None] * len(lams)
    schedules = forward_schedules(sys, list(sols.values()), nominal, p0)
    for (i, sol), schedule in zip(sols.items(), schedules):
        if not isinstance(schedule, Diverged):
            ctrls[i] = WdrcController(
                solution=sol, schedule=schedule, nominal=nominal
            )
    return ctrls


def calibrate_lambda(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    scenario: ScenarioSpec,
    theta: float,
    lam_cap: float = DEFAULT_LAMBDA_CAP,
    scan_points: int = 33,
) -> CalibrationResult:
    """Minimize the certified bound over the design penalty.

    The objective at ``lam`` is :func:`certified_bound` of the robust
    controller synthesized at ``lam``, the same number
    :func:`performance_ratio` reports; a penalty that is infeasible or
    whose worst-case schedule does not converge scores infinity.  The
    search runs over ``[lam_min, lam_cap]`` in log space, where
    ``lam_min`` is the bisected feasibility boundary: a coarse scan
    locates the basin, golden-section refines it to ``1e-3`` in ``log
    lam`` (the bound is flat to about ``1e-7`` relative there), and the
    better of the two wins.  Measurement samples for the value average
    are drawn once and shared across all evaluations, so the objective
    is a fixed deterministic function during the search.

    Raises:
        NoFeasibleLambda: If no penalty in the bracket yields a finite
            objective.
    """
    x0_dist = scenario.initial_state
    lam_min = min_feasible_lambda(sys, cost, lo=1e-9 * lam_cap, hi=lam_cap)
    y0 = _y0_samples(x0_dist, sys, scenario.seed, MC_SAMPLES)
    p0 = initial_posterior_cov(x0_dist, sys)

    evaluations: list[tuple[float, float]] = []

    def score(s: float, ctrl: WdrcController | None):
        dual = (
            None
            if ctrl is None
            else certified_bound(ctrl, sys, cost, x0_dist, theta, y0)
        )
        val = math.inf if dual is None else dual.bound
        evaluations.append((math.exp(s), val))
        return val, (ctrl, dual)

    lo, hi = math.log(lam_min), math.log(lam_cap)
    grid = np.linspace(lo, hi, scan_points)
    ctrls = _synthesize_stacked(sys, cost, nominal, [math.exp(s) for s in grid], p0)
    scored = [score(s, ctrl) for s, ctrl in zip(grid, ctrls)]
    scanned = np.array([val for val, _ in scored])
    if not np.isfinite(scanned).any():
        raise NoFeasibleLambda(
            f"guaranteed bound is infinite throughout [{lam_min}, {lam_cap}]"
        )
    best = int(np.argmin(scanned))
    scan_best = scored[best][1]
    del ctrls, scored  # only the scan's winner is kept through the refinement

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, scan_points - 1)]
    s_star, (g_star, (ctrl, dual)) = _golden_min(
        lambda s: score(s, _synthesize(sys, cost, nominal, math.exp(s), p0)),
        a,
        b,
        tol=1e-3,
    )
    if scanned[best] < g_star:
        s_star, g_star, (ctrl, dual) = grid[best], float(scanned[best]), scan_best

    hit_upper = best >= scan_points - 1 and s_star >= hi - 1e-6
    return CalibrationResult(
        lam=math.exp(s_star),
        objective=g_star,
        hit_upper=hit_upper,
        evaluations=tuple(evaluations),
        controller=ctrl,
        dual=dual,
    )


def _golden_min(f, a: float, b: float, tol: float):
    """Golden-section minimization on ``[a, b]``.

    ``f`` returns ``(value, payload)`` pairs; the result is ``(x,
    f(x))`` at the best point found.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc[0] <= fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc[0] <= fd[0] else (d, fd)
