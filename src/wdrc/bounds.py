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
by a coarse log-grid scan followed by golden-section refinement,
falling back to the best scanned point if refinement does not improve
on it.  Penalties are synthesized in stacks: the backward passes
(:func:`wdrc.riccati.backward_passes`) and the worst-case forward
passes (:func:`wdrc.worstcase.forward_schedules`) of all the scan's
penalties run as one stacked pass each, and the golden section passes
the points of its next few steps, under every outcome of their
comparisons, as one stack.  Each stack's feasible controllers are
certified in one stacked call (:func:`certified_bounds`), and the
feasibility boundary is bisected with the checks of several steps
stacked (:func:`wdrc.riccati.min_feasible_lambda`).  The controller at
the chosen penalty and its certificate come with the result, so callers
need not synthesize or certify it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .closedloop import DualBound, closed_loop, dual_bounds, initial_moments
from .controller import LqgController, WdrcController
from .errors import DegenerateLQ, Diverged, NoFeasibleLambda, PenaltyTooSmall
from .estimator import BeliefState, initial_posterior_cov
from .model import (
    CostSpec,
    DistributionSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
)
from .riccati import backward_passes, min_feasible_lambda
from .worstcase import forward_schedules, mean_affines

__all__ = [
    "CostCertificate",
    "CalibrationResult",
    "evaluate_value",
    "guaranteed_cost",
    "certified_bound",
    "certified_bounds",
    "lqg_value_terms",
    "performance_ratio",
    "calibrate_lambda",
]

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
    bound by itself.  ``j_lambda`` and ``j_lq`` are the respective
    optimal values in expectation over the first measurement, exact under
    the initial-state law and the plant's measurement noise.  ``rho`` is
    ``guaranteed_bound / j_lq``.
    """

    lam: float
    theta: float
    j_lambda: float
    kappa: float
    w_kappa: float
    guaranteed_bound: float
    j_lq: float
    rho: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the penalty calibration.

    Attributes:
        lam: Design penalty minimizing the certified bound.
        objective: Certified bound at ``lam``.
        hit_upper: True when the search ended at the bracket's upper
            edge (the bound kept decreasing, as with ``theta = 0``).
        evaluations: The ``(lam, objective)`` pairs the search
            consumed, in order: the scan's, then the golden section's.
            Points the golden section synthesized and certified ahead
            but did not reach are not listed, so the trace is that of
            the one-point-at-a-time search.
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
    mean, cov = initial_moments(x0_dist, sys, sys.M)
    belief = BeliefState(mean=mean[:n], cov=initial_posterior_cov(x0_dist, sys))
    spread = float(np.trace(sol.P[0] @ cov[n:, n:]))
    return evaluate_value(sol, z_tilde_path, belief) + spread


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
) -> DualBound:
    """Certified bound of the deployed robust loop, minimized over kappa.

    The stage-0 moments are exact under the initial-state law and the
    plant's measurement noise ``M``, which the loop's noise also
    follows.  A pure function of its arguments.  This is
    :func:`certified_bounds` on a stack of one.
    """
    (dual,) = certified_bounds([ctrl], sys, cost, x0_dist, theta)
    return dual


def certified_bounds(
    ctrls: Sequence[WdrcController],
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    theta: float,
) -> list[DualBound]:
    """:func:`certified_bound` of several robust controllers of one
    nominal, in one stacked :func:`~wdrc.closedloop.dual_bounds`; each
    bound equals its controller's alone, bit for bit.

    Raises:
        ValueError: If the controllers do not share one nominal.
    """
    if not ctrls:
        return []
    nominal = ctrls[0].nominal
    if any(ctrl.nominal is not nominal for ctrl in ctrls):
        raise ValueError("stacked controllers must share one nominal")
    z0 = initial_moments(x0_dist, sys, sys.M)
    return dual_bounds(closed_loop(ctrls, sys, cost), z0, nominal, sys.M, theta)


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

    The bound is :func:`certified_bound` of the deployed loop of
    ``wdrc_ctrl``, so it covers every per-stage law within Gelbrich
    distance ``theta`` of the controllers' nominal; it stays finite for
    any design penalty that passes synthesis.  The design penalty is the
    robust controller's ``solution.lam``.  ``lqg_ctrl`` is the baseline
    controller, synthesized for the same nominal; ``x0_dist`` is the
    initial-state law.

    Args:
        dual: Optional :func:`certified_bound` of ``wdrc_ctrl`` at
            ``theta``, as calibration returns it; computed here when
            omitted.

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
        dual = certified_bound(ctrl, sys, cost, x0_dist, theta)
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


def _synthesize_stacked(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lams: list[float],
    p0: np.ndarray,
) -> list[WdrcController | None]:
    """The robust controller at every penalty, from one stacked backward
    pass, one stacked forward pass and one stacked
    :func:`~wdrc.worstcase.mean_affines` over the converged penalties;
    None where the penalty is infeasible or a worst-case stage does not
    converge."""
    sols = backward_passes(sys, cost, nominal, lams)
    feasible = [i for i, sol in enumerate(sols) if not isinstance(sol, PenaltyTooSmall)]
    schedules = forward_schedules(sys, [sols[i] for i in feasible], nominal, p0)
    done = [
        (i, schedule) for i, schedule in zip(feasible, schedules)
        if not isinstance(schedule, Diverged)
    ]
    ctrls: list[WdrcController | None] = [None] * len(sols)
    if done:
        H, h = mean_affines(sys, [sols[i] for i, _ in done], nominal)
        for j, (i, schedule) in enumerate(done):
            ctrls[i] = WdrcController(sols[i], schedule, nominal, H[j], h[j])
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
    better of the two wins.  The objective is a deterministic function
    of ``lam``.

    Controllers are synthesized in stacks (:func:`_synthesize_stacked`):
    the scan's penalties in one, and the golden section's points a few
    steps ahead in each (:func:`_golden_min`).  Each stack's feasible
    controllers are certified in one :func:`certified_bounds` call, and
    the search then reads the stored values of the points it consumes,
    so the certificates, the ``evaluations`` trace and the result are
    those of the one-point-at-a-time search.

    Raises:
        NoFeasibleLambda: If no penalty in the bracket yields a finite
            objective.
    """
    x0_dist = scenario.initial_state
    lam_min = min_feasible_lambda(sys, cost, lo=1e-9 * lam_cap, hi=lam_cap)
    p0 = initial_posterior_cov(x0_dist, sys)

    evaluations: list[tuple[float, float]] = []

    def score(s: float, ctrl: WdrcController | None, dual: DualBound | None):
        val = math.inf if dual is None else dual.bound
        evaluations.append((math.exp(s), val))
        return val, (ctrl, dual)

    def synthesize(points):
        lams = [math.exp(s) for s in points]
        ctrls = _synthesize_stacked(sys, cost, nominal, lams, p0)
        feasible = [ctrl for ctrl in ctrls if ctrl is not None]
        duals = iter(certified_bounds(feasible, sys, cost, x0_dist, theta))
        return [
            partial(score, s, ctrl, None if ctrl is None else next(duals))
            for s, ctrl in zip(points, ctrls)
        ]

    lo, hi = math.log(lam_min), math.log(lam_cap)
    grid = np.linspace(lo, hi, scan_points)
    scored = [g() for g in synthesize(grid)]
    scanned = np.array([val for val, _ in scored])
    if not np.isfinite(scanned).any():
        raise NoFeasibleLambda(
            f"guaranteed bound is infinite throughout [{lam_min}, {lam_cap}]"
        )
    best = int(np.argmin(scanned))
    scan_best = scored[best][1]
    del scored  # only the scan's winner is kept through the refinement

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, scan_points - 1)]
    s_star, (g_star, (ctrl, dual)) = _golden_min(synthesize, a, b, tol=1e-3)
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps evaluated per call of the objective.  The points
# of the next steps form a binary tree over the outcomes of their
# comparisons, 2^_LOOKAHEAD - 1 points per call; a stacked pass over 7
# penalties costs little more than over 1, while deeper trees waste most
# of their points.
_LOOKAHEAD = 3


def _golden_step(state: tuple, keep_left: bool) -> tuple[tuple, float]:
    """One golden-section step on ``state = (a, b, c, d)``: keep ``[a,
    d]`` when ``keep_left`` (``f(c) <= f(d)``), else ``[c, b]``.  Returns
    the new state and the point it adds."""
    a, b, c, d = state
    if keep_left:
        b, d = d, c
        c = b - _INVPHI * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _INVPHI * (b - a)
    return (a, b, c, d), d


def _golden_plan(state: tuple, tol: float, depth: int) -> list[float]:
    """The points the next ``depth`` steps from ``state`` can add,
    whichever way their comparisons go."""
    points = []
    frontier = [state]
    for _ in range(depth):
        nxt = []
        for a, b, c, d in frontier:
            if b - a > tol:
                for keep_left in (True, False):
                    step, x = _golden_step((a, b, c, d), keep_left)
                    points.append(x)
                    nxt.append(step)
        frontier = nxt
    return points


def _golden_min(f, a: float, b: float, tol: float):
    """Golden-section minimization on ``[a, b]``, evaluated ahead.

    ``f`` maps a list of points to one zero-argument callable per point,
    which returns that point's ``(value, payload)``; the result is ``(x,
    (value, payload))`` at the best point found.  Whenever the search
    needs a point it has not passed to ``f``, it passes that point
    together with every point the following ``_LOOKAHEAD - 1`` steps can
    add, whichever way their comparisons go.  It calls back only the
    points the plain one-point-at-a-time search evaluates, in the same
    order and from the same arithmetic, so it returns what that search
    returns; it passes no point twice while the point stays within
    reach, and it holds the callables of the points it can still reach,
    no others.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    held = {}

    def consume(points: list[float], state: tuple) -> list:
        # The values at ``points``, needed at ``state``; afterwards
        # ``held`` keeps the callables of the points the next steps add.
        nonlocal held
        reach = _golden_plan(state, tol, _LOOKAHEAD - 1)
        if any(p not in held for p in points):
            new = [p for p in dict.fromkeys([*points, *reach]) if p not in held]
            held.update(zip(new, f(new)))
        values = [held[p]() for p in points]
        held = {p: held[p] for p in reach if p in held}
        return values

    fc, fd = consume([c, d], (a, b, c, d))
    while b - a > tol:
        keep_left = fc[0] <= fd[0]
        (a, b, c, d), x = _golden_step((a, b, c, d), keep_left)
        (fx,) = consume([x], (a, b, c, d))
        fc, fd = (fx, fc) if keep_left else (fd, fx)
    return (c, fc) if fc[0] <= fd[0] else (d, fd)
