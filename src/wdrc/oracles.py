"""Independent reference computations for validating the solvers.

Everything here deliberately avoids the production code paths: brute
force grids, central finite differences, inverse-CDF quadrature,
closed forms that exist only in special cases, and a per-run filter
loop (:func:`run_closed_loop`) for the batched rollouts.  Tests compare
the fast implementations against these slow routes;
``run_oracle_suite`` bundles the same comparisons behind the ``oracle``
CLI subcommand.

The grid searches (:func:`grid_max`, :func:`bracket_max`) take
vectorized objectives: ``f`` maps a 1-D array of points to the array of
its values there, and each pass evaluates its whole grid in one call.
Elementwise numpy arithmetic, and :func:`~wdrc.worstcase.cov_objective`
on a stack, give every point the bits of its evaluation alone, so the
grids return what a point-by-point loop would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .bounds import evaluate_value
from .controller import ControllerMode, WdrcController, synthesize_wdrc
from .errors import ScheduleMismatch
from .estimator import BeliefState, init_belief, predict, update
from .model import (
    CostSpec,
    LinearSystem,
    MomentPair,
    NominalDistribution,
    Realization,
    ScenarioSpec,
    draw_realization,
)
from .psdmath import gelbrich_dist_sq, symmetrize, trace_sqrt_product, transport_map
from .riccati import backward_pass
from .worstcase import (
    CovObjectiveContext,
    SolverOptions,
    cov_gradient,
    cov_objective,
    solve_worst_case_cov,
    worst_case_mean,
)

__all__ = [
    "lqr_gains",
    "grid_max",
    "bracket_max",
    "fd_gradient_sym",
    "gaussian_w2_quadrature",
    "worst_cov_no_obs",
    "t1_scalar_saddle",
    "WorstCaseStage",
    "SimulationTrace",
    "control_input",
    "run_closed_loop",
    "trace_cost",
    "run_oracle_suite",
]


def lqr_gains(sys: LinearSystem, cost: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """Textbook finite-horizon LQR recursion (no disturbance terms).

    Returns:
        ``(P, K)`` with ``P`` of shape ``(T + 1, n, n)`` and ``K`` of
        shape ``(T, n_u, n)``.
    """
    T = cost.horizon
    n, n_u = sys.n_x, sys.n_u
    P = np.zeros((T + 1, n, n))
    K = np.zeros((T, n_u, n))
    P[T] = cost.Q_f
    for t in reversed(range(T)):
        gram = cost.R + sys.B.T @ P[t + 1] @ sys.B
        K[t] = -np.linalg.solve(gram, sys.B.T @ P[t + 1] @ sys.A)
        P[t] = symmetrize(cost.Q + sys.A.T @ P[t + 1] @ (sys.A + sys.B @ K[t]))
    return P, K


def grid_max(f, lo: float, hi: float, points: int = 10001, refinements: int = 2):
    """Maximize a scalar function by gridding, then zooming in on the
    argmax ``refinements`` times.

    ``f`` maps a 1-D array of points to the array of its values there;
    each pass calls it once, on the pass's whole grid.

    Returns:
        ``(argmax, max)`` after the final refinement pass.
    """
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    k = int(np.argmax(vals))
    for _ in range(refinements):
        lo = xs[max(k - 1, 0)]
        hi = xs[min(k + 1, points - 1)]
        xs = np.linspace(lo, hi, points)
        vals = f(xs)
        k = int(np.argmax(vals))
    return float(xs[k]), float(vals[k])


def bracket_max(f, lo: float, hi: float, grow: float = 4.0, max_iter: int = 60):
    """Expand ``hi`` until the coarse argmax of ``f`` is interior.

    ``f`` maps a 1-D array of points to the array of its values there;
    each 257-point pass calls it once.
    """
    for _ in range(max_iter):
        xs = np.linspace(lo, hi, 257)
        vals = f(xs)
        if int(np.argmax(vals)) < xs.size - 1:
            return hi
        hi *= grow
    raise RuntimeError("maximum not bracketed; objective appears unbounded")


def fd_gradient_sym(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient over symmetric perturbations.

    The convention matches the analytic gradient: for symmetric ``G``
    and direction ``D``, ``f(x + t D) ~ f(x) + t tr[G D]``.
    """
    n = x.shape[0]
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = np.zeros((n, n))
            d[i, j] = 1.0
            d[j, i] = 1.0
            step = (f(x + h * d) - f(x - h * d)) / (2.0 * h)
            if i == j:
                # d = E_ii, so the difference quotient is tr[G E_ii] = G_ii.
                g[i, i] = step
            else:
                # d = E_ij + E_ji, so the quotient is 2 G_ij.
                g[i, j] = g[j, i] = step / 2.0
    return g


def gaussian_w2_quadrature(
    mean_a: float, std_a: float, mean_b: float, std_b: float, points: int = 200001
) -> float:
    """Squared 2-Wasserstein distance between scalar Gaussians.

    Integrates the squared quantile gap by the midpoint rule, using
    nothing but the definition of the distance on the line.
    """
    u = (np.arange(points) + 0.5) / points
    qa = mean_a + std_a * ndtri(u)
    qb = mean_b + std_b * ndtri(u)
    return float(np.mean((qa - qb) ** 2))


def worst_cov_no_obs(
    s_next: np.ndarray, p_next: np.ndarray, lam: float, sigma_hat: np.ndarray
) -> np.ndarray:
    """Closed-form maximizer when the stage has no measurement.

    With ``C = 0`` the posterior equals the prior, the objective's
    stationarity condition becomes linear in the transport map, and

        cov = lam^2 (lam I - P - S)^{-1} sigma_hat (lam I - P - S)^{-1}

    whenever ``lam I - P - S`` is positive definite.
    """
    n = sigma_hat.shape[0]
    gap = lam * np.eye(n) - p_next - s_next
    if np.linalg.eigvalsh(symmetrize(gap)).min() <= 0.0:
        raise ValueError("no interior maximizer: lam I - P - S is not PD")
    inv = np.linalg.inv(gap)
    return symmetrize(lam * lam * inv @ sigma_hat @ inv)


# The saddle's terms square by multiplying, which rounds the same on a
# numpy scalar as on an array (``** 2`` on a numpy scalar goes through
# the C library's ``pow``, which can differ in the last bit).
def _saddle_var_term(
    v: np.ndarray, q_f: float, lam: float, sigma_hat: float
) -> np.ndarray:
    """Penalized value of the disturbance variances ``v``."""
    gap = np.sqrt(v) - np.sqrt(sigma_hat)
    return q_f * v - lam * (gap * gap)


def _saddle_mean_term(
    w: np.ndarray, m: float, q_f: float, lam: float, w_hat: float
) -> np.ndarray:
    """Penalized value of the disturbance means ``w`` after drift ``m``."""
    shifted, gap = m + w, w - w_hat
    return q_f * (shifted * shifted) - lam * (gap * gap)


def t1_scalar_saddle(
    a: float,
    b: float,
    q: float,
    q_f: float,
    r: float,
    lam: float,
    w_hat: float,
    sigma_hat: float,
    x0: float,
    grid_points: int = 4001,
) -> float:
    """Brute-force saddle value of the one-step scalar problem.

    The state starts at a known ``x0``; the controller picks ``u``, the
    adversary then picks a Gaussian disturbance ``(w_mean, w_var)`` and
    pays the quadratic transport penalty.  Both layers are resolved by
    refined grids, giving

        min_u [ q x0^2 + r u^2
                + max_w_mean ( q_f (a x0 + b u + w_mean)^2
                               - lam (w_mean - w_hat)^2 )
                + max_w_var ( q_f w_var
                              - lam (sqrt(w_var) - sqrt(sigma_hat))^2 ) ]

    which requires ``lam > q_f`` for the inner maxima to exist.  The
    inner grids are evaluated a pass at a time; the outer loop over
    ``u`` stays a loop, so no array grows beyond ``grid_points``.
    """
    if lam <= q_f:
        raise ValueError("inner maximization unbounded: need lam > q_f")

    def var_term(v: np.ndarray) -> np.ndarray:
        return _saddle_var_term(v, q_f, lam, sigma_hat)

    v_hi = bracket_max(var_term, 0.0, max(4.0 * sigma_hat, 1.0))
    _, var_star = grid_max(var_term, 0.0, v_hi, grid_points)

    span = (abs(w_hat) + abs(x0) + 1.0) * max(
        4.0, 4.0 * q_f / (lam - q_f)
    )

    def stage_value(u: float) -> float:
        m = a * x0 + b * u

        def mean_term(w: np.ndarray) -> np.ndarray:
            return _saddle_mean_term(w, m, q_f, lam, w_hat)

        w_lo, w_hi_ = w_hat - span - abs(m), w_hat + span + abs(m)
        _, mean_star = grid_max(mean_term, w_lo, w_hi_, grid_points, refinements=3)
        return q * x0 * x0 + r * u * u + mean_star + var_star

    u_span = (abs(x0) + abs(w_hat) + 1.0) * 8.0
    us = np.linspace(-u_span, u_span, grid_points)
    vals = np.array([stage_value(u) for u in us])
    k = int(np.argmin(vals))
    for _ in range(2):
        lo, hi = us[max(k - 1, 0)], us[min(k + 1, us.size - 1)]
        us = np.linspace(lo, hi, grid_points)
        vals = np.array([stage_value(u) for u in us])
        k = int(np.argmin(vals))
    return float(vals[k])


# Largest belief-covariance deviation tolerated between a run's filter
# and the precomputed schedule before declaring them out of sync.
_SCHEDULE_TOL = 1e-8


@dataclass(frozen=True)
class WorstCaseStage:
    """Realized worst-case moments of one stage of one run."""

    mean: np.ndarray
    cov: np.ndarray
    z_tilde: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SimulationTrace:
    """Complete record of one closed-loop run.

    Attributes:
        states: True states, ``(T + 1, n_x)``.
        inputs: Applied inputs, ``(T, n_u)``.
        observations: Measurements, ``(T + 1, n_y)``.
        belief_means: Filter means after each update, ``(T + 1, n_x)``.
        belief_covs: Filter covariances, ``(T + 1, n_x, n_x)``.
        worst_case: Per-stage adversarial moments (robust mode only).
        realized_cost: Accumulated quadratic cost of the run.
        run: Run index that keyed the randomness.
        seed: Master seed the randomness derived from.
    """

    states: np.ndarray
    inputs: np.ndarray
    observations: np.ndarray
    belief_means: np.ndarray
    belief_covs: np.ndarray
    worst_case: tuple[WorstCaseStage, ...] | None
    realized_cost: float
    run: int
    seed: int


def control_input(K_t: np.ndarray, L_t: np.ndarray, belief: BeliefState) -> np.ndarray:
    """Affine control law ``u = K x_bar + L`` on the belief mean."""
    return K_t @ belief.mean + L_t


def run_closed_loop(
    mode: ControllerMode,
    scenario: ScenarioSpec,
    sys: LinearSystem,
    cost: CostSpec,
    run: int = 0,
    realization: Realization | None = None,
) -> SimulationTrace:
    """Simulate one run of the closed loop under the true distributions.

    Args:
        mode: Synthesized controller (robust or baseline).
        scenario: True distributions and master seed.
        sys: Plant matrices.
        cost: Quadratic cost and horizon.
        run: Run index keying this run's randomness.
        realization: Optional pre-drawn randomness; defaults to the
            realization determined by ``(scenario.seed, run)``.

    Returns:
        The full trace, including the realized cost.
    """
    T = cost.horizon
    robust = isinstance(mode, WdrcController)
    if mode.horizon != T:
        raise ValueError(
            f"controller synthesized for horizon {mode.horizon}, cost has {T}"
        )
    if realization is None:
        realization = draw_realization(scenario, sys, T, run)

    states = np.zeros((T + 1, sys.n_x))
    inputs = np.zeros((T, sys.n_u))
    observations = np.zeros((T + 1, sys.n_y))
    belief_means = np.zeros((T + 1, sys.n_x))
    belief_covs = np.zeros((T + 1, sys.n_x, sys.n_x))
    wc_stages: list[WorstCaseStage] = []

    x = realization.x0
    states[0] = x
    y = sys.C @ x + realization.v[0]
    observations[0] = y
    belief = init_belief(scenario.initial_state, y, sys)
    if robust:
        _check_schedule(belief.cov, mode.schedule.post_covs[0], 0)
    belief_means[0], belief_covs[0] = belief.mean, belief.cov

    realized = 0.0
    for t in range(T):
        u = control_input(mode.K[t], mode.L[t], belief)
        inputs[t] = u
        realized += float(x @ cost.Q @ x) + float(u @ cost.R @ u)

        if robust:
            solve = mode.schedule.solves[t]
            w_mean = worst_case_mean(
                sys,
                mode.solution.lam,
                mode.solution.P[t + 1],
                mode.solution.r[t + 1],
                belief.mean,
                u,
                mode.nominal.mean(t),
            )
            w_cov = solve.cov
            wc_stages.append(
                WorstCaseStage(
                    mean=w_mean,
                    cov=w_cov,
                    z_tilde=solve.z_tilde,
                    iterations=solve.iterations,
                    converged=solve.converged,
                )
            )
        else:
            w_mean = mode.nominal.mean(t)
            w_cov = mode.nominal.cov(t)

        x = sys.A @ x + sys.B @ u + realization.w[t]
        states[t + 1] = x
        y = sys.C @ x + realization.v[t + 1]
        observations[t + 1] = y

        belief = update(predict(belief, u, w_mean, w_cov, sys), y, sys)
        if robust:
            _check_schedule(belief.cov, mode.schedule.post_covs[t + 1], t + 1)
        belief_means[t + 1], belief_covs[t + 1] = belief.mean, belief.cov

    realized += float(x @ cost.Q_f @ x)
    return SimulationTrace(
        states=states,
        inputs=inputs,
        observations=observations,
        belief_means=belief_means,
        belief_covs=belief_covs,
        worst_case=tuple(wc_stages) if robust else None,
        realized_cost=realized,
        run=run,
        seed=scenario.seed,
    )


def _check_schedule(cov: np.ndarray, expected: np.ndarray, t: int) -> None:
    drift = float(np.max(np.abs(cov - expected)))
    if drift > _SCHEDULE_TOL:
        raise ScheduleMismatch(
            f"filter covariance at stage {t} deviates from the schedule "
            f"by {drift:.3e}; the schedule was built for a different "
            "initial belief or scenario"
        )


def trace_cost(trace: SimulationTrace, cost: CostSpec) -> float:
    """Recompute the realized cost of a trace from its states and inputs."""
    total = 0.0
    for t in range(trace.inputs.shape[0]):
        x, u = trace.states[t], trace.inputs[t]
        total += float(x @ cost.Q @ x) + float(u @ cost.R @ u)
    x_T = trace.states[-1]
    return total + float(x_T @ cost.Q_f @ x_T)


def _random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return symmetrize(m @ m.T * scale / n + 1e-3 * np.eye(n))


def _random_ctx(rng: np.random.Generator, n: int, n_y: int) -> CovObjectiveContext:
    sys = LinearSystem(
        A=rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((n_y, n)),
        M=_random_psd(rng, n_y) + 0.1 * np.eye(n_y),
    )
    p_next = _random_psd(rng, n)
    s_next = _random_psd(rng, n)
    lam = float(np.linalg.eigvalsh(p_next).max() * (2.0 + rng.random() * 3.0) + 1.0)
    return CovObjectiveContext(
        S_next=s_next,
        P_next=p_next,
        lam=lam,
        Sigma_hat=_random_psd(rng, n),
        P_bar=_random_psd(rng, n),
        sys=sys,
    )


def run_oracle_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Cross-check the fast implementations against the slow routes.

    Returns:
        ``(name, passed, detail)`` triples, one per check.
    """
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    def record(name: str, err: float, tol: float) -> None:
        results.append((name, bool(err <= tol), f"max err {err:.3e} (tol {tol:.0e})"))

    # Square-root trace of a product: closed form against raw eigenvalues.
    err = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            a, b = _random_psd(rng, n), _random_psd(rng, n)
            root_a = np.linalg.cholesky(a + 1e-12 * np.eye(n))
            eigs = np.linalg.eigvalsh(symmetrize(root_a.T @ b @ root_a))
            ref = float(np.sqrt(np.clip(eigs, 0.0, None)).sum())
            err = max(err, abs(trace_sqrt_product(a, b) - ref) / max(ref, 1.0))
    record("trace_sqrt_product vs eigenvalue route", err, 1e-9)

    # Transport map pushes the first covariance onto the second.
    err = 0.0
    for n in (1, 2, 3):
        for _ in range(20):
            a = _random_psd(rng, n) + 0.05 * np.eye(n)
            b = _random_psd(rng, n)
            t = transport_map(a, b)
            err = max(err, float(np.abs(t @ a @ t - b).max()))
    record("transport map pushforward", err, 1e-8)

    # Scalar Gaussian distance: moment formula against quantile quadrature.
    err = 0.0
    for _ in range(5):
        ma, mb = rng.normal(size=2)
        sa, sb = 0.2 + rng.random(2)
        quad = gaussian_w2_quadrature(ma, sa, mb, sb)
        closed = gelbrich_dist_sq(
            MomentPair(np.array([ma]), np.array([[sa * sa]])),
            MomentPair(np.array([mb]), np.array([[sb * sb]])),
        )
        err = max(err, abs(quad - closed) / max(closed, 1e-6))
    record("scalar distance vs quantile quadrature", err, 1e-3)

    # Covariance objective gradient against central finite differences.
    err = 0.0
    for n in (1, 2, 3):
        for _ in range(10):
            ctx = _random_ctx(rng, n, max(1, n - 1))
            sigma = _random_psd(rng, n) + 0.05 * np.eye(n)
            grad = cov_gradient(sigma, ctx)
            fd = fd_gradient_sym(lambda s: cov_objective(s, ctx), sigma)
            scale = max(float(np.abs(grad).max()), 1.0)
            err = max(err, float(np.abs(grad - fd).max()) / scale)
    record("covariance gradient vs finite differences", err, 1e-5)

    # Scalar worst-case covariance: ascent solver against a refined grid.
    err = 0.0
    for _ in range(10):
        ctx = _random_ctx(rng, 1, 1)
        solve = solve_worst_case_cov(ctx, SolverOptions())

        def f(v: np.ndarray) -> np.ndarray:
            return cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)

        hi = bracket_max(f, 0.0, float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0)
        v_star, f_star = grid_max(f, 0.0, hi)
        err = max(err, abs(float(solve.cov[0, 0]) - v_star) / max(v_star, 1e-9))
        err = max(err, abs(solve.z_tilde - f_star) / max(abs(f_star), 1e-9))
    record("scalar worst-case covariance vs grid", err, 1e-3)

    # Unobserved stage: ascent solver against the closed form.
    err = 0.0
    for n in (1, 2, 3):
        for _ in range(5):
            ctx0 = _random_ctx(rng, n, 1)
            lam = float(
                np.linalg.eigvalsh(ctx0.P_next + ctx0.S_next).max() * 2.0 + 1.0
            )
            ctx = CovObjectiveContext(
                S_next=ctx0.S_next,
                P_next=ctx0.P_next,
                lam=lam,
                Sigma_hat=ctx0.Sigma_hat,
                P_bar=ctx0.P_bar,
                sys=LinearSystem(
                    A=ctx0.sys.A,
                    B=ctx0.sys.B,
                    C=np.zeros((1, n)),
                    M=np.eye(1),
                ),
            )
            ref = worst_cov_no_obs(ctx.S_next, ctx.P_next, lam, ctx.Sigma_hat)
            solve = solve_worst_case_cov(ctx, SolverOptions())
            err = max(
                err,
                float(np.abs(solve.cov - ref).max()) / max(np.abs(ref).max(), 1e-9),
            )
    record("unobserved-stage covariance vs closed form", err, 1e-4)

    # One-step scalar problem: recursion value against the grid saddle.
    err = 0.0
    for _ in range(3):
        a = float(rng.uniform(0.5, 1.5))
        b = float(rng.uniform(0.5, 1.5))
        q_f = float(rng.uniform(0.5, 2.0))
        lam = q_f * float(rng.uniform(3.0, 6.0))
        w_hat = float(rng.uniform(-0.5, 0.5))
        sigma_hat = float(rng.uniform(0.05, 0.5))
        x0 = float(rng.uniform(-1.0, 1.0))
        sys = LinearSystem(
            A=np.array([[a]]),
            B=np.array([[b]]),
            C=np.array([[1.0]]),
            M=np.array([[0.5]]),
        )
        cost = CostSpec(
            Q=np.array([[1.0]]),
            Q_f=np.array([[q_f]]),
            R=np.array([[1.0]]),
            horizon=1,
        )
        nominal = NominalDistribution(
            (MomentPair(np.array([w_hat]), np.array([[sigma_hat]])),)
        )
        ctrl = synthesize_wdrc(sys, cost, nominal, lam, np.zeros((1, 1)))
        value = evaluate_value(
            ctrl.solution,
            ctrl.schedule.z_tilde_path,
            BeliefState(np.array([x0]), np.zeros((1, 1))),
        )
        ref = t1_scalar_saddle(
            a, b, 1.0, q_f, 1.0, lam, w_hat, sigma_hat, x0, grid_points=401
        )
        err = max(err, abs(value - ref) / max(abs(ref), 1e-6))
    record("one-step value vs grid saddle", err, 1e-3)

    # Huge penalty collapses the robust gains onto plain LQR.
    sys = LinearSystem(
        A=np.array([[0.9, 0.2], [-0.1, 0.8]]),
        B=np.array([[1.0], [0.5]]),
        C=np.array([[1.0, 0.0]]),
        M=np.array([[0.1]]),
    )
    cost = CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=np.eye(1), horizon=15)
    nominal = NominalDistribution(
        tuple(
            MomentPair(np.zeros(2), 0.01 * np.eye(2)) for _ in range(cost.horizon)
        )
    )
    sol = backward_pass(sys, cost, nominal, 1e8)
    _, k_ref = lqr_gains(sys, cost)
    err = float(np.abs(sol.K - k_ref).max()) / max(float(np.abs(k_ref).max()), 1.0)
    record("huge-penalty gains vs plain LQR", err, 1e-6)

    return results
