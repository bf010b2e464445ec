"""Independent reference computations for validating the solvers.

Everything here deliberately avoids the production code paths: brute
force grids, central finite differences, inverse-CDF quadrature,
closed forms that exist only in special cases, and a per-run filter
loop (:func:`run_closed_loop`) for the batched rollouts.  Tests compare
the fast implementations against these slow routes;
``run_oracle_suite`` bundles the same comparisons behind the ``oracle``
CLI subcommand.  Its scalar worst-case covariance check grids the
stage objective's own closed form for one state
(:func:`_scalar_cov_objective`), so neither the grid nor the value it
checks ``z_tilde`` against runs :func:`~wdrc.worstcase.cov_objective`.

The grid searches (:func:`grid_max`, :func:`bracket_max`) take
vectorized objectives: ``f`` maps a 1-D array of points to the array of
its values there, and each pass evaluates its whole grid in one call.
:func:`t1_scalar_saddle` goes one step further and grids the inner
maxima of many controls at once, one row per control, in blocks of
rows; :func:`fd_gradient_sym` evaluates all its perturbed points in one
stacked call.  Elementwise numpy arithmetic, and
:func:`~wdrc.worstcase.cov_objective` on a stack, give every point the
bits of its evaluation alone, and each row grid is built with the bits
of its own ``np.linspace``, so these routes return what a
point-by-point loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .bounds import evaluate_value
from .controller import ControllerMode, WdrcController, synthesize_wdrc
from .errors import NotPD, WdrcError
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
    cov_gradient,
    cov_objective,
    solve_worst_case_cov,
)

__all__ = [
    "lqr_gains",
    "grid_max",
    "bracket_max",
    "fd_gradient_sym",
    "normal_quantile",
    "gaussian_w2_quadrature",
    "worst_cov_no_obs",
    "t1_scalar_saddle",
    "ScheduleMismatch",
    "worst_case_mean",
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


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """Row ``i`` is ``np.linspace(lo[i], hi[i], points)``, bit for bit.

    On array bounds ``np.linspace`` scales every row by ``y / div * delta``
    as soon as one row's step is 0 (a zero-width or subnormal bracket),
    while a row with a nonzero step alone is scaled by ``y * step``.  So
    when some step is 0, the rows with a nonzero step are built again
    by themselves.
    """
    xs, step = np.linspace(lo, hi, points, axis=1, retstep=True)
    zero = np.asarray(step == 0)
    if zero.any():
        moving = ~zero
        xs[moving] = np.linspace(lo[moving], hi[moving], points, axis=1)
    return xs


def _grid_max_rows(
    f, lo: np.ndarray, hi: np.ndarray, points: int, refinements: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid_max` on each row of the bounds ``lo``, ``hi``, all
    rows in one pass: ``f`` maps a ``(rows, points)`` block of points to
    its values.  Each row is zoomed on its own.

    Returns:
        ``(argmax, max)``, one entry per row.
    """
    rows = np.arange(lo.size)
    xs = _linspace_rows(lo, hi, points)
    vals = f(xs)
    k = np.argmax(vals, axis=1)
    for _ in range(refinements):
        lo = xs[rows, np.maximum(k - 1, 0)]
        hi = xs[rows, np.minimum(k + 1, points - 1)]
        xs = _linspace_rows(lo, hi, points)
        vals = f(xs)
        k = np.argmax(vals, axis=1)
    return xs[rows, k], vals[rows, k]


def grid_max(f, lo: float, hi: float, points: int = 10001, refinements: int = 2):
    """Maximize a scalar function by gridding, then zooming in on the
    argmax ``refinements`` times.

    ``f`` maps a 1-D array of points to the array of its values there;
    each pass calls it once, on the pass's whole grid.

    Returns:
        ``(argmax, max)`` after the final refinement pass.
    """
    x, val = _grid_max_rows(
        lambda xs: f(xs[0])[None],
        np.array([lo], dtype=float),
        np.array([hi], dtype=float),
        points,
        refinements,
    )
    return float(x[0]), float(val[0])


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
    and direction ``D``, ``f(x + t D) ~ f(x) + t tr[G D]``.  ``f`` maps
    a stack ``(k, n, n)`` of points to the ``k`` values there, each
    with the bits of its point alone (as
    :func:`~wdrc.worstcase.cov_objective` does); it is called once, on
    the ``n(n + 1)`` perturbed points.
    """
    n = x.shape[0]
    i, j = np.triu_indices(n)
    d = np.zeros((i.size, n, n))
    d[np.arange(i.size), i, j] = 1.0
    d[np.arange(i.size), j, i] = 1.0
    vals = f(np.concatenate([x + h * d, x - h * d]))
    step = (vals[: i.size] - vals[i.size :]) / (2.0 * h)
    g = np.empty((n, n))
    # On the diagonal d = E_ii, so the difference quotient is
    # tr[G E_ii] = G_ii; off it d = E_ij + E_ji and the quotient is 2 G_ij.
    g[i, j] = g[j, i] = np.where(i == j, step, step / 2.0)
    return g


# Wichura's AS 241 (PPND16), "The percentage points of the normal
# distribution", Applied Statistics 37 (1988): rational approximations
# of degree 7 with about 1e-16 relative error, one per range of the
# normal quantile.  Each tuple runs from the constant coefficient up.
_AS241_CENTRAL = (
    (
        3.387132872796366608,
        1.3314166789178437745e2,
        1.9715909503065514427e3,
        1.3731693765509461125e4,
        4.5921953931549871457e4,
        6.7265770927008700853e4,
        3.3430575583588128105e4,
        2.5090809287301226727e3,
    ),
    (
        1.0,
        4.2313330701600911252e1,
        6.8718700749205790830e2,
        5.3941960214247511077e3,
        2.1213794301586595867e4,
        3.9307895800092710610e4,
        2.8729085735721942674e4,
        5.2264952788528545610e3,
    ),
)
_AS241_NEAR = (
    (
        1.42343711074968357734,
        4.63033784615654529590,
        5.76949722146069140550,
        3.64784832476320460504,
        1.27045825245236838258,
        2.41780725177450611770e-1,
        2.27238449892691845833e-2,
        7.74545014278341407640e-4,
    ),
    (
        1.0,
        2.05319162663775882187,
        1.67638483018380384940,
        6.89767334985100004550e-1,
        1.48103976427480074590e-1,
        1.51986665636164571966e-2,
        5.47593808499534494600e-4,
        1.05075007164441684324e-9,
    ),
)
_AS241_FAR = (
    (
        6.65790464350110377720,
        5.46378491116411436990,
        1.78482653991729133580,
        2.96560571828504891230e-1,
        2.65321895265761230930e-2,
        1.24266094738807843860e-3,
        2.71155556874348757815e-5,
        2.01033439929228813265e-7,
    ),
    (
        1.0,
        5.99832206555887937690e-1,
        1.36929880922735805310e-1,
        1.48753612908506148525e-2,
        7.86869131145613259100e-4,
        1.84631831751005468180e-5,
        1.42151175831644588870e-7,
        2.04426310338993978564e-15,
    ),
)


def _rational(coeffs: tuple[tuple[float, ...], ...], x: np.ndarray) -> np.ndarray:
    """``num(x) / den(x)``, both polynomials by Horner's rule."""
    num, den = (np.full_like(x, c[-1]) for c in coeffs)
    for a, b in zip(coeffs[0][-2::-1], coeffs[1][-2::-1]):
        num = num * x + a
        den = den * x + b
    return num / den


def normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of the probabilities ``0 < p < 1``, by
    AS 241 (Wichura 1988), elementwise.

    With ``q = p - 1/2``, the quantile is ``q R(0.180625 - q^2)`` where
    ``|q| <= 0.425``.  Beyond that it is ``R(r - 1.6)`` for ``r <= 5``
    and ``R(r - 5)`` above, with ``r = sqrt(-log(min(p, 1 - p)))`` and
    the sign of ``q``; each range has its own rational ``R``.  Each
    point's value is its own elementwise arithmetic, so it does not
    depend on the array that holds it.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    # The central form on every point, then the few tail points redone.
    z = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near, far = _rational(_AS241_NEAR, r - 1.6), _rational(_AS241_FAR, r - 5.0)
    z[tail] = np.copysign(np.where(r <= 5.0, near, far), q[tail])
    return z


# A few entries: the suite uses one grid size, and one 200,001-point
# grid holds 1.6 MB.
@lru_cache(maxsize=4)
def _quantile_grid(points: int) -> np.ndarray:
    """Standard normal quantiles at the midpoints of ``points`` equal
    cells, ``normal_quantile((arange(points) + 0.5) / points)``.

    Built once per ``points`` in a process; every caller shares the
    array, so it is read-only.
    """
    z = normal_quantile((np.arange(points) + 0.5) / points)
    z.flags.writeable = False
    return z


def gaussian_w2_quadrature(
    mean_a: float, std_a: float, mean_b: float, std_b: float, points: int = 200001
) -> float:
    """Squared 2-Wasserstein distance between scalar Gaussians.

    Integrates the squared quantile gap by the midpoint rule, using
    nothing but the definition of the distance on the line.
    """
    z = _quantile_grid(points)
    qa = mean_a + std_a * z
    qb = mean_b + std_b * z
    return float(np.mean((qa - qb) ** 2))


def _scalar_cov_objective(v: np.ndarray, ctx: CovObjectiveContext) -> np.ndarray:
    """The stage objective of a one-state, one-output context at the
    disturbance variances ``v``, in closed form:

        G     = a^2 P_bar + v
        post  = G m / (c^2 G + m)
        value = s post + (p - lam) v + 2 lam sqrt(max(v sigma_hat, 0))

    with ``a``, ``c``, ``m``, ``s``, ``p``, ``P_bar`` and ``sigma_hat``
    the single entries of ``A``, ``C``, ``M``, ``S_next``, ``P_next``,
    ``P_bar`` and ``Sigma_hat``.  ``v`` is clamped at ``1e-12`` first,
    so a grid that starts at 0 evaluates positive variances only.
    """
    a, c, m, s, p, p_bar, sigma_hat = (
        float(x[0, 0])
        for x in (
            ctx.sys.A,
            ctx.sys.C,
            ctx.sys.M,
            ctx.S_next,
            ctx.P_next,
            ctx.P_bar,
            ctx.Sigma_hat,
        )
    )
    v = np.maximum(v, 1e-12)
    g = a * a * p_bar + v
    post = g * m / (c * c * g + m)
    return (
        s * post
        + (p - ctx.lam) * v
        + 2.0 * ctx.lam * np.sqrt(np.maximum(v * sigma_hat, 0.0))
    )


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
    w: np.ndarray, m: float | np.ndarray, q_f: float, lam: float, w_hat: float
) -> np.ndarray:
    """Penalized value of the disturbance means ``w`` after drift ``m``,
    a scalar or a column of one drift per row of ``w``."""
    # q_f * (shifted * shifted) - lam * (gap * gap), worked in place on
    # the two temporaries: the same roundings, at about half the time.
    shifted, gap = m + w, w - w_hat
    shifted *= shifted
    shifted *= q_f
    gap *= gap
    gap *= lam
    shifted -= gap
    return shifted


# Largest number of values one pass of the saddle's inner grids holds.
# A block of 2**15 doubles (256 KiB) keeps a pass's temporaries in
# cache: at 401 grid points the saddle took 13 ms at this size against
# 20 ms at 2**18 (single runs, 2-core machine).
_SADDLE_PASS_VALUES = 2**15


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
    inner mean grids of an outer pass's controls ``u`` are rows of
    blocks of ``_SADDLE_PASS_VALUES // grid_points`` rows (at least
    one), each block a pass at a time, so no pass holds more than
    ``2**15`` values unless one grid alone does.  The value is bit for
    bit that of one inner grid search per ``u``.
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
    rows = max(1, _SADDLE_PASS_VALUES // grid_points)

    def stage_values(us: np.ndarray) -> np.ndarray:
        vals = np.empty(us.size)
        for start in range(0, us.size, rows):
            u = us[start : start + rows]
            m = a * x0 + b * u
            reach = np.abs(m)
            mean_term = partial(
                _saddle_mean_term, m=m[:, None], q_f=q_f, lam=lam, w_hat=w_hat
            )
            _, mean_star = _grid_max_rows(
                mean_term,
                w_hat - span - reach,
                w_hat + span + reach,
                grid_points,
                refinements=3,
            )
            vals[start : start + rows] = (
                q * x0 * x0 + r * u * u + mean_star + var_star
            )
        return vals

    # The outer minimum is grid_max of the negated stage value: negation
    # is exact, and argmax takes the first of equal values as argmin does.
    u_span = (abs(x0) + abs(w_hat) + 1.0) * 8.0
    _, neg_min = grid_max(
        lambda us: -stage_values(us), -u_span, u_span, grid_points
    )
    return -neg_min


class ScheduleMismatch(WdrcError):
    """A precomputed worst-case schedule does not match the run's filter."""


def worst_case_mean(
    sys: LinearSystem,
    lam: float,
    P_next: np.ndarray,
    r_next: np.ndarray,
    x_bar: np.ndarray,
    u_star: np.ndarray,
    w_hat: np.ndarray,
) -> np.ndarray:
    """Adversarial disturbance mean for one stage.

    ``(lam I - P_next)^{-1} (r_next + P_next (A x_bar + B u_star)
    + lam w_hat)``; requires ``lam I - P_next`` positive definite.
    """
    n = sys.n_x
    shifted = lam * np.eye(n) - P_next
    if float(np.linalg.eigvalsh(symmetrize(shifted))[0]) <= 0.0:
        raise NotPD("penalty matrix lam I - P_next is not positive definite")
    drift = sys.A @ x_bar + sys.B @ np.atleast_1d(u_star)
    return np.linalg.solve(shifted, r_next + P_next @ drift + lam * w_hat)


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
    # Singular pairs with a closed form: for PSD ``u`` and ``a = u b u``
    # the value is ``tr(u b)`` (Gelbrich), at every rank of ``b`` below
    # ``n``.  Drawn from their own stream, so later checks draw as before.
    pairs = np.random.default_rng([seed, 1])
    for n in (2, 3):
        for rank in range(1, n):
            for _ in range(10):
                basis = np.linalg.qr(pairs.standard_normal((n, n)))[0][:, :rank]
                b = symmetrize((basis * pairs.uniform(0.05, 1.0, rank)) @ basis.T)
                u = _random_psd(pairs, n)
                ref = float(np.trace(u @ b))
                got = trace_sqrt_product(symmetrize(u @ b @ u), b)
                err = max(err, abs(got - ref) / max(ref, 1.0))
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

    # Scalar worst-case covariance: solver against a refined grid of the
    # objective's closed form, which shares no code with the solver's
    # objective; so the grid's maximum checks z_tilde too.
    err = 0.0
    for _ in range(10):
        ctx = _random_ctx(rng, 1, 1)
        solve = solve_worst_case_cov(ctx)
        f = partial(_scalar_cov_objective, ctx=ctx)
        hi = bracket_max(f, 0.0, float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0)
        v_star, f_star = grid_max(f, 0.0, hi)
        err = max(err, abs(float(solve.cov[0, 0]) - v_star) / max(v_star, 1e-9))
        err = max(err, abs(solve.z_tilde - f_star) / max(abs(f_star), 1e-9))
    record("scalar worst-case covariance vs grid", err, 1e-3)

    # Unobserved stage: solver against the closed form.
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
            solve = solve_worst_case_cov(ctx)
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
