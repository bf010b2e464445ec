"""Worst-case disturbance moments under a Wasserstein-style penalty.

At each stage the adversary picks the disturbance distribution that
maximizes the penalized continuation value.  The worst-case mean has a
closed form; the worst-case covariance solves

    max_{Sigma >= 0}  tr[S_next V(G)] + tr[(P_next - lam I) Sigma]
                      + 2 lam tr[(Sigma^{1/2} Sigma_hat Sigma^{1/2})^{1/2}]

where ``G = A P_bar A' + Sigma`` is the predicted state covariance and
``V(G) = G - G C' (C G C' + M)^{-1} C G`` its measurement update.  The
objective is concave on the PSD cone (the last term is a Bures cross
term, and ``V`` is a minimum of functions linear in ``G``), and an
equivalent semidefinite program exists via Schur complements; this
module solves it with the stationarity fixed point of the transport
map, backed by projected gradient ascent with Armijo backtracking,
which is fast at the small state dimensions the harness targets and is
cross-checked against grid oracles in the test suite.  When the fixed
point is undefined at the start, it is retried from the ascent iterate
on a doubling schedule of ascent steps, because near the smallest
feasible penalty the maximizer can lie far out along a direction in
which the objective is nearly flat, where plain ascent crawls.

The maximization is bounded only when the penalty is large enough; if
iterates grow without bound the solver raises
:class:`~wdrc.errors.Diverged` instead of silently returning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import Diverged, NotPD, NotPSD, SingularInnovation
from .model import LinearSystem, NominalDistribution
from .psdmath import (
    psd_tolerance,
    symmetrize,
    trace_sqrt_product,
    transport_map,
)
from .riccati import RiccatiSolution

__all__ = [
    "CovObjectiveContext",
    "SolverOptions",
    "CovSolve",
    "WorstCaseSchedule",
    "worst_case_mean",
    "cov_objective",
    "cov_gradient",
    "solve_worst_case_cov",
    "forward_schedule",
    "mean_affine",
]


@dataclass(frozen=True)
class CovObjectiveContext:
    """Fixed data of one stage's worst-case covariance problem.

    Attributes:
        S_next: Estimation-error value coefficient at the next stage.
        P_next: Quadratic value coefficient at the next stage.
        lam: Penalty parameter.
        Sigma_hat: Nominal disturbance covariance at this stage.
        P_bar: Posterior state covariance at this stage.
        sys: Plant matrices (supplies ``A``, ``C``, ``M``).
    """

    S_next: np.ndarray
    P_next: np.ndarray
    lam: float
    Sigma_hat: np.ndarray
    P_bar: np.ndarray
    sys: LinearSystem


@dataclass(frozen=True)
class SolverOptions:
    """Covariance solver hyperparameters.

    ``fp_max_iter`` bounds each run of the transport fixed point (the
    pre-solve and its retries); the remaining fields drive the
    projected-gradient-ascent fallback.
    """

    max_iter: int = 5000
    step0: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    tol_scale: float = 1e-7
    fp_max_iter: int = 200
    record_trace: bool = False


@dataclass(frozen=True)
class CovSolve:
    """Solver output for one stage.

    Attributes:
        cov: Maximizing covariance.
        z_tilde: Objective value at the maximizer.
        iterations: Accepted ascent steps plus the passes of every
            adopted fixed point.
        converged: Whether the stationarity residual met tolerance.
        trace: Optional per-iteration ``(objective, residual)`` rows.
    """

    cov: np.ndarray
    z_tilde: float
    iterations: int
    converged: bool
    trace: tuple[tuple[float, float], ...] = field(default=())


@dataclass(frozen=True)
class WorstCaseSchedule:
    """Run-independent worst-case covariance path of a synthesized policy.

    The covariance problem depends on the belief covariance only, and
    that recursion is data-independent, so one forward pass serves
    every Monte-Carlo run.

    Attributes:
        solves: Per-stage solver outputs for stages ``0..T-1``.
        post_covs: Belief covariances, ``(T + 1, n, n)``;
            ``post_covs[0]`` is the initial posterior the schedule was
            built from.
        prior_covs: Predicted covariances for stages ``1..T``.
        gains: Measurement gains used at stages ``1..T``.
    """

    solves: tuple[CovSolve, ...]
    post_covs: np.ndarray
    prior_covs: np.ndarray
    gains: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.solves)

    @property
    def z_tilde_path(self) -> np.ndarray:
        return np.array([s.z_tilde for s in self.solves])

    def cov(self, t: int) -> np.ndarray:
        return self.solves[t].cov


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


def _predicted_posterior(Sigma: np.ndarray, ctx: CovObjectiveContext):
    """Posterior covariance, gain, and prior after predicting with ``Sigma``."""
    sys = ctx.sys
    G = symmetrize(sys.A @ ctx.P_bar @ sys.A.T + Sigma)
    innov = symmetrize(sys.C @ G @ sys.C.T + sys.M)
    try:
        gain = np.linalg.solve(innov, sys.C @ G).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    post = symmetrize(G - gain @ sys.C @ G)
    return post, gain, G


def _objective(Sigma: np.ndarray, ctx: CovObjectiveContext) -> float:
    post, _, _ = _predicted_posterior(Sigma, ctx)
    shifted = ctx.P_next - ctx.lam * np.eye(Sigma.shape[0])
    return float(
        np.trace(ctx.S_next @ post)
        + np.trace(shifted @ Sigma)
        + 2.0 * ctx.lam * trace_sqrt_product(Sigma, ctx.Sigma_hat)
    )


def _gradient(Sigma: np.ndarray, ctx: CovObjectiveContext) -> np.ndarray:
    sys = ctx.sys
    _, gain, _ = _predicted_posterior(Sigma, ctx)
    closed = np.eye(Sigma.shape[0]) - gain @ sys.C
    grad = (
        ctx.P_next
        - ctx.lam * np.eye(Sigma.shape[0])
        + ctx.lam * transport_map(Sigma, ctx.Sigma_hat)
        + closed.T @ ctx.S_next @ closed
    )
    return symmetrize(grad)


def cov_objective(Sigma: np.ndarray, ctx: CovObjectiveContext) -> float:
    """Evaluate the stage objective at a PSD candidate covariance."""
    Sigma = symmetrize(Sigma)
    if float(np.linalg.eigvalsh(Sigma)[0]) < -psd_tolerance(Sigma):
        raise NotPSD("candidate covariance is not PSD")
    return _objective(Sigma, ctx)


def cov_gradient(Sigma: np.ndarray, ctx: CovObjectiveContext) -> np.ndarray:
    """Gradient of the stage objective at a positive definite candidate.

    The Bures cross term contributes ``lam`` times the optimal
    transport factor between ``Sigma`` and ``Sigma_hat``, the linear
    term contributes ``P_next - lam I``, and the filtered term
    contributes ``(I - K C)' S_next (I - K C)`` with ``K`` the
    measurement gain of the predicted covariance.
    """
    Sigma = symmetrize(Sigma)
    if float(np.linalg.eigvalsh(Sigma)[0]) <= 0.0:
        raise NotPD("gradient requires a positive definite covariance")
    return _gradient(Sigma, ctx)


def _project(m: np.ndarray, floor: float) -> np.ndarray:
    """Clamp eigenvalues of the symmetric part at ``floor``."""
    vals, vecs = np.linalg.eigh(symmetrize(m))
    if vals[0] >= floor:
        return symmetrize(m)
    vals = np.clip(vals, floor, None)
    return symmetrize((vecs * vals) @ vecs.T)


def _fixed_point(
    ctx: CovObjectiveContext, Sigma: np.ndarray, floor: float, opts: SolverOptions
) -> tuple[np.ndarray, int] | None:
    """Iterate the stationarity map of the covariance objective.

    At an interior maximizer the transport factor ``T`` (``T Sigma T =
    Sigma_hat``) must equal ``(lam I - P - (I - K C)' S (I - K C)) /
    lam``, so each pass re-evaluates the gain at the current iterate
    and inverts the relation: ``Sigma <- T^{-1} Sigma_hat T^{-1}``.
    The map is not an ascent method, but its fixed point is the unique
    interior stationary point, and it contracts rapidly whenever the
    penalty dominates the continuation coefficients.

    Returns:
        ``(iterate, passes)``, or ``None`` when the map is undefined
        (the shifted coefficient matrix loses definiteness, hinting at
        a boundary maximizer or an unbounded problem).
    """
    n = Sigma.shape[0]
    sys = ctx.sys
    for k in range(opts.fp_max_iter):
        _, gain, _ = _predicted_posterior(Sigma, ctx)
        closed = np.eye(n) - gain @ sys.C
        gap = symmetrize(
            ctx.lam * np.eye(n) - ctx.P_next - closed.T @ ctx.S_next @ closed
        )
        if float(np.linalg.eigvalsh(gap)[0]) <= ctx.lam * 1e-12:
            return None
        tm = gap / ctx.lam
        nxt = symmetrize(np.linalg.solve(tm, np.linalg.solve(tm, ctx.Sigma_hat).T))
        nxt = _project(nxt, floor)
        delta = float(np.abs(nxt - Sigma).max())
        Sigma = nxt
        if delta <= 1e-14 * (1.0 + float(np.abs(Sigma).max())):
            return Sigma, k + 1
        if not np.isfinite(delta):
            return None
    return Sigma, opts.fp_max_iter


def solve_worst_case_cov(
    ctx: CovObjectiveContext,
    opts: SolverOptions = SolverOptions(),
    init: np.ndarray | None = None,
) -> CovSolve:
    """Maximize the stage objective: fixed point, then projected ascent.

    Iterates start at the nominal covariance (or ``init``), stay
    positive definite through an eigenvalue floor, and stop when the
    unit-step projected-gradient residual falls below ``tol_scale``
    times the coefficient scale ``lam + max|P_next| + max|S_next|``.
    Scaling the tolerance by the data rather than by the objective
    value keeps an unbounded instance (whose objective grows without
    limit along the ascent) from widening its own finish line.  The
    accepted step size carries over between iterations.

    The transport fixed point (:func:`_fixed_point`) runs first and its
    iterate is adopted unless it loses more than rounding noise of
    objective value.  If the map is undefined at the start, it is
    retried under the same rule from the ascent iterate after 16, 32,
    64, ... accepted ascent steps.  Either way the ascent loop has the
    last word: it certifies stationarity or raises ``Diverged``.

    Raises:
        Diverged: If iterates grow without bound or ascent stalls far
            from stationarity.
        SingularInnovation: If the predicted innovation covariance is
            singular.
    """
    floor = 1e-10 * (1.0 + float(np.trace(ctx.Sigma_hat)))
    growth_cap = 1e12 * (1.0 + float(np.trace(ctx.Sigma_hat)))
    res_scale = ctx.lam + float(np.abs(ctx.P_next).max() + np.abs(ctx.S_next).max())
    Sigma = _project(ctx.Sigma_hat if init is None else init, floor)
    f_cur = _objective(Sigma, ctx)
    step = opts.step0
    trace: list[tuple[float, float]] = []
    iterations = 0
    converged = False

    def adopt_fixed_point() -> bool:
        # Adopt the fixed point's iterate unless it loses objective value
        # by more than rounding noise (a warm start at the neighboring
        # stage's maximizer can tie to within eps while having a far
        # worse stationarity residual).  False when the map is undefined.
        nonlocal Sigma, f_cur, iterations
        fp = _fixed_point(ctx, Sigma, floor, opts)
        if fp is None:
            return False
        fp_sigma, fp_iters = fp
        f_fp = _objective(fp_sigma, ctx)
        if f_fp >= f_cur - 64.0 * np.finfo(float).eps * (1.0 + abs(f_cur)):
            Sigma, f_cur = fp_sigma, f_fp
            iterations += fp_iters
        return True

    # Where the map is undefined at the start (the gain there leaves the
    # shifted coefficient matrix indefinite, as near the feasibility
    # boundary of the penalty), it can become defined once the ascent
    # has moved toward the maximizer, so it is retried on a doubling
    # schedule of accepted steps.
    retry_at = None if adopt_fixed_point() else 16
    ascent_steps = 0

    for _ in range(opts.max_iter):
        grad = _gradient(Sigma, ctx)
        probe = _project(Sigma + opts.step0 * grad, floor)
        residual = float(np.linalg.norm(probe - Sigma)) / opts.step0
        if opts.record_trace:
            trace.append((f_cur, residual))
        if residual < opts.tol_scale * res_scale:
            converged = True
            break

        # Let the step grow without an upper cap: in nearly-flat
        # directions (penalty close to its feasibility boundary) the
        # maximizer sits far from the start and capped steps crawl.
        step = step / opts.backtrack
        accepted = False
        while step >= 1e-20 * opts.step0:
            cand = _project(Sigma + step * grad, floor)
            gap = float(np.tensordot(grad, cand - Sigma))
            if gap <= 0.0:
                step *= opts.backtrack
                continue
            f_cand = _objective(cand, ctx)
            if f_cand >= f_cur + opts.armijo * gap:
                Sigma, f_cur = cand, f_cand
                accepted = True
                break
            step *= opts.backtrack
        if not accepted:
            # The Armijo gain armijo * step * residual^2 drops below the
            # rounding noise eps * |f| before the residual tolerance is
            # reached; at that point the iterate is stationary to
            # machine-attainable accuracy.
            noise_floor = np.sqrt(
                np.finfo(float).eps * (1.0 + abs(f_cur)) / opts.armijo
            )
            if residual <= noise_floor:
                converged = True
                break
            raise Diverged(
                "ascent stalled with stationarity residual "
                f"{residual:.3e} above tolerance"
            )
        iterations += 1
        if float(np.trace(Sigma)) > growth_cap or not np.isfinite(f_cur):
            raise Diverged("worst-case covariance grew without bound")
        ascent_steps += 1
        if ascent_steps == retry_at:
            retry_at *= 2
            adopt_fixed_point()

    return CovSolve(
        cov=Sigma,
        z_tilde=f_cur,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def _memo_key(arrays: Sequence[np.ndarray]) -> bytes:
    """Quantize stage data at absolute resolution 1e-10 for memoization."""
    return b"".join(
        np.round(np.asarray(a, dtype=float) * 1e10).tobytes() for a in arrays
    )


def forward_schedule(
    sys: LinearSystem,
    sol: RiccatiSolution,
    nominal: NominalDistribution,
    p0_cov: np.ndarray,
    warm_start: bool = True,
) -> WorstCaseSchedule:
    """Solve the worst-case covariance path forward in time.

    Starting from the initial posterior covariance, each stage solves
    the covariance problem, predicts through the dynamics with the
    maximizer, and measurement-updates to the next posterior.  Stages
    whose data repeats (after the recursions reach steady state) are
    memoized at an absolute key resolution of 1e-10.  ``warm_start``
    seeds each stage's ascent at the previous maximizer, which does not
    change the maximum of the concave objective but typically cuts the
    iteration count sharply.  The first stage whose solve does not
    converge raises :class:`~wdrc.errors.Diverged`.
    """
    T = sol.horizon
    n = sys.n_x
    solves: list[CovSolve] = []
    post_covs = np.zeros((T + 1, n, n))
    prior_covs = np.zeros((T, n, n))
    gains = np.zeros((T, n, sys.n_y))
    post_covs[0] = symmetrize(p0_cov)
    memo: dict[bytes, CovSolve] = {}
    prev_cov: np.ndarray | None = None

    for t in range(T):
        ctx = CovObjectiveContext(
            S_next=sol.S[t + 1],
            P_next=sol.P[t + 1],
            lam=sol.lam,
            Sigma_hat=nominal.cov(t),
            P_bar=post_covs[t],
            sys=sys,
        )
        key = _memo_key((ctx.S_next, ctx.P_next, ctx.Sigma_hat, ctx.P_bar))
        solve = memo.get(key)
        if solve is None:
            init = prev_cov if warm_start else None
            solve = solve_worst_case_cov(ctx, init=init)
            memo[key] = solve
        if not solve.converged:
            raise Diverged(
                f"worst-case covariance at stage {t} did not converge "
                f"after {solve.iterations} iterations"
            )
        solves.append(solve)
        prev_cov = solve.cov

        _, gain, prior = _predicted_posterior(solve.cov, ctx)
        closed = np.eye(n) - gain @ sys.C
        prior_covs[t] = prior
        post_covs[t + 1] = symmetrize(
            closed @ prior @ closed.T + gain @ sys.M @ gain.T
        )
        gains[t] = gain

    return WorstCaseSchedule(
        solves=tuple(solves),
        post_covs=post_covs,
        prior_covs=prior_covs,
        gains=gains,
    )


def mean_affine(
    sys: LinearSystem, sol: RiccatiSolution, nominal: NominalDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case mean as an affine map of the belief mean.

    Under the synthesized policy ``u = K x_bar + L`` the worst-case
    mean is ``H_t x_bar + h_t`` with

        H_t = (lam I - P_{t+1})^{-1} P_{t+1} (A + B K_t)
        h_t = (lam I - P_{t+1})^{-1}
              (r_{t+1} + P_{t+1} B L_t + lam w_hat_t).

    Returns:
        Arrays ``H`` of shape ``(T, n, n)`` and ``h`` of ``(T, n)``.
    """
    T, n = sol.horizon, sys.n_x
    H = np.zeros((T, n, n))
    h = np.zeros((T, n))
    for t in range(T):
        shifted = sol.lam * np.eye(n) - sol.P[t + 1]
        H[t] = np.linalg.solve(shifted, sol.P[t + 1] @ (sys.A + sys.B @ sol.K[t]))
        h[t] = np.linalg.solve(
            shifted,
            sol.r[t + 1] + sol.P[t + 1] @ (sys.B @ sol.L[t]) + sol.lam * nominal.mean(t),
        )
    return H, h
