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

:func:`forward_schedules` solves the paths of several penalties in one
pass.  At each stage their problems are stacked on a leading axis, and
the private helpers (objective, gradient, projection, fixed point) work
on the whole stack; a problem the stack does not settle goes to the
single-problem solver, which runs the same helpers on a stack of one.
The stacked numpy calls give each matrix the bits of the call on it
alone, so a penalty's path out of the stack equals its path alone, and
:func:`forward_schedule` is the pass on a stack of one.
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
    "forward_schedules",
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
    # The problem as a stack of one, derived once for every evaluation.
    _stage: "_Stage" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S_next, P_next, Sigma_hat, P_bar = (
            np.asarray(a, dtype=float)[None]
            for a in (self.S_next, self.P_next, self.Sigma_hat, self.P_bar)
        )
        stage = _Stage(
            self.sys,
            S_next,
            P_next,
            np.array([self.lam], dtype=float),
            Sigma_hat,
            self.sys.A @ P_bar @ self.sys.A.T,
        )
        object.__setattr__(self, "_stage", stage)


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


class _Stage:
    """Covariance problems of one stage, stacked on a leading axis.

    Besides each problem's data it holds what every evaluation reuses:
    the predicted covariance before the disturbance, ``A P_bar A'``,
    the linear coefficient ``P_next - lam I``, its negative as the
    stationarity map starts it, and the eigenvalue floor of the
    iterates.
    """

    __slots__ = (
        "sys", "eye", "S_next", "P_next", "Sigma_hat", "lam", "lam_m",
        "prior_base", "shifted", "gap_base", "floor",
    )
    _STACKED = __slots__[2:]

    def __init__(self, sys, S_next, P_next, lam, Sigma_hat, prior_base):
        self.sys = sys
        self.eye = np.eye(sys.n_x)
        self.S_next, self.P_next, self.Sigma_hat = S_next, P_next, Sigma_hat
        self.lam = lam
        self.lam_m = lam[:, None, None]
        lam_eye = self.lam_m * self.eye
        self.prior_base = prior_base
        self.shifted = P_next - lam_eye
        self.gap_base = lam_eye - P_next
        self.floor = 1e-10 * (1.0 + Sigma_hat.trace(axis1=1, axis2=2))

    def take(self, keep: np.ndarray) -> "_Stage":
        """The problems selected by ``keep``, a boolean mask or an index
        array (which may repeat a problem)."""
        sub = object.__new__(_Stage)
        sub.sys, sub.eye = self.sys, self.eye
        for name in self._STACKED:
            setattr(sub, name, getattr(self, name)[keep])
        return sub


def _gain(Sigma: np.ndarray, prior_base: np.ndarray, sys: LinearSystem):
    """Measurement gains and priors after predicting with ``Sigma``.

    ``prior_base`` is ``A P_bar A'``, the prior before the disturbance.
    """
    G = symmetrize(prior_base + Sigma)
    innov = symmetrize(sys.C @ G @ sys.C.T + sys.M)
    try:
        return np.linalg.solve(innov, sys.C @ G).mT, G
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc


def _objective(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    gain, G = _gain(Sigma, st.prior_base, st.sys)
    post = symmetrize(G - gain @ st.sys.C @ G)
    return (
        (st.S_next @ post).trace(axis1=1, axis2=2)
        + (st.shifted @ Sigma).trace(axis1=1, axis2=2)
        + 2.0 * st.lam * trace_sqrt_product(Sigma, st.Sigma_hat)
    )


def _closed(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    """``I - K C`` with ``K`` the measurement gain after predicting with ``Sigma``."""
    gain, _ = _gain(Sigma, st.prior_base, st.sys)
    return st.eye - gain @ st.sys.C


def _gradient(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    closed = _closed(Sigma, st)
    grad = (
        st.shifted
        + st.lam_m * transport_map(Sigma, st.Sigma_hat)
        + closed.mT @ st.S_next @ closed
    )
    return symmetrize(grad)


def cov_objective(
    Sigma: np.ndarray, ctx: CovObjectiveContext
) -> float | np.ndarray:
    """Evaluate the stage objective at a PSD candidate covariance.

    ``Sigma`` is one ``(n, n)`` candidate, which gives a float, or a
    stack ``(k, n, n)``, which gives one value per candidate, as in
    :mod:`wdrc.psdmath`.  Every candidate of a stack is evaluated
    against its own copy of the context's problem, so each value has
    the bits of the call on that candidate alone.

    Raises:
        NotPSD: If any candidate has an eigenvalue below
            ``-psd_tolerance`` of that candidate.
    """
    Sigma = symmetrize(Sigma)
    stacked = Sigma.ndim > 2
    if not stacked:
        Sigma = Sigma[None]
    low = np.linalg.eigvalsh(Sigma)[:, 0] < -psd_tolerance(Sigma)
    if np.count_nonzero(low):
        raise NotPSD("candidate covariance is not PSD")
    st = ctx._stage
    if Sigma.shape[0] > 1:
        st = st.take(np.zeros(Sigma.shape[0], dtype=int))
    values = _objective(Sigma, st)
    return values if stacked else float(values[0])


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
    return _gradient(Sigma[None], ctx._stage)[0]


def _project(m: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues of each symmetric part at its ``floor``."""
    sym = symmetrize(m)
    vals, vecs = np.linalg.eigh(sym)
    ok = vals[:, 0] >= floor
    if np.count_nonzero(ok) < ok.size:
        low = ~ok
        vals, vecs = np.clip(vals[low], floor[low, None], None), vecs[low]
        sym[low] = symmetrize((vecs * vals[:, None, :]) @ vecs.mT)
    return sym


# The stack loops test their masks with ``np.count_nonzero``, which costs
# a fraction of ``ndarray.any`` on arrays this small.


def _fixed_point(
    st: _Stage, Sigma: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the stationarity map of the covariance objective.

    At an interior maximizer the transport factor ``T`` (``T Sigma T =
    Sigma_hat``) must equal ``(lam I - P - (I - K C)' S (I - K C)) /
    lam``, so each pass re-evaluates the gain at the current iterate
    and inverts the relation: ``Sigma <- T^{-1} Sigma_hat T^{-1}``.
    The map is not an ascent method, but its fixed point is the unique
    interior stationary point, and it contracts rapidly whenever the
    penalty dominates the continuation coefficients.  Each problem of
    the stack stops on its own.

    Returns:
        ``(iterates, passes)``; ``passes`` is 0 where the map is
        undefined (the shifted coefficient matrix loses definiteness,
        hinting at a boundary maximizer or an unbounded problem) and
        the iterate there is meaningless.
    """
    result = np.empty_like(Sigma)
    passes = np.zeros(Sigma.shape[0], dtype=int)
    idx = np.arange(Sigma.shape[0])
    for k in range(1, max_iter + 1):
        closed = _closed(Sigma, st)
        gap = symmetrize(st.gap_base - closed.mT @ st.S_next @ closed)
        undefined = np.linalg.eigvalsh(gap)[:, 0] <= st.lam * 1e-12
        if np.count_nonzero(undefined):
            keep = ~undefined
            if not np.count_nonzero(keep):
                return result, passes
            idx, Sigma, gap, st = idx[keep], Sigma[keep], gap[keep], st.take(keep)
        tm = gap / st.lam_m
        nxt = symmetrize(np.linalg.solve(tm, np.linalg.solve(tm, st.Sigma_hat).mT))
        nxt = _project(nxt, st.floor)
        delta = np.abs(nxt - Sigma).max(axis=(1, 2))
        Sigma = nxt
        done = delta <= 1e-14 * (1.0 + np.abs(Sigma).max(axis=(1, 2)))
        finite = np.isfinite(delta)
        if np.count_nonzero(done) or np.count_nonzero(finite) < finite.size:
            result[idx[done]] = Sigma[done]
            passes[idx[done]] = k
            keep = finite & ~done
            if not np.count_nonzero(keep):
                return result, passes
            idx, Sigma, st = idx[keep], Sigma[keep], st.take(keep)
    result[idx] = Sigma
    passes[idx] = max_iter
    return result, passes


def _adopted(f_new, f_cur):
    """Whether a fixed point's value loses no more than rounding noise.

    A warm start at the neighboring stage's maximizer can tie with the
    fixed point to within eps while having a far worse stationarity
    residual, so ties go to the fixed point.
    """
    return f_new >= f_cur - 64.0 * np.finfo(float).eps * (1.0 + np.abs(f_cur))


def _stationarity(
    Sigma: np.ndarray, st: _Stage, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and unit-step projected-gradient residual of each problem."""
    grad = _gradient(Sigma, st)
    probe = _project(Sigma + step * grad, st.floor)
    d = (probe - Sigma).reshape(Sigma.shape[0], -1)
    return grad, np.sqrt(np.vecdot(d, d)) / step


def _tolerance(st: _Stage, opts: SolverOptions) -> np.ndarray:
    """Residual tolerance: ``tol_scale`` times the coefficient scale."""
    scale = st.lam + (
        np.abs(st.P_next).max(axis=(1, 2)) + np.abs(st.S_next).max(axis=(1, 2))
    )
    return opts.tol_scale * scale


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
    st = ctx._stage
    floor = st.floor
    growth_cap = 1e12 * (1.0 + float(np.trace(ctx.Sigma_hat)))
    tol = _tolerance(st, opts)[0]
    start = st.Sigma_hat if init is None else np.asarray(init, dtype=float)[None]
    Sigma = _project(start, floor)
    f_cur = _objective(Sigma, st)[0]
    step = opts.step0
    trace: list[tuple[float, float]] = []
    iterations = 0
    converged = False

    def adopt_fixed_point() -> bool:
        # False when the map is undefined.
        nonlocal Sigma, f_cur, iterations
        fp, passes = _fixed_point(st, Sigma, opts.fp_max_iter)
        if not passes[0]:
            return False
        f_fp = _objective(fp, st)[0]
        if _adopted(f_fp, f_cur):
            Sigma, f_cur = fp, f_fp
            iterations += int(passes[0])
        return True

    # Where the map is undefined at the start (the gain there leaves the
    # shifted coefficient matrix indefinite, as near the feasibility
    # boundary of the penalty), it can become defined once the ascent
    # has moved toward the maximizer, so it is retried on a doubling
    # schedule of accepted steps.
    retry_at = None if adopt_fixed_point() else 16
    ascent_steps = 0

    for _ in range(opts.max_iter):
        grad, residual = _stationarity(Sigma, st, opts.step0)
        residual = float(residual[0])
        if opts.record_trace:
            trace.append((float(f_cur), residual))
        if residual < tol:
            converged = True
            break

        # Let the step grow without an upper cap: in nearly-flat
        # directions (penalty close to its feasibility boundary) the
        # maximizer sits far from the start and capped steps crawl.
        step = step / opts.backtrack
        accepted = False
        while step >= 1e-20 * opts.step0:
            cand = _project(Sigma + step * grad, floor)
            gap = float(np.tensordot(grad[0], cand[0] - Sigma[0]))
            if gap <= 0.0:
                step *= opts.backtrack
                continue
            f_cand = _objective(cand, st)[0]
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
        if float(np.trace(Sigma[0])) > growth_cap or not np.isfinite(f_cur):
            raise Diverged("worst-case covariance grew without bound")
        ascent_steps += 1
        if ascent_steps == retry_at:
            retry_at *= 2
            adopt_fixed_point()

    return CovSolve(
        cov=Sigma[0],
        z_tilde=float(f_cur),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def _settle(
    st: _Stage, init: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`solve_worst_case_cov` does before its first ascent step.

    Projects the starts, runs the fixed point, adopts it by the
    solver's rule and checks stationarity there, for the whole stack.

    Returns:
        ``(settled, covs, values, passes)``: where ``settled`` holds,
        the solver would return ``covs``, ``values`` and ``passes``
        unchanged as a converged solve with no ascent step.
    """
    opts = SolverOptions()
    Sigma = _project(init, st.floor)
    f_cur = _objective(Sigma, st)
    fp, passes = _fixed_point(st, Sigma, opts.fp_max_iter)
    defined = passes > 0
    if np.count_nonzero(defined) < defined.size:
        fp = np.where(defined[:, None, None], fp, Sigma)
    f_fp = _objective(fp, st)
    adopted = defined & _adopted(f_fp, f_cur)
    _, residual = _stationarity(fp, st, opts.step0)
    settled = adopted & (residual < _tolerance(st, opts))
    return settled, fp, f_fp, passes


def _memo_keys(
    S_next: np.ndarray, P_next: np.ndarray, Sigma_hat: np.ndarray, P_bar: np.ndarray
) -> list[bytes]:
    """One key per stacked problem: its stage data quantized at absolute
    resolution 1e-10, for memoization."""
    S_next, P_next, P_bar = (np.round(a * 1e10) for a in (S_next, P_next, P_bar))
    shared = np.round(Sigma_hat * 1e10).tobytes()
    return [
        S_next[j].tobytes() + P_next[j].tobytes() + shared + P_bar[j].tobytes()
        for j in range(P_bar.shape[0])
    ]


def forward_schedules(
    sys: LinearSystem,
    sols: Sequence[RiccatiSolution],
    nominal: NominalDistribution,
    p0_cov: np.ndarray,
) -> list[WorstCaseSchedule | Diverged]:
    """Worst-case covariance paths of several penalties in one pass.

    Each penalty's path is the one :func:`forward_schedule` gives for
    it alone, bit for bit.  Stage by stage, the problems a penalty's
    memo does not hold are stacked and settled together (fixed point,
    adoption, first stationarity check); a problem the stack does not
    settle goes, from the same start, to :func:`solve_worst_case_cov`.

    Returns:
        For each solution in order, its schedule or the
        :class:`~wdrc.errors.Diverged` that ended it; a penalty drops
        out of the pass at its first unconverged stage.
    """
    if not sols:
        return []
    k, T, n = len(sols), sols[0].horizon, sys.n_x
    lams = np.array([sol.lam for sol in sols], dtype=float)
    S = np.stack([sol.S for sol in sols])
    P = np.stack([sol.P for sol in sols])
    post_covs = np.zeros((k, T + 1, n, n))
    prior_covs = np.zeros((k, T, n, n))
    gains = np.zeros((k, T, n, sys.n_y))
    post_covs[:, 0] = symmetrize(p0_cov)
    solves: list[list[CovSolve]] = [[] for _ in sols]
    memos: list[dict[bytes, CovSolve]] = [{} for _ in sols]
    failed: dict[int, Diverged] = {}
    live = list(range(k))
    # Index of the live penalties: a slice (no gather) while all are live.
    sel: slice | list[int] = slice(None)

    for t in range(T):
        Sigma_hat = nominal.cov(t)
        P_bar = post_covs[sel, t]
        prior_base = sys.A @ P_bar @ sys.A.T
        S_t, P_t = S[sel, t + 1], P[sel, t + 1]
        keys = _memo_keys(S_t, P_t, Sigma_hat, P_bar)
        miss = [j for j, i in enumerate(live) if keys[j] not in memos[i]]
        if miss:
            sub = slice(None) if len(miss) == len(live) else miss
            st = _Stage(
                sys, S_t[sub], P_t[sub], lams[sel][sub],
                Sigma_hat[None].repeat(len(miss), axis=0), prior_base[sub],
            )
            init = st.Sigma_hat if t == 0 else covs[sub]
            settled, maxima, values, passes = _settle(st, init)
            for q, j in enumerate(miss):
                i = live[j]
                if settled[q]:
                    solve = CovSolve(
                        cov=maxima[q],
                        z_tilde=float(values[q]),
                        iterations=int(passes[q]),
                        converged=True,
                    )
                else:
                    ctx = CovObjectiveContext(
                        S_next=S[i, t + 1], P_next=P[i, t + 1], lam=sols[i].lam,
                        Sigma_hat=Sigma_hat, P_bar=post_covs[i, t], sys=sys,
                    )
                    try:
                        solve = solve_worst_case_cov(
                            ctx, init=solves[i][-1].cov if t else None
                        )
                    except Diverged as exc:
                        failed[i] = exc
                        continue
                memos[i][keys[j]] = solve

        for j, i in enumerate(live):
            if i in failed:
                continue
            solve = memos[i][keys[j]]
            if solve.converged:
                solves[i].append(solve)
            else:
                failed[i] = Diverged(
                    f"worst-case covariance at stage {t} did not converge "
                    f"after {solve.iterations} iterations"
                )
        if failed.keys() & live:
            keep = [j for j, i in enumerate(live) if i not in failed]
            live = [live[j] for j in keep]
            sel, prior_base = live, prior_base[keep]
            if not live:
                break

        # This stage's maximizers are the next stage's starting points.
        covs = np.stack([solves[i][t].cov for i in live])
        gain, prior = _gain(covs, prior_base, sys)
        closed = np.eye(n) - gain @ sys.C
        prior_covs[sel, t] = prior
        post_covs[sel, t + 1] = symmetrize(
            closed @ prior @ closed.mT + gain @ sys.M @ gain.mT
        )
        gains[sel, t] = gain

    return [
        failed[i] if i in failed else WorstCaseSchedule(
            solves=tuple(solves[i]),
            post_covs=post_covs[i],
            prior_covs=prior_covs[i],
            gains=gains[i],
        )
        for i in range(k)
    ]


def forward_schedule(
    sys: LinearSystem,
    sol: RiccatiSolution,
    nominal: NominalDistribution,
    p0_cov: np.ndarray,
) -> WorstCaseSchedule:
    """Solve the worst-case covariance path forward in time.

    Starting from the initial posterior covariance, each stage solves
    the covariance problem, predicts through the dynamics with the
    maximizer, and measurement-updates to the next posterior.  Stages
    whose data repeats (after the recursions reach steady state) are
    memoized at an absolute key resolution of 1e-10.  Each stage's
    solve starts at the previous maximizer, which does not change the
    maximum of the concave objective but typically cuts the iteration
    count sharply.  The first stage whose solve does not converge
    raises :class:`~wdrc.errors.Diverged`.

    This is :func:`forward_schedules` on a stack of one.
    """
    (schedule,) = forward_schedules(sys, [sol], nominal, p0_cov)
    if isinstance(schedule, Diverged):
        raise schedule
    return schedule


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
