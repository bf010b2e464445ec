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
map, finished by damped Newton steps on the ``n (n + 1) / 2`` free
entries of ``Sigma``, which is fast at the small state dimensions the
harness targets and is cross-checked against grid oracles in the test
suite.  The Hessian is analytic: the transport map's derivative solves
a Sylvester equation (Bhatia, Jain and Lim, "On the Bures-Wasserstein
distance between positive definite matrices", 2019) and the filter
term's follows from ``d(I - K C)``.  Near the smallest feasible penalty
the maximizer can lie far out along a direction in which the objective
is nearly flat, next to the boundary of the cone, where the fixed point
is undefined at the start and Newton steps shrink against the
boundary; there the fixed point is retried from the Newton iterate
after a doubling number of steps, and it is defined once Newton has
moved toward the maximizer.

The maximization is bounded only when the penalty is large enough; an
iterate that grows past a cap ends its problem in
:class:`~wdrc.errors.Diverged` instead of a silent return.

Every covariance problem takes one route, :func:`_settle`, on a stack
of problems that share a plant: the private helpers (objective,
gradient, Hessian, projection, fixed point, Newton steps) work on the
whole stack, and each problem stops on its own.  The stacked numpy
calls give each matrix the bits of the call on it alone, so a
problem's outcome out of a stack is its outcome alone.
:func:`solve_worst_case_cov` is the stack of one, and
:func:`forward_schedules` solves the paths of several penalties in one
pass, stacking their problems stage by stage, with
:func:`forward_schedule` its stack of one.

The filter's measurement step comes from :mod:`wdrc.estimator`: the
objective and the stationarity map take their gains from
:func:`~wdrc.estimator.kalman_gain`, and the schedule's posteriors from
:func:`~wdrc.estimator.kalman_update`.  Only the Newton system forms
``C' Inn^{-1} C`` itself, a route that rounds differently.  The
worst-case mean map (:func:`mean_affine`, :func:`mean_affines`) is
computed once at synthesis and carried by the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import Diverged, NotPD, NotPSD, SingularInnovation
from .estimator import kalman_gain, kalman_update
from .model import LinearSystem, NominalDistribution
from .psdmath import (
    psd_tolerance,
    solve,
    symmetrize,
    trace_sqrt_product,
    transport_map,
)
from .riccati import RiccatiSolution

__all__ = [
    "CovObjectiveContext",
    "CovSolve",
    "WorstCaseSchedule",
    "cov_objective",
    "cov_gradient",
    "solve_worst_case_cov",
    "forward_schedule",
    "forward_schedules",
    "mean_affine",
    "mean_affines",
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
class CovSolve:
    """Solver output for one stage.

    Attributes:
        cov: Maximizing covariance.
        z_tilde: Objective value at the maximizer.
        iterations: Fixed-point passes plus Newton steps of every
            adopted round.
        converged: Whether the stationarity residual met tolerance.
    """

    cov: np.ndarray
    z_tilde: float
    iterations: int
    converged: bool


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


class _Stage:
    """Covariance problems of one stage, stacked on a leading axis.

    Besides each problem's data it holds what every evaluation reuses:
    the predicted covariance before the disturbance, ``A P_bar A'``,
    the linear coefficient ``P_next - lam I``, its negative as the
    stationarity map starts it, the eigenvalue floor and growth cap of
    the iterates and the basis of the free entries that Newton steps
    work on.
    """

    __slots__ = (
        "sys", "eye", "basis", "S_next", "P_next", "Sigma_hat", "lam",
        "lam_m", "prior_base", "shifted", "gap_base", "floor", "cap",
    )
    _STACKED = __slots__[3:]

    def __init__(self, sys, S_next, P_next, lam, Sigma_hat, prior_base):
        self.sys = sys
        self.eye = np.eye(sys.n_x)
        self.basis = _basis(sys.n_x)
        self.S_next, self.P_next, self.Sigma_hat = S_next, P_next, Sigma_hat
        self.lam = lam
        self.lam_m = lam[:, None, None]
        lam_eye = self.lam_m * self.eye
        self.prior_base = prior_base
        self.shifted = P_next - lam_eye
        self.gap_base = lam_eye - P_next
        self.floor = 1e-10 * (1.0 + Sigma_hat.trace(axis1=1, axis2=2))
        # An iterate whose trace passes this counts as unbounded.
        self.cap = 1e12 * (1.0 + Sigma_hat.trace(axis1=1, axis2=2))

    def take(self, keep: np.ndarray) -> "_Stage":
        """The problems selected by ``keep``, a boolean mask or an index
        array (which may repeat a problem)."""
        sub = object.__new__(_Stage)
        sub.sys, sub.eye, sub.basis = self.sys, self.eye, self.basis
        for name in self._STACKED:
            setattr(sub, name, getattr(self, name)[keep])
        return sub


def _objective(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    G = symmetrize(st.prior_base + Sigma)
    post = symmetrize(G - kalman_gain(G, st.sys) @ st.sys.C @ G)
    return (
        (st.S_next @ post).trace(axis1=1, axis2=2)
        + (st.shifted @ Sigma).trace(axis1=1, axis2=2)
        + 2.0 * st.lam * trace_sqrt_product(Sigma, st.Sigma_hat)
    )


def _closed(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    """``I - K C`` with ``K`` the measurement gain after predicting with ``Sigma``."""
    gain = kalman_gain(symmetrize(st.prior_base + Sigma), st.sys)
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


@lru_cache(maxsize=8)
def _basis(n: int) -> np.ndarray:
    """``(n * n, m)`` columns: the row-major ``vec`` of each symmetric
    basis matrix ``E_k`` of the ``m = n (n + 1) / 2`` free entries, ``e_i
    e_i'`` for a diagonal entry and ``e_i e_j' + e_j e_i'`` off it.

    Every entry is 0 or 1 and each ``vec`` position belongs to one basis
    matrix, so products with it only gather and add pairs, exactly.
    Built once per ``n`` in a process; every stage shares the array, so
    it is read-only.
    """
    i, j = np.triu_indices(n)
    k = np.arange(i.size)
    basis = np.zeros((n, n, i.size))
    basis[i, j, k] = basis[j, i, k] = 1.0
    basis = basis.reshape(n * n, i.size)
    basis.flags.writeable = False
    return basis


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each pair of a stack: ``vec(a X b') = (a ⊗ b)
    vec(X)`` for the row-major ``vec``."""
    k, n = a.shape[0], a.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, n * n, n * n)


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack; where that raises, pair by pair,
    with NaN for each pair whose matrix is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for q in range(a.shape[0]):
            try:
                x[q] = np.linalg.solve(a[q], b[q])
            except np.linalg.LinAlgError:
                pass
        return x


def _newton_system(
    Sigma: np.ndarray, st: _Stage
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient, and the gradient and negated Hessian on the free entries.

    Along a symmetric direction ``E`` the gradient's derivative has two
    parts.  The transport factor ``T`` (``T Sigma T = Sigma_hat``)
    moves by the ``dT`` that solves the Sylvester equation ``dT (Sigma
    T) + (T Sigma) dT = -T E T``.  The filter term ``W = (I - K C)'
    S_next (I - K C)`` moves through ``d(I - K C) = -(I - K C) E C'
    Inn^{-1} C``, giving ``-(N E W + W E N)`` with ``N = C' Inn^{-1} C``.
    Both are linear in ``vec(E)``, so the ``m`` directions of the free
    entries come from one Sylvester solve with ``m`` right-hand sides.

    Returns:
        ``(grad, g, h)``: the ``(k, n, n)`` gradient, its ``(k, m, 1)``
        coordinates ``<grad, E_k>`` and the ``(k, m, m)`` negated Hessian
        ``-<E_k, d grad[E_l]>``, which concavity makes positive
        semidefinite.
    """
    sys = st.sys
    k, n = Sigma.shape[0], Sigma.shape[-1]
    G = symmetrize(st.prior_base + Sigma)
    innov = symmetrize(sys.C @ G @ sys.C.T + sys.M)
    try:
        inv_c = solve(innov, np.broadcast_to(sys.C, (k, *sys.C.shape)))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    closed = st.eye - (inv_c @ G).mT @ sys.C
    W = closed.mT @ st.S_next @ closed
    N = sys.C.T @ inv_c
    T = transport_map(Sigma, st.Sigma_hat)
    grad = symmetrize(st.shifted + st.lam_m * T + W)
    A = T @ Sigma
    eye = np.broadcast_to(st.eye, A.shape)
    basis = st.basis
    rhs = _kron(T, T) @ basis
    # A singular Sigma_hat can leave a pair of eigenvalues of T Sigma
    # summing to zero; those problems get no curvature.
    dT = _solve_each(_kron(A, eye) + _kron(eye, A), rhs)
    h = basis.T @ (st.lam_m * dT + (_kron(N, W) + _kron(W, N)) @ basis)
    g = basis.T @ grad.reshape(k, n * n, 1)
    return grad, g, symmetrize(h)


def _newton_direction(
    Sigma: np.ndarray, st: _Stage
) -> tuple[np.ndarray, np.ndarray]:
    """Ascent direction of each problem: the Newton step where the
    Hessian is negative definite, the gradient elsewhere.

    A Hessian whose smallest eigenvalue is positive only by rounding
    (far out along a flat direction) can still be singular to the
    solve; that problem takes the gradient too.

    Returns:
        ``(directions, newton)``: the ``(k, n, n)`` directions and
        whether each is the Newton step.
    """
    grad, g, h = _newton_system(Sigma, st)
    k, n = Sigma.shape[0], Sigma.shape[-1]
    with np.errstate(invalid="ignore"):
        curved = np.isfinite(h).all(axis=(1, 2))
        curved[curved] = np.linalg.eigvalsh(h[curved])[:, 0] > 0.0
    if np.count_nonzero(curved) == k:
        try:
            return (st.basis @ np.linalg.solve(h, g)).reshape(k, n, n), curved
        except np.linalg.LinAlgError:
            pass
    step = _solve_each(h[curved], g[curved])
    solved = ~np.isnan(step[:, 0, 0])
    newton = np.zeros(k, dtype=bool)
    newton[np.flatnonzero(curved)[solved]] = True
    grad[newton] = (st.basis @ step[solved]).reshape(-1, n, n)
    return grad, newton


def _lowest(Sigma: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix, ``-inf`` where an entry is not
    finite."""
    low = np.full(Sigma.shape[0], -np.inf)
    ok = np.isfinite(Sigma).all(axis=(1, 2))
    low[ok] = np.linalg.eigvalsh(Sigma[ok])[:, 0]
    return low


# Halvings of a Newton step before the step counts as stalled.
_HALVINGS = 50
# A problem ends after any step that moves no entry by more than
# ``_STEP_STOP (1 + max|Sigma|)``, and after a full Newton step ``d``
# (not halved) once ``d <= _FULL_STEP_STOP (1 + max|Sigma|)`` and
# ``d^2 / lambda_min(Sigma) <= _NEXT_STEP_STOP (1 + max|Sigma|)``.
# Newton converges quadratically, with a constant that grows like
# ``1 / lambda_min(Sigma)`` toward the cone's boundary, so the next step
# would be about ``d^2 / lambda_min`` and only confirm convergence.  A
# gradient or halved step converges linearly at best, so it ends a
# problem only at the fine threshold.
_STEP_STOP = 1e-14
_FULL_STEP_STOP = 1e-8
_NEXT_STEP_STOP = 1e-12


def _newton(
    st: _Stage, Sigma: np.ndarray, max_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton steps on the free entries, for the whole stack.

    Each step is the Newton step (the gradient where the Hessian is
    not negative definite), halved until the iterate stays positive
    definite above the eigenvalue floor; there is no line search on
    the objective.  Each problem stops on its own: after a full Newton
    step (no halving) that moves no entry by more than ``1e-8 (1 +
    max|Sigma|)`` and whose square, over the iterate's smallest
    eigenvalue, is at most ``1e-12 (1 + max|Sigma|)``; after any step
    that moves no entry by more than ``1e-14 (1 + max|Sigma|)``; when
    no halving keeps it positive definite; or when an entry passes the
    growth cap.  The objective is not evaluated; the caller checks
    value and stationarity of the result.

    Returns:
        ``(iterates, steps)``.
    """
    result = np.empty_like(Sigma)
    steps = np.zeros(Sigma.shape[0], dtype=int)
    idx = np.arange(Sigma.shape[0])
    for k in range(1, max_steps + 1):
        step, full = _newton_direction(Sigma, st)
        nxt = Sigma + step
        low = _lowest(nxt)
        stalled = ~(low > st.floor)
        if np.count_nonzero(stalled):
            full &= ~stalled
            todo = np.flatnonzero(stalled)
            for _ in range(_HALVINGS):
                step[todo] *= 0.5
                trial = Sigma[todo] + step[todo]
                ok = _lowest(trial) > st.floor[todo]
                nxt[todo[ok]] = trial[ok]
                todo = todo[~ok]
                if not todo.size:
                    break
            stalled[:] = False
            stalled[todo] = True
            nxt[todo] = Sigma[todo]
        delta = np.abs(nxt - Sigma).max(axis=(1, 2))
        Sigma = nxt
        size = np.abs(Sigma).max(axis=(1, 2))
        scale = 1.0 + size
        settled = full & (delta <= _FULL_STEP_STOP * scale)
        settled &= delta * delta <= _NEXT_STEP_STOP * scale * low
        done = stalled | settled | (delta <= _STEP_STOP * scale) | (size > st.cap)
        if np.count_nonzero(done):
            result[idx[done]] = Sigma[done]
            steps[idx[done]] = k
            keep = ~done
            if not np.count_nonzero(keep):
                return result, steps
            idx, Sigma, st = idx[keep], Sigma[keep], st.take(keep)
    result[idx] = Sigma
    steps[idx] = max_steps
    return result, steps


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


def _stationarity(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    """Unit-step projected-gradient residual of each problem."""
    probe = _project(Sigma + _gradient(Sigma, st), st.floor)
    d = (probe - Sigma).reshape(Sigma.shape[0], -1)
    return np.sqrt(np.vecdot(d, d))


def _tolerance(st: _Stage) -> np.ndarray:
    """Residual tolerance: ``_TOL_SCALE`` times the coefficient scale
    ``lam + max|P_next| + max|S_next|``.  Scaling by the data rather than
    by the objective value keeps an unbounded instance (whose objective
    grows without limit) from widening its own finish line."""
    scale = st.lam + (
        np.abs(st.P_next).max(axis=(1, 2)) + np.abs(st.S_next).max(axis=(1, 2))
    )
    return _TOL_SCALE * scale


# The first round of a solve runs 3 fixed-point passes and 30 Newton
# steps, which settle nearly every stage problem (calibrations on the
# bundled configs take up to 17 steps a round); a later round runs as many passes
# and steps as all rounds before it took steps, within 5000 steps in all.
_WARMUP_PASSES = 3
_WARMUP_STEPS = 30
_MAX_STEPS = 5000
# Residual tolerance per unit of coefficient scale.
_TOL_SCALE = 1e-7


def _settle(st: _Stage, init: np.ndarray) -> list[CovSolve | Diverged]:
    """Maximize the objective of every problem of the stack.

    From its start, projected to the eigenvalue floor, each problem runs
    rounds of transport fixed-point passes (:func:`_fixed_point`; none
    where the map is undefined) and then damped Newton steps
    (:func:`_newton`).  A round's result is adopted unless it loses more
    than rounding noise of objective value (:func:`_adopted`).  After
    each round a problem stops: converged once its iterate is
    stationary (unit-step projected-gradient residual below
    :func:`_tolerance`), diverged once its trace passes the growth cap,
    unconverged once a round leaves it unchanged or 5000 Newton steps
    are spent.

    The first round settles nearly every problem.  The longer later
    rounds retry the map where it was undefined at the start (near the
    smallest feasible penalty, where Newton steps shrink against the
    cone's boundary), which it no longer is once Newton has moved toward
    the maximizer; and where Newton has no curvature to use (a
    rank-deficient ``Sigma_hat``), their passes finish the problem.
    Each problem stops on its own, so its outcome has the bits of its
    stack of one.

    Returns:
        Per problem, its solve or the :class:`~wdrc.errors.Diverged`
        that ended it.
    """
    outcomes: list[CovSolve | Diverged] = [None] * st.lam.size
    idx = np.arange(st.lam.size)
    Sigma = _project(init, st.floor)
    f_cur = _objective(Sigma, st)
    iterations = np.zeros(idx.size, dtype=int)
    passes_max, steps_max, taken = _WARMUP_PASSES, _WARMUP_STEPS, 0
    while True:
        fp, passes = _fixed_point(st, Sigma, passes_max)
        defined = passes > 0
        if np.count_nonzero(defined) < defined.size:
            fp = np.where(defined[:, None, None], fp, Sigma)
        x, steps = _newton(st, fp, steps_max)
        f_x = _objective(x, st)
        adopted = _adopted(f_x, f_cur)
        prev = Sigma
        if np.count_nonzero(adopted) == adopted.size:
            Sigma, f_cur = x, f_x
        else:
            Sigma = np.where(adopted[:, None, None], x, Sigma)
            f_cur = np.where(adopted, f_x, f_cur)
        iterations += np.where(adopted, passes + steps, 0)
        taken += steps_max
        grown = ~np.isfinite(f_cur) | (Sigma.trace(axis1=1, axis2=2) > st.cap)
        stationary = _stationarity(Sigma, st) < _tolerance(st)
        done = grown | stationary
        if np.count_nonzero(done) < done.size:
            # A round that changed nothing would only repeat itself.
            unchanged = ~adopted | (x == prev).all(axis=(1, 2))
            done |= unchanged | (taken >= _MAX_STEPS)
        for i, cov, f, its, ok, big in zip(
            idx[done].tolist(), Sigma[done], f_cur[done].tolist(),
            iterations[done].tolist(), stationary[done].tolist(), grown[done].tolist(),
        ):
            outcomes[i] = (
                Diverged("worst-case covariance grew without bound") if big
                else CovSolve(cov, f, its, ok)
            )
        keep = ~done
        if not np.count_nonzero(keep):
            return outcomes
        idx, Sigma, f_cur = idx[keep], Sigma[keep], f_cur[keep]
        iterations, st = iterations[keep], st.take(keep)
        passes_max = steps_max = min(taken, _MAX_STEPS - taken)


def solve_worst_case_cov(ctx: CovObjectiveContext) -> CovSolve:
    """Maximize one stage's objective: :func:`_settle` on a stack of one,
    from the nominal covariance.

    Raises:
        Diverged: If an iterate grows without bound.
        SingularInnovation: If the predicted innovation covariance is
            singular.
    """
    (solve,) = _settle(ctx._stage, ctx._stage.Sigma_hat)
    if isinstance(solve, Diverged):
        raise solve
    return solve


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
    memo does not hold are stacked and solved together by
    :func:`_settle`.

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
    memos: list[dict[bytes, CovSolve | Diverged]] = [{} for _ in sols]
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
            for j, solve in zip(miss, _settle(st, init)):
                memos[live[j]][keys[j]] = solve

        for j, i in enumerate(live):
            solve = memos[i][keys[j]]
            if isinstance(solve, Diverged):
                failed[i] = solve
            elif solve.converged:
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
        prior = symmetrize(prior_base + covs)
        prior_covs[sel, t] = prior
        gains[sel, t], post_covs[sel, t + 1] = kalman_update(prior, sys)

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

    This is :func:`mean_affines` on a stack of one.

    Returns:
        Arrays ``H`` of shape ``(T, n, n)`` and ``h`` of ``(T, n)``.
    """
    H, h = mean_affines(sys, [sol], nominal)
    return H[0], h[0]


def mean_affines(
    sys: LinearSystem, sols: Sequence[RiccatiSolution], nominal: NominalDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mean_affine` of several solutions for one nominal.

    All stages of all solutions are solved in two stacked ``solve``
    calls, which give each stage the bits of its own solves.

    Returns:
        Arrays ``H`` of shape ``(k, T, n, n)`` and ``h`` of ``(k, T, n)``
        for ``k`` solutions.
    """
    n = sys.n_x
    T = sols[0].horizon
    lam = np.array([sol.lam for sol in sols])
    P_next = np.stack([sol.P[1:] for sol in sols])
    K = np.stack([sol.K for sol in sols])
    L = np.stack([sol.L for sol in sols])
    r_next = np.stack([sol.r[1:] for sol in sols])
    shifted = lam[:, None, None, None] * np.eye(n) - P_next
    H = np.linalg.solve(shifted, P_next @ (sys.A + sys.B @ K))
    w_hat = np.stack([nominal.mean(t) for t in range(T)])
    offset = (P_next @ (sys.B @ L[..., None]))[..., 0]
    rhs = r_next + offset + lam[:, None, None] * w_hat
    h = np.linalg.solve(shifted, rhs[..., None])[..., 0]
    return H, h
