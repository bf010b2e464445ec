"""Worst-case disturbance moments under a Wasserstein-style penalty.

At each stage the adversary picks the disturbance distribution that
maximizes the penalized continuation value.  The worst-case mean has a
closed form; the worst-case covariance solves

    max_{Sigma >= 0}  tr[S_next V(G)] + tr[(P_next - lam I) Sigma]
                      + 2 lam tr[(Sigma^{1/2} Sigma_hat Sigma^{1/2})^{1/2}]

where ``G = A P_bar A' + Sigma`` is the predicted state covariance and
``V(G) = G - G C' (C G C' + M)^{-1} C G`` its measurement update.  The
objective is concave on the PSD cone (the last term is a Bures cross
term, and ``V`` is a minimum of functions linear in ``G``).

This module solves it in the transport parametrization ``Sigma = U
Sigma_hat U`` with ``U`` symmetric.  For PSD ``U`` the cross term is
exactly ``2 lam tr(U Sigma_hat)`` (Gelbrich, "On a formula for the L2
Wasserstein metric between measures on Euclidean and Hilbert spaces",
1990), and for any symmetric ``U`` it is at least that, so

    Phi(U) = tr[S_next V(A P_bar A' + U Sigma_hat U)]
             + tr[(P_next - lam I) U Sigma_hat U] + 2 lam tr(U Sigma_hat)

never exceeds the objective at ``U Sigma_hat U`` and equals it for PSD
``U``.  ``Phi`` is smooth and unconstrained: damped Newton steps on the
``n (n + 1) / 2`` free entries of ``U`` need no matrix square root, no
Sylvester solve and no projection onto the cone.  The gradient is
``grad_f U Sigma_hat + Sigma_hat U grad_f + 2 lam Sigma_hat`` with
``grad_f = P_next - lam I + (I - K C)' S_next (I - K C)``, and the
Hessian follows from ``d(I - K C) = -(I - K C) dSigma C' Inn^{-1} C``.
The solver works in the eigenbasis of ``Sigma_hat``; entries of ``U``
with both indices in its null space do not change ``Phi`` and are held
fixed, so a rank-deficient nominal needs no special case.  A result is
accepted only where ``U`` is positive definite on the nominal's range
and the projected-gradient residual in ``Sigma`` is small; there the
transport factor from ``Sigma`` to ``Sigma_hat`` is the inverse of
``U``'s block on that range.

The maximization is bounded only when the penalty is large enough; an
iterate that grows past a cap ends its problem in
:class:`~wdrc.errors.Diverged` instead of a silent return.

Every covariance problem takes one route, :func:`_settle`, on a stack
of problems that share a plant: the private helpers (objective,
derivatives, Newton steps, residual) work on the whole stack, and each
problem stops on its own.  The stacked numpy calls give each matrix the
bits of the call on it alone, so a problem's outcome out of a stack is
its outcome alone.  :func:`solve_worst_case_cov` is the stack of one,
and :func:`forward_schedules` solves the paths of several penalties in
one pass, stacking their problems stage by stage; it is the forward
pass of :func:`wdrc.controller.synthesize_wdrcs`, the one synthesis
route.

The filter's measurement step comes from :mod:`wdrc.estimator`:
:func:`cov_objective` and :func:`cov_gradient`, the references for the
solver, read only their context and take their gains from
:func:`~wdrc.estimator.kalman_gain`, and the schedule's posteriors come
from :func:`~wdrc.estimator.kalman_update`.  Only the solver forms ``C'
Inn^{-1} C`` itself, a route that rounds differently.  The worst-case
mean map (:func:`mean_affines`) is computed once at synthesis and
carried by the controller.  :func:`forward_schedule` and
:func:`mean_affine` are the stacks of one of the stacked passes; no
synthesis calls them, and perfbench's tracer wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import Diverged, NotPD, NotPSD, SingularInnovation
from .estimator import kalman_gain, kalman_update
from .model import LinearSystem, NominalDistribution
from .psdmath import (
    psd_tolerance,
    rank_eigh,
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


@dataclass(frozen=True)
class CovSolve:
    """Solver output for one stage.

    Attributes:
        cov: Maximizing covariance.
        z_tilde: Objective value at the maximizer.
        iterations: Newton steps, halved ones included.
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
        gains: Measurement gains used at stages ``1..T``.
    """

    solves: tuple[CovSolve, ...]
    post_covs: np.ndarray
    gains: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.solves)

    @property
    def z_tilde_path(self) -> np.ndarray:
        return np.array([s.z_tilde for s in self.solves])


class _Stage:
    """Covariance problems of one stage, stacked on a leading axis, in
    the form the Newton solver reads them.

    The solver works in the eigenbasis ``frame`` of ``Sigma_hat``, where
    ``Sigma_hat`` is the diagonal ``d`` (from
    :func:`~wdrc.psdmath.rank_eigh`, the one rank rule), so ``U
    Sigma_hat U`` is a product with a diagonal.  In that frame the stage
    keeps ``S_next``, ``P_next - lam I``, the predicted covariance
    before the disturbance ``A P_bar A'`` and ``C``; the entries of
    ``U`` the nominal sees (``free``: not both indices in its null
    space); unit curvature for the others (``unseen``); and the
    gradient of ``2 lam tr(U Sigma_hat)`` on the free entries
    (``lin``).  Besides, it holds the eigenvalue floor of the residual's
    projection, the growth cap and the residual tolerance ``tol``:
    ``_TOL_SCALE`` times the coefficient scale ``lam + max|P_next| +
    max|S_next|``.  Scaling by the data rather than by the objective
    value keeps an unbounded instance (whose objective grows without
    limit) from widening its own finish line.
    """

    __slots__ = (
        "sys", "eye", "lam", "tol", "floor", "cap", "frame", "d", "free",
        "unseen", "lin", "S_r", "shifted_r", "prior_r", "C_r",
    )
    _STACKED = __slots__[2:]

    def __init__(self, sys, S_next, P_next, lam, Sigma_hat, prior_base):
        self.sys = sys
        self.eye = np.eye(sys.n_x)
        self.lam = lam
        self.tol = _TOL_SCALE * (
            lam + (np.abs(P_next).max(axis=(1, 2)) + np.abs(S_next).max(axis=(1, 2)))
        )
        self.floor = 1e-10 * (1.0 + Sigma_hat.trace(axis1=1, axis2=2))
        # An iterate whose trace passes this counts as unbounded.
        self.cap = 1e12 * (1.0 + Sigma_hat.trace(axis1=1, axis2=2))
        self.d, self.frame = d, frame = rank_eigh(Sigma_hat)
        row, col = _entries(sys.n_x)[:2]
        self.free = (d[:, row] > 0.0) | (d[:, col] > 0.0)
        self.unseen = (~self.free)[:, :, None] * np.eye(row.size)
        self.lin = np.where(row == col, 2.0 * lam[:, None] * d[:, row], 0.0)
        shifted = P_next - lam[:, None, None] * self.eye
        self.S_r, self.shifted_r, self.prior_r = (
            symmetrize(frame.mT @ a @ frame) for a in (S_next, shifted, prior_base)
        )
        self.C_r = sys.C @ frame

    def take(self, keep: np.ndarray) -> "_Stage":
        """The problems selected by ``keep``, a boolean mask or an index
        array (which may repeat a problem)."""
        sub = object.__new__(_Stage)
        sub.sys, sub.eye = self.sys, self.eye
        for name in self._STACKED:
            setattr(sub, name, getattr(self, name)[keep])
        return sub


def _stack(ctxs: Sequence[CovObjectiveContext]) -> _Stage:
    """The problems of contexts that share a plant, as one stacked stage."""
    sys = ctxs[0].sys
    S_next, P_next, Sigma_hat, P_bar = (
        np.stack([np.asarray(getattr(c, name), dtype=float) for c in ctxs])
        for name in ("S_next", "P_next", "Sigma_hat", "P_bar")
    )
    lam = np.array([c.lam for c in ctxs], dtype=float)
    return _Stage(sys, S_next, P_next, lam, Sigma_hat, sys.A @ P_bar @ sys.A.T)


def cov_objective(
    Sigma: np.ndarray, ctx: CovObjectiveContext
) -> float | np.ndarray:
    """Evaluate the stage objective at a PSD candidate covariance.

    The cross term is :func:`~wdrc.psdmath.trace_sqrt_product` with the
    nominal as the factored argument, so it takes no square root of a
    singular candidate and is exact to rounding at every rank.

    ``Sigma`` is one ``(n, n)`` candidate, which gives a float, or a
    stack ``(k, n, n)``, which gives one value per candidate, as in
    :mod:`wdrc.psdmath`.  The value is computed from the context's
    fields alone, which every candidate of a stack broadcasts against,
    so each value has the bits of the call on that candidate alone.

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
    sys = ctx.sys
    G = symmetrize(sys.A @ ctx.P_bar @ sys.A.T + Sigma)
    post = symmetrize(G - kalman_gain(G, sys) @ sys.C @ G)
    values = (
        (ctx.S_next @ post).trace(axis1=1, axis2=2)
        + ((ctx.P_next - ctx.lam * np.eye(sys.n_x)) @ Sigma).trace(axis1=1, axis2=2)
        + 2.0 * ctx.lam
        * trace_sqrt_product(Sigma, np.broadcast_to(ctx.Sigma_hat, Sigma.shape))
    )
    return values if stacked else float(values[0])


def cov_gradient(Sigma: np.ndarray, ctx: CovObjectiveContext) -> np.ndarray:
    """Gradient of the stage objective at a positive definite candidate,
    computed from the context's fields alone.

    The Bures cross term contributes ``lam`` times the optimal
    transport factor between ``Sigma`` and ``Sigma_hat``, the linear
    term contributes ``P_next - lam I``, and the filtered term
    contributes ``(I - K C)' S_next (I - K C)`` with ``K`` the
    measurement gain of the predicted covariance.
    """
    Sigma = symmetrize(Sigma)[None]
    if float(np.linalg.eigvalsh(Sigma)[0, 0]) <= 0.0:
        raise NotPD("gradient requires a positive definite covariance")
    sys, eye = ctx.sys, np.eye(ctx.sys.n_x)
    G = symmetrize(sys.A @ ctx.P_bar @ sys.A.T + Sigma)
    closed = eye - kalman_gain(G, sys) @ sys.C
    grad = (
        (ctx.P_next - ctx.lam * eye)
        + ctx.lam * transport_map(Sigma, np.broadcast_to(ctx.Sigma_hat, Sigma.shape))
        + closed.mT @ ctx.S_next @ closed
    )
    return symmetrize(grad)[0]


@lru_cache(maxsize=8)
def _entries(n: int) -> tuple[np.ndarray, ...]:
    """The ``m = n (n + 1) / 2`` free entries of a symmetric ``n x n``
    matrix: their rows and columns (the upper triangle, row-major),
    their ``(m, n, n)`` basis matrices ``E_p`` (``e_i e_i'`` on the
    diagonal, ``e_i e_j' + e_j e_i'`` off it), and the weights (1/2 on
    the diagonal, 1 off it) that turn the pair sums ``X_ij + X_ji`` into
    the coordinates ``tr(X E_p)``.

    Built once per ``n`` in a process and shared by every stage, so the
    arrays are read-only.
    """
    row, col = np.triu_indices(n)
    p = np.arange(row.size)
    basis = np.zeros((row.size, n, n))
    basis[p, row, col] = basis[p, col, row] = 1.0
    half = np.where(row == col, 0.5, 1.0)
    for a in (row, col, basis, half):
        a.flags.writeable = False
    return row, col, basis, half


def _coords(X: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``weight`` times the pair sums ``X_ij + X_ji`` over the free
    entries of each matrix: products with the 0/1 basis as gathers and
    pair sums, which are exact."""
    row, col = _entries(X.shape[-1])[:2]
    return (X[..., row, col] + X[..., col, row]) * weight


def _filter(Sigma: np.ndarray, st: _Stage) -> tuple[np.ndarray, ...]:
    """The measurement step after predicting with ``Sigma`` (rotated):
    the prediction ``G``, ``I - K C`` and ``Inn^{-1} C``."""
    G = st.prior_r + Sigma
    try:
        inv_c = solve(st.C_r @ G @ st.C_r.mT + st.sys.M, st.C_r)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(str(exc)) from exc
    return G, st.eye - (inv_c @ G).mT @ st.C_r, inv_c


def _evaluate(U: np.ndarray, st: _Stage) -> tuple[np.ndarray, ...]:
    """``Phi`` at each ``U`` (rotated), with what its derivatives reuse.

    Returns:
        ``(phi, A, Sigma, grad_f, W, N)``: the values, ``A = U D``, the
        covariance ``Sigma = U D U``, the ``Sigma``-gradient ``grad_f =
        P_next - lam I + W`` of the terms other than the cross term,
        with ``W = (I - K C)' S_next (I - K C)``, ``W`` itself and ``N =
        C' Inn^{-1} C``.
    """
    A = U * st.d[:, None, :]
    Sigma = A @ U
    G, closed, inv_c = _filter(Sigma, st)
    W = closed.mT @ st.S_r @ closed
    phi = (st.S_r @ closed @ G + st.shifted_r @ Sigma).trace(axis1=1, axis2=2)
    phi += 2.0 * st.lam * np.vecdot(st.d, np.diagonal(U, axis1=1, axis2=2))
    return phi, A, Sigma, st.shifted_r + W, W, st.C_r.mT @ inv_c


def _system(state: tuple[np.ndarray, ...], st: _Stage) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and negated Hessian of ``Phi`` on the free entries.

    The gradient is ``grad_f A + A' grad_f + 2 lam D``.  With ``dSigma_E
    = E A' + A E`` along a symmetric direction ``E`` and ``dW = -(N
    dSigma W + W dSigma N)``, the Hessian is ``H(E, F) = 2 tr(grad_f F D
    E) - 2 tr(N dSigma_F W dSigma_E)``.  Entries the nominal does not see
    have zero gradient and curvature; they get unit curvature, so their
    steps are zero.

    Returns:
        ``(g, h)``: the ``(k, m)`` gradient coordinates and the ``(k, m,
        m)`` negated Hessian.
    """
    _, A, _, grad_f, W, N = state
    k, n = A.shape[:2]
    basis, half = _entries(n)[2:]
    m = half.size
    g = _coords(grad_f @ A, 2.0 * half) + st.lin
    dSigma = basis @ A.mT[:, None] + A[:, None] @ basis
    P = (N[:, None] @ dSigma).reshape(k, m, n * n)
    R = (W[:, None] @ dSigma).mT.reshape(k, m, n * n)
    curve = _coords((grad_f[:, None] @ basis) * st.d[:, None, None, :], half)
    return g, symmetrize(2.0 * (P @ R.mT - curve)) + st.unseen


def _scatter(s: np.ndarray, n: int) -> np.ndarray:
    """The symmetric ``n x n`` matrices whose free entries are the rows
    of ``s``."""
    row, col = _entries(n)[:2]
    out = np.zeros((s.shape[0], n, n))
    out[:, row, col] = s
    out[:, col, row] = s
    return out


def _positive(h: np.ndarray) -> np.ndarray:
    """Whether each matrix has a Cholesky factor: one stacked call, and
    matrix by matrix only where that call fails."""
    try:
        np.linalg.cholesky(h)
        return np.ones(h.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.ones(h.shape[0], dtype=bool)
        for q in range(h.shape[0]):
            try:
                np.linalg.cholesky(h[q])
            except np.linalg.LinAlgError:
                ok[q] = False
        return ok


def _direction(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascent step of each problem on the free entries, and whether it
    is Newton's: where the negated Hessian ``h`` is positive definite,
    ``h^{-1} g``; elsewhere the same with the magnitudes of its
    eigenvalues, floored at ``_CURVATURE_FLOOR`` of the largest."""
    newton = _positive(h)
    if np.count_nonzero(newton) == newton.size:
        return solve(h, g[..., None])[..., 0], newton
    s = np.empty_like(g)
    if np.count_nonzero(newton):
        s[newton] = solve(h[newton], g[newton, :, None])[..., 0]
    other = ~newton
    vals, vecs = np.linalg.eigh(h[other])
    vals = np.abs(vals)
    vals = np.maximum(vals, _CURVATURE_FLOOR * vals.max(axis=1, keepdims=True))
    s[other] = np.vecdot(vecs, (np.vecdot(vecs.mT, g[other, None, :]) / vals)[:, None, :])
    return s, newton


def _start(st: _Stage, init: np.ndarray) -> np.ndarray:
    """The start of each problem, rotated: ``lam (lam I - P_next -
    W(init))^{-1}``, the ``U`` of an interior maximizer whose filter is
    ``init``'s, or ``I`` where that gap is not positive definite."""
    _, closed, _ = _filter(st.frame.mT @ init @ st.frame, st)
    gap = -symmetrize(st.shifted_r + closed.mT @ st.S_r @ closed)
    vals, vecs = np.linalg.eigh(gap)
    ok = vals[:, 0] > 1e-12 * st.lam
    vals = np.where(ok[:, None], vals, st.lam[:, None])
    U = symmetrize((vecs * (st.lam[:, None] / vals)[:, None, :]) @ vecs.mT)
    return np.where(ok[:, None, None], U, st.eye)


# Halvings of a step before the problem counts as stalled.
_HALVINGS = 50
# A problem ends after a full Newton step (positive definite negated
# Hessian, not halved) that moves no entry of ``U`` by more than
# ``_FULL_STEP_STOP (1 + max|U|)``: Newton converges quadratically, so
# the next step would only confirm it.  It also ends after any step
# that moves no entry by more than ``_STEP_STOP (1 + max|U|)``.
_FULL_STEP_STOP = 1e-8
_STEP_STOP = 1e-14
# Where the negated Hessian is not positive definite, the step uses the
# magnitudes of its eigenvalues, floored at this fraction of the largest.
_CURVATURE_FLOOR = 1e-12
# A step may lose this much of ``Phi``, relative: rounding.
_NOISE = 64.0 * np.finfo(float).eps


def _ascend(
    st: _Stage, U: np.ndarray, max_steps: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Damped Newton ascent of ``Phi`` from ``U``, for the whole stack.

    Each step solves with the negated Hessian, its eigenvalues flipped
    to positive and floored where it is not positive definite, and is
    halved until ``Phi`` loses no more than rounding.  Each problem
    stops on its own: after a small full Newton step or any tiny step
    (see ``_FULL_STEP_STOP``), when no halving keeps ``Phi``, or once
    its covariance's trace passes the growth cap.

    Returns:
        ``(U, steps, state)``: the last iterates, the steps taken and
        :func:`_evaluate` at the last iterates.
    """
    n = U.shape[-1]
    state = _evaluate(U, st)
    final = [np.empty_like(a) for a in state]
    result, steps = np.empty_like(U), np.full(U.shape[0], max_steps)
    idx = np.arange(U.shape[0])
    for step in range(1, max_steps + 1):
        s, newton = _direction(*_system(state, st))
        move = _scatter(s * st.free, n)
        new = _evaluate(U + move, st)
        slack = state[0] - _NOISE * (1.0 + np.abs(state[0]))
        lost = ~(new[0] >= slack)
        if np.count_nonzero(lost):
            newton &= ~lost
            todo = np.flatnonzero(lost)
            for _ in range(_HALVINGS):
                move[todo] *= 0.5
                retry = _evaluate(U[todo] + move[todo], st.take(todo))
                kept = retry[0] >= slack[todo]
                for a, b in zip(new, retry):
                    a[todo[kept]] = b[kept]
                todo = todo[~kept]
                if not todo.size:
                    break
            lost[:] = False
            lost[todo] = True
            move[todo] = 0.0
            for a, b in zip(new, state):
                a[todo] = b[todo]
        U, state = U + move, new
        delta = np.abs(move).max(axis=(1, 2))
        scale = 1.0 + np.abs(U).max(axis=(1, 2))
        done = (delta <= np.where(newton, _FULL_STEP_STOP, _STEP_STOP) * scale) | lost
        done |= ~(state[2].trace(axis1=1, axis2=2) <= st.cap)
        if np.count_nonzero(done):
            result[idx[done]] = U[done]
            steps[idx[done]] = step
            for a, b in zip(final, state):
                a[idx[done]] = b[done]
            keep = ~done
            if not np.count_nonzero(keep):
                return result, steps, tuple(final)
            idx, U, st = idx[keep], U[keep], st.take(keep)
            state = tuple(a[keep] for a in state)
    result[idx] = U
    for a, b in zip(final, state):
        a[idx] = b
    return result, steps, tuple(final)


def _unrotate(Sigma: np.ndarray, st: _Stage) -> np.ndarray:
    return symmetrize(st.frame @ Sigma @ st.frame.mT)


def _project(m: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues of each symmetric part at its ``floor``."""
    sym = symmetrize(m)
    low = np.linalg.eigvalsh(sym)[:, 0] < floor
    if np.count_nonzero(low):
        vals, vecs = np.linalg.eigh(sym[low])
        vals = np.maximum(vals, floor[low, None])
        sym[low] = symmetrize((vecs * vals[:, None, :]) @ vecs.mT)
    return sym


def _stationarity(
    U: np.ndarray, state: tuple[np.ndarray, ...], st: _Stage
) -> np.ndarray:
    """Unit-step projected-gradient residual of each covariance ``U D U``
    in ``Sigma``-space, ``inf`` where ``U`` is not positive definite on
    the nominal's range.

    There the transport factor from ``Sigma`` to ``Sigma_hat`` is the
    inverse of ``U``'s block on that range, and zero off it: no square
    root is taken, and a singular ``Sigma`` needs no special case.
    """
    seen = st.d > 0.0
    both = seen[:, :, None] & seen[:, None, :]
    block = np.where(both, U, st.eye)
    ok = _positive(block)
    res = np.full(ok.size, np.inf)
    if not np.count_nonzero(ok):
        return res
    if np.count_nonzero(ok) < ok.size:
        state, st, both, block = [a[ok] for a in state], st.take(ok), both[ok], block[ok]
    Sigma = state[2]
    lam = st.lam[:, None, None]
    grad = symmetrize(state[3] + lam * np.where(both, np.linalg.inv(block), 0.0))
    d = (_project(Sigma + grad, st.floor) - Sigma).reshape(Sigma.shape[0], -1)
    res[ok] = np.sqrt(np.vecdot(d, d))
    return res


# Newton steps per problem.
_MAX_STEPS = 200
# Residual tolerance per unit of coefficient scale.
_TOL_SCALE = 1e-7


def _settle(st: _Stage, init: np.ndarray) -> list[CovSolve | Diverged]:
    """Maximize the objective of every problem of the stack.

    Each problem runs :func:`_ascend` from :func:`_start` at ``init``
    and ends diverged once its trace passes the growth cap; otherwise it
    converged where ``U`` is positive definite on the nominal's range
    and the ``Sigma``-space residual (:func:`_stationarity`) is below
    the stage's tolerance.  Each problem stops on its own, so its outcome
    has the bits of its stack of one.

    Returns:
        Per problem, its solve or the :class:`~wdrc.errors.Diverged`
        that ended it.
    """
    U, steps, state = _ascend(st, _start(st, init), _MAX_STEPS)
    phi, Sigma = state[0], state[2]
    grown = ~np.isfinite(phi) | ~(Sigma.trace(axis1=1, axis2=2) <= st.cap)
    stationary = _stationarity(U, state, st) < st.tol
    return [
        Diverged("worst-case covariance grew without bound") if big
        else CovSolve(cov, f, its, ok)
        for cov, f, its, ok, big in zip(
            _unrotate(Sigma, st), phi.tolist(), steps.tolist(),
            stationary.tolist(), grown.tolist(),
        )
    ]


def solve_worst_case_cov(ctx: CovObjectiveContext) -> CovSolve:
    """Maximize one stage's objective: :func:`_settle` on a stack of one,
    from the nominal covariance.

    Raises:
        Diverged: If an iterate grows without bound.
        SingularInnovation: If the predicted innovation covariance is
            singular.
    """
    (solve,) = _settle(_stack([ctx]), np.asarray(ctx.Sigma_hat, dtype=float)[None])
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
    gains = np.zeros((k, T, n, sys.n_y))
    post_covs[:, 0] = symmetrize(p0_cov)
    solves: list[list[CovSolve]] = [[] for _ in sols]
    memos: list[dict[bytes, CovSolve | Diverged]] = [{} for _ in sols]
    failed: dict[int, Diverged] = {}
    live = list(range(k))

    for t in range(T):
        Sigma_hat = nominal.cov(t)
        P_bar = post_covs[live, t]
        prior_base = sys.A @ P_bar @ sys.A.T
        S_t, P_t = S[live, t + 1], P[live, t + 1]
        keys = _memo_keys(S_t, P_t, Sigma_hat, P_bar)
        miss = [j for j, i in enumerate(live) if keys[j] not in memos[i]]
        if miss:
            hats = Sigma_hat[None].repeat(len(miss), axis=0)
            st = _Stage(sys, S_t[miss], P_t[miss], lams[live][miss], hats, prior_base[miss])
            for j, solve in zip(miss, _settle(st, hats if t == 0 else covs[miss])):
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
            prior_base = prior_base[keep]
            if not live:
                break

        # This stage's maximizers are the next stage's starting points.
        covs = np.stack([solves[i][t].cov for i in live])
        prior = symmetrize(prior_base + covs)
        gains[live, t], post_covs[live, t + 1] = kalman_update(prior, sys)

    return [
        failed[i] if i in failed else WorstCaseSchedule(
            solves=tuple(solves[i]),
            post_covs=post_covs[i],
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

    This is :func:`forward_schedules` on a stack of one.  Synthesis
    does not call it; perfbench's tracer wraps it by name.
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

    This is :func:`mean_affines` on a stack of one.  Synthesis does not
    call it; perfbench's tracer wraps it by name.

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
    w_hat = nominal.means[:T]
    offset = (P_next @ (sys.B @ L[..., None]))[..., 0]
    rhs = r_next + offset + lam[:, None, None] * w_hat
    h = np.linalg.solve(shifted, rhs[..., None])[..., 0]
    return H, h
