"""Exact moments of the deployed closed loop and its penalized worst case.

Both policies run the same affine loop on the augmented state
``z = (x, x_bar)`` of plant state and filter mean:

    u_t         = K_t x_bar_t + L_t
    x_{t+1}     = A x_t + B u_t + w_t
    prior       = A x_bar_t + B u_t + H_t x_bar_t + h_t
    x_bar_{t+1} = prior + G_t (C x_{t+1} + v_{t+1} - C prior)

where ``H_t x_bar + h_t`` is the disturbance mean the filter predicts
with (the adversary's equilibrium mean for the robust policy, the
nominal mean for the baseline, whose ``H`` is ``None``, read as zero).
Hence ``z_{t+1} = F_t z_t + f_t + E_t w_t + D_t v_{t+1}`` with ``E_t =
[I; G_t C]`` and ``D_t = [0; G_t]``, and the stage cost is quadratic in
``z``.  :func:`closed_loop` builds these matrices from a sequence of
controllers of :mod:`wdrc.controller`, which carry ``K``, ``L``, the
filter gains ``G`` and ``H``, ``h``.  For disturbances drawn
independently at every stage, the expected cost depends only on the
per-stage means and covariances, so it is computed exactly here
(:func:`exact_cost`) instead of sampled.

The same structure gives the penalized worst case over per-stage laws

    W_kappa = sup E[cost] - kappa sum_t G^2(law_t, nominal_t),

with ``G`` the Gelbrich distance (:func:`penalized_value`).  The cost
splits into a part driven by the mean trajectory, a quadratic in the
stacked shifts ``m_t - w_hat_t`` with Hessian ``H``, and a part linear
in each stage covariance with weight ``N_t = E_t' Pi_{t+1} E_t`` (``Pi``
the loop's cost-to-go matrices), whose Bures-penalized supremum is
``kappa tr[Sigma_hat_t (kappa (kappa I - N_t)^{-1} - I)]``.  Both parts
are finite exactly for ``kappa`` above the largest eigenvalue of ``H``.
The same cost-to-go gives ``H`` in closed form: its block at row ``tau``
and column ``sigma <= tau`` is ``E_tau' Pi_{tau+1}`` times the response
of ``E[z_{tau+1}]`` to the shift at stage ``sigma``, which a forward
pass carries stage by stage, and an adjoint (costate) backward pass
gives the gradient at the nominal means.  So the Lanczos model of
``dW/dkappa`` that starts each multiplier search runs on the explicit
``H`` (:func:`_mean_hessian`).  By weak duality ``kappa T
theta^2 + W_kappa`` bounds the expected cost of every sequence of laws
within Gelbrich distance ``theta`` of the nominal at every stage;
:func:`dual_bounds` minimizes it over the multiplier.

Several loops of one nominal are bounded together on stacks with a
leading axis (:func:`closed_loop`, :func:`dual_bounds`).  Every stacked
numpy call gives each member the bits of its call alone: matmul, solve,
eigh, eigvalsh and svd work matrix by matrix, dot products go through
``np.vecdot``, sums reduce each member's contiguous block, and every
einsum has the stack as its outermost axis, so its inner loops are
those of the member alone.  So each bound equals its loop's alone, bit
for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .controller import ControllerMode
from .estimator import kalman_gain
from .model import CostSpec, DistributionSpec, LinearSystem, NominalDistribution

__all__ = [
    "ClosedLoop",
    "DualBound",
    "closed_loop",
    "initial_moments",
    "exact_cost",
    "penalized_value",
    "worst_case_law",
    "dual_bounds",
]


class ClosedLoop(NamedTuple):
    """Stagewise matrices of the augmented loop and its quadratic cost.

    Attributes:
        F, f: Augmented dynamics ``(T, 2n, 2n)`` and offsets ``(T, 2n)``.
        E: Disturbance input ``[I; G_t C]``, ``(T, 2n, n)``.
        D: Measurement-noise input ``[0; G_t]``, ``(T, 2n, n_y)``.
        Qz, qz, cz: Stage cost ``z' Qz z + 2 qz' z + cz``.
        Qf: Terminal weight on ``z``.
        Pi: Cost-to-go matrices of the loop, ``(T + 1, 2n, 2n)``.

    :func:`closed_loop` returns a stack of loops, with a leading stack
    axis on every array, ``Qf`` included; :func:`exact_cost`,
    :func:`penalized_value` and :func:`worst_case_law` take one loop.
    """

    F: np.ndarray
    f: np.ndarray
    E: np.ndarray
    D: np.ndarray
    Qz: np.ndarray
    qz: np.ndarray
    cz: np.ndarray
    Qf: np.ndarray
    Pi: np.ndarray

    @property
    def horizon(self) -> int:
        return self.F.shape[-3]


class DualBound(NamedTuple):
    """Minimized dual bound ``kappa T theta^2 + W_kappa``.

    ``kappa`` is infinite (and ``w_kappa`` the exact nominal cost) when
    ``theta = 0``.
    """

    kappa: float
    w_kappa: float
    bound: float


def _index(arrays: NamedTuple, idx) -> NamedTuple:
    """The same tuple with every array indexed by ``idx`` on its first
    axis: one member of a stack, a sub-stack, or (``None``) a stack of
    one."""
    return type(arrays)(*(x[idx] for x in arrays))


def _sums(x: np.ndarray) -> np.ndarray:
    """The sum of each member of a stack of contiguous arrays, with the
    bits of ``np.sum`` on the member alone."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:])).sum(axis=1)


def closed_loop(
    ctrls: Sequence[ControllerMode], sys: LinearSystem, cost: CostSpec
) -> ClosedLoop:
    """Assemble the augmented loop matrices of a sequence of controllers
    for all stages at once: a stack of loops, each bitwise equal to the
    loop of its controller alone.
    """
    A, B, C = sys.A, sys.B, sys.C
    K = np.stack([ctrl.K for ctrl in ctrls])
    L = np.stack([ctrl.L for ctrl in ctrls])
    G = np.stack([ctrl.gains for ctrl in ctrls])
    k, T, n = K.shape[0], K.shape[1], sys.n_x
    H = np.stack([np.zeros((T, n, n)) if c.H is None else c.H for c in ctrls])
    h = np.stack([ctrl.h for ctrl in ctrls])
    BK = B @ K
    BL = L @ B.T
    GC = G @ C
    F = np.zeros((k, T, 2 * n, 2 * n))
    F[..., :n, :n] = A
    F[..., :n, n:] = BK
    F[..., n:, :n] = GC @ A
    F[..., n:, n:] = A + BK + H - GC @ (A + H)
    f = np.concatenate([BL, BL + h - np.einsum("stij,stj->sti", GC, h)], axis=2)
    E = np.concatenate([np.broadcast_to(np.eye(n), (k, T, n, n)), GC], axis=2)
    D = np.concatenate([np.zeros_like(G), G], axis=2)

    KR = np.swapaxes(K, 2, 3) @ cost.R
    Qz = np.zeros((k, T, 2 * n, 2 * n))
    Qz[..., :n, :n] = cost.Q
    Qz[..., n:, n:] = KR @ K
    KRL = np.einsum("stij,stj->sti", KR, L)
    qz = np.concatenate([np.zeros((k, T, n)), KRL], axis=2)
    cz = np.vecdot(L @ cost.R, L)
    Qf = np.zeros((2 * n, 2 * n))
    Qf[:n, :n] = cost.Q_f

    Pi = np.zeros((k, T + 1, 2 * n, 2 * n))
    Pi[:, T] = Qf
    for t in range(T - 1, -1, -1):
        Pi[:, t] = Qz[:, t] + np.swapaxes(F[:, t], 1, 2) @ Pi[:, t + 1] @ F[:, t]
    return ClosedLoop(
        F=F,
        f=f,
        E=E,
        D=D,
        Qz=Qz,
        qz=qz,
        cz=cz,
        Qf=np.broadcast_to(Qf, (k, 2 * n, 2 * n)),
        Pi=Pi,
    )


def initial_moments(
    x0_dist: DistributionSpec, sys: LinearSystem, noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of ``z_0 = (x_0, x_bar_0)``.

    Exact under the initial-state law and measurement noise
    ``noise_cov``: ``x_bar_0 = E[x_0] + K_0 (y_0 - C E[x_0])`` has mean
    ``E[x_0]`` and covariance ``K_0 (C Sigma_0 C' + noise_cov) K_0'``.
    """
    mu0, cov0 = x0_dist.mean(), x0_dist.cov()
    gain = kalman_gain(cov0, sys)
    cov_bar = gain @ (sys.C @ cov0 @ sys.C.T + noise_cov) @ gain.T
    cross = cov0 @ sys.C.T @ gain.T
    cov = np.block([[cov0, cross], [cross.T, cov_bar]])
    return np.concatenate([mu0, mu0]), cov


def exact_cost(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    means: np.ndarray,
    covs: np.ndarray,
    noise_cov: np.ndarray,
) -> float:
    """Expected cost under independent per-stage disturbance moments.

    Propagates the mean and covariance of ``z`` forward; ``means`` and
    ``covs`` hold the disturbance moments of stages ``0..T-1`` and
    ``noise_cov`` the covariance of the measurement noise.
    """
    mu, cov = z0
    total = 0.0
    for t in range(loop.horizon):
        total += float(
            mu @ loop.Qz[t] @ mu + 2.0 * loop.qz[t] @ mu + loop.cz[t]
        ) + float(np.sum(loop.Qz[t] * cov))
        F, E, D = loop.F[t], loop.E[t], loop.D[t]
        mu = F @ mu + loop.f[t] + E @ means[t]
        cov = F @ cov @ F.T + E @ covs[t] @ E.T + D @ noise_cov @ D.T
    return total + float(mu @ loop.Qf @ mu) + float(np.sum(loop.Qf * cov))


class _DualTerms(NamedTuple):
    """Multiplier-independent data of ``W_kappa`` for a stack of loops of
    one nominal; every array carries the leading stack axis.

    ``Fa``, ``Ea``, ``Qa``, ``Qfa`` and ``za0`` describe the mean part in
    the augmented coordinates ``(E[z_t], 1)``, where the mean dynamics
    under the nominal means are linear, ``Fa_t = [[F_t, f_t + E_t
    w_hat_t], [0, 1]]``.  ``fixed`` is the cost of ``Cov(z_0)`` and of
    the measurement noise, which the adversary does not control; ``EPi``
    holds the products ``E_t' Pi_{t+1}``, ``(T, n, 2n)``, and ``nu`` and
    ``d`` are the eigenvalues of ``N_t = E_t' Pi_{t+1} E_t`` and the
    diagonal of ``U_t' Sigma_hat_t U_t`` in its eigenbasis ``U_t``.
    """

    Fa: np.ndarray
    Ea: np.ndarray
    Qa: np.ndarray
    Qfa: np.ndarray
    za0: np.ndarray
    fixed: np.ndarray
    EPi: np.ndarray
    N: np.ndarray
    nu: np.ndarray
    d: np.ndarray


def _dual_terms(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    noise_cov: np.ndarray,
) -> _DualTerms:
    """The dual terms of a stack of loops."""
    k, T, n = loop.E.shape[0], loop.E.shape[1], loop.E.shape[3]
    m = 2 * n + 1
    w_hat = nominal.means[:T]
    Fa = np.zeros((k, T, m, m))
    Fa[..., :-1, :-1] = loop.F
    Fa[..., :-1, -1] = loop.f + np.einsum("stij,tj->sti", loop.E, w_hat)
    Fa[..., -1, -1] = 1.0
    Ea = np.zeros((k, T, m, n))
    Ea[..., :-1, :] = loop.E
    Qa = np.zeros((k, T, m, m))
    Qa[..., :-1, :-1] = loop.Qz
    Qa[..., :-1, -1] = Qa[..., -1, :-1] = loop.qz
    Qa[..., -1, -1] = loop.cz
    Qfa = np.zeros((k, m, m))
    Qfa[:, :-1, :-1] = loop.Qf

    mu0, cov0 = z0
    noise = np.swapaxes(loop.D, 2, 3) @ loop.Pi[:, 1:] @ loop.D
    EPi = np.swapaxes(loop.E, 2, 3) @ loop.Pi[:, 1:]
    N = EPi @ loop.E
    nu, U = np.linalg.eigh(N)
    sig_hat = nominal.covs[:T]
    return _DualTerms(
        Fa=Fa,
        Ea=Ea,
        Qa=Qa,
        Qfa=Qfa,
        za0=np.tile(np.append(mu0, 1.0), (k, 1)),
        fixed=_sums(loop.Pi[:, 0] * cov0) + _sums(noise * noise_cov),
        EPi=EPi,
        N=N,
        nu=nu,
        d=np.einsum("stji,tjk,stki->sti", U, sig_hat, U),
    )


def _mean_part(terms: _DualTerms, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Supremum over mean shifts ``delta`` of the mean-driven cost minus
    ``kappa |delta|^2``, with the maximizing shifts ``(T, n)``, for each
    problem of a stack at its own multiplier.

    The value is the quadratic form of ``Pa_0`` at ``(E[z_0], 1)``, from
    the Riccati-type recursion

        Pa_t = Qa_t + Fa_t' (Pa + Pa Ea Gamma_t^{-1} Ea' Pa) Fa_t,
        Gamma_t = kappa I - Ea' Pa Ea,

    with ``Pa = Pa_{t+1}``; the maximizing shift at stage ``t`` is
    ``Gamma_t^{-1} Ea' Pa Fa_t (E[z_t], 1)``.  The supremum is finite
    exactly while every ``Gamma_t`` is positive definite; a problem
    leaves the stack at the first stage where one is not, and its value
    is ``inf`` and its shifts ``nan``.
    """
    k, T, m, n = terms.Ea.shape
    scaled = kappa[:, None, None] * np.eye(n)
    Pa = terms.Qfa
    gains = np.empty((k, T, n, m))
    live = np.arange(k)
    # Index of the problems still finite: a slice (no gather) while all are.
    sel: slice | np.ndarray = slice(None)
    for t in range(T - 1, -1, -1):
        Ea, Fa = terms.Ea[sel, t], terms.Fa[sel, t]
        PE = Pa @ Ea
        gamma = scaled[sel] - np.swapaxes(Ea, 1, 2) @ PE
        low = np.linalg.eigvalsh(gamma)[:, 0] <= 0.0
        if np.count_nonzero(low):
            keep = ~low
            live = sel = live[keep]
            Ea, Fa, Pa, PE, gamma = Ea[keep], Fa[keep], Pa[keep], PE[keep], gamma[keep]
            if not live.size:
                break
        Y = np.linalg.solve(gamma, np.swapaxes(PE, 1, 2))
        Pa = terms.Qa[sel, t] + np.swapaxes(Fa, 1, 2) @ (Pa + PE @ Y) @ Fa
        gains[sel, t] = Y
    value = np.full(k, math.inf)
    shifts = np.full((k, T, n), math.nan)
    if live.size:
        za = terms.za0[sel]
        value[sel] = np.vecdot((za[:, None] @ Pa)[:, 0], za)
        for t in range(T):
            fz = (terms.Fa[sel, t] @ za[..., None])[..., 0]
            shift = (gains[sel, t] @ fz[..., None])[..., 0]
            shifts[sel, t] = shift
            za = fz + (terms.Ea[sel, t] @ shift[..., None])[..., 0]
    return value, shifts


def _evaluate(terms: _DualTerms, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W_kappa`` and ``dW/dkappa`` of each problem of a stack at its own
    multiplier; ``inf`` and ``nan`` where the supremum is unbounded."""
    gap = kappa[:, None, None] - terms.nu
    value = np.full(kappa.shape, math.inf)
    slope = np.full(kappa.shape, math.nan)
    idx = np.flatnonzero((gap > 0.0).all(axis=(1, 2)))
    mean, shifts = _mean_part(
        terms if idx.size == kappa.size else _index(terms, idx), kappa[idx]
    )
    finite = np.isfinite(mean)
    idx, mean, shifts = idx[finite], mean[finite], shifts[finite]
    kap, gap = kappa[idx, None, None], gap[idx]
    nu, d = terms.nu[idx], terms.d[idx]
    bures = _sums(d * kap * nu / gap)
    bures_sq = _sums(d * nu * nu / (gap * gap))
    value[idx] = mean + terms.fixed[idx] + bures
    slope[idx] = -(_sums(shifts * shifts) + bures_sq)
    return value, slope


def penalized_value(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    noise_cov: np.ndarray,
    kappa: float,
) -> tuple[float, float]:
    """``W_kappa`` and ``dW/dkappa`` at one multiplier.

    ``W_kappa`` is the mean part (:func:`_mean_part`) plus the cost of
    ``Cov(z_0)`` and of the measurement noise plus the per-stage Bures
    suprema ``sum_i d_ti kappa nu_ti / (kappa - nu_ti)``.  The
    derivative is ``-sum_t G_t^2`` at the maximizing laws (Danskin).
    Where the supremum is unbounded the value is ``inf`` and the
    derivative ``nan``.
    """
    terms = _dual_terms(_index(loop, None), z0, nominal, noise_cov)
    value, slope = _evaluate(terms, np.array([kappa]))
    return float(value[0]), float(slope[0])


def worst_case_law(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stage means and covariances attaining a finite ``W_kappa``.

    The covariances are ``kappa^2 (kappa I - N_t)^{-1} Sigma_hat_t
    (kappa I - N_t)^{-1}``.
    """
    T = loop.horizon
    noise_cov = np.zeros((loop.D.shape[2],) * 2)
    terms = _dual_terms(_index(loop, None), z0, nominal, noise_cov)
    _, shifts = _mean_part(terms, np.array([kappa]))
    inv = np.linalg.inv(kappa * np.eye(terms.N.shape[-1]) - terms.N[0])
    return nominal.means[:T] + shifts[0], kappa * kappa * inv @ nominal.covs[:T] @ inv


# Bytes of the Hessians of the problems whose Lanczos runs advance in one
# stack, the only array of a certificate quadratic in the horizon:
# ``(T n)^2`` floats each, 80 kB at ``T = 50`` and ``n = 2``, so every
# problem of a calibration scan, and 1.3 MB at ``T = 200``, so a few.
_HESSIAN_BYTES = 4 << 20


def _mean_hessian(terms: _DualTerms) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian ``H = sum_t R_t' Q_t R_t`` and gradient ``g = sum_t
    R_t' (Q_t E[z_t] + q_t)`` of the mean-driven cost in the stacked
    shifts, ``(k, T n, T n)`` and ``(k, T n)``, for each problem of a
    stack, with ``R_t`` the map from the stacked shifts to ``E[z_t]``.

    A forward pass carries one ``R_t``, ``(k, 2n, T n)``: ``R_{t+1} = F_t
    R_t`` plus ``E_t`` in the columns of shift ``t``.  With ``Pi`` the
    loop's cost-to-go, block row ``tau`` of ``H`` is ``E_tau' Pi_{tau+1}
    R_{tau+1}`` (its diagonal block is ``N_tau``, and it is zero right of
    it, since no later shift moves ``E[z_{tau+1}]``); each row is written
    at its stage, and its blocks left of the diagonal are mirrored into
    the column above it.  The pass also records the mean states
    ``(E[z_t], 1)`` under the nominal means.  The backward pass is the
    adjoint: from the costate ``p = Q_T E[z_T]``, each stage gives
    ``g_t = E_t' p`` and then ``p = Q_t E[z_t] + q_t + F_t' p``.
    Every product works matrix by matrix, so each problem gets the bits
    of its stack of one.
    """
    k, T, m, n = terms.Ea.shape
    F, E = terms.Fa[..., :-1, :-1], terms.Ea[..., :-1, :]
    H = np.empty((k, T * n, T * n))
    R = np.zeros((k, m - 1, T * n))
    za = np.empty((k, T + 1, m))
    za[:, 0] = terms.za0
    for t in range(T):
        rows = slice(t * n, (t + 1) * n)
        R = F[:, t] @ R
        R[..., rows] += E[:, t]
        np.matmul(terms.EPi[:, t], R, out=H[:, rows])
        H[:, : t * n, rows] = np.swapaxes(H[:, rows, : t * n], 1, 2)
        za[:, t + 1] = (terms.Fa[:, t] @ za[:, t, :, None])[..., 0]
    Qs = np.concatenate([terms.Qa, terms.Qfa[:, None]], axis=1)
    c = np.einsum("stij,stj->sti", Qs, za)[..., :-1]
    Ft, Et = np.swapaxes(F, 2, 3), np.swapaxes(E, 2, 3)
    g = np.empty((k, T, n))
    costate = c[:, T]
    for t in range(T - 1, -1, -1):
        g[:, t] = (Et[:, t] @ costate[..., None])[..., 0]
        costate = c[:, t] + (Ft[:, t] @ costate[..., None])[..., 0]
    return H, g.reshape(k, T * n)


def _slope_models(terms: _DualTerms) -> list[tuple[np.ndarray, np.ndarray]]:
    """Poles ``p`` and weights ``c`` with ``-dW/dkappa ~ sum c / (kappa -
    p)^2``, for each problem of a stack.

    The mean part is ``J0 + g' (kappa I - H)^{-1} g`` for the Hessian
    ``H`` and gradient ``g`` of the mean-driven cost in the stacked
    shifts, from one forward pass and its adjoint (:func:`_mean_hessian`).
    A Lanczos run on ``H`` from ``g`` (full reorthogonalization, at most
    30 vectors, products with the explicit ``H``) gives Ritz values and
    weights, the Gauss-quadrature model of that term, which is exact
    once the Krylov space is exhausted; the Bures terms are exact.  Each product with ``H`` is one
    matrix-vector product per problem, whose bits are the same on one
    BLAS thread as on several.  The problems' runs advance together, and
    each stops on its own; the tridiagonal matrices of the runs of equal
    length are diagonalized in one stacked ``svd``.  Every product works
    matrix by matrix and every einsum has the stack as its outermost
    axis, so each model keeps its bits.
    """
    k, T, _, n = terms.Ea.shape
    H, g = _mean_hessian(terms)

    norm = np.sqrt(np.vecdot(g, g))
    size = min(30, T * n)
    basis = np.zeros((k, size, T * n))
    alphas, betas = np.zeros((k, size)), np.zeros((k, size))
    steps = np.zeros(k, dtype=int)
    scale = np.zeros(k)
    live = np.flatnonzero(norm > 0.0)
    q = g.copy()
    q[live] /= norm[live, None]
    for j in range(size):
        if not live.size:
            break
        # Every problem is carried along, so no operand is gathered; a
        # finished run's products are not recorded.
        sel = slice(None) if live.size == k else live
        basis[sel, j] = q[sel]
        w = (H @ q[..., None])[..., 0]
        alpha = np.vecdot(q, w)[sel]
        for _ in range(2):
            span = basis[:, : j + 1]
            w -= np.einsum("sji,sj->si", span, (span @ w[..., None])[..., 0])
        b = np.sqrt(np.vecdot(w, w))[sel]
        alphas[sel, j], betas[sel, j], steps[sel] = alpha, b, j + 1
        # max(scale, |alpha|, b) as Python's max takes it: a nan is skipped.
        scale[sel] = np.fmax(np.fmax(scale[sel], np.abs(alpha)), b)
        going = ~(b <= 1e-13 * scale[sel])
        live = live[going]
        q[live] = w[live] / b[going, None]

    ritz, weights = [np.zeros(0)] * k, [np.zeros(0)] * k
    for size in np.unique(steps[steps > 0]):
        idx = np.flatnonzero(steps == size)
        diag = np.arange(size)
        tri = np.zeros((idx.size, size, size))
        tri[:, diag, diag] = alphas[idx, :size]
        beta = betas[idx, : size - 1]
        tri[:, diag[1:], diag[:-1]] = tri[:, diag[:-1], diag[1:]] = beta
        # H is PSD, so the tridiagonal is, and its singular pairs are its
        # eigenpairs; svd avoids eigh's divide and conquer, whose BLAS
        # calls stall on a cold thread pool from 26 rows on.
        vecs, values, _ = np.linalg.svd(tri)
        values, vecs = values[:, ::-1], vecs[:, 0, ::-1]
        top = (norm[idx] * norm[idx])[:, None] * vecs**2
        for i, value, weight in zip(idx, values, top):
            ritz[i], weights[i] = value, weight
    return [
        (np.concatenate([p, nu.ravel()]), np.concatenate([c, (d * nu * nu).ravel()]))
        for p, c, nu, d in zip(ritz, weights, terms.nu, terms.d)
    ]


def _model_step(
    poles: np.ndarray, weights: np.ndarray, kappa, h
) -> np.ndarray:
    """Newton step for ``h`` with the model's ``s2 = sum c / (kappa - p)^2``,
    using ``dh/dkappa = s2^{-3/2} sum c / (kappa - p)^3``.

    ``kappa`` broadcasts against the poles: a float for one model, or
    ``(k, 1)`` for ``(k, m)`` stacks of poles and weights, with ``h`` of
    shape ``(k,)``.
    """
    inv = 1.0 / (kappa - poles)
    s2 = np.sum(weights * inv * inv, axis=-1)
    # Each s2^1.5 by Python's float power: numpy's array power rounds
    # some values differently.
    s2 = np.array([float(x) ** 1.5 for x in np.ravel(s2)]).reshape(np.shape(s2))
    return h * s2 / np.sum(weights * inv**3, axis=-1)


def _model_root(poles: np.ndarray, weights: np.ndarray, target: float) -> np.ndarray:
    """Root of ``(sum c / (kappa - p)^2)^{-1/2} = target`` above the poles,
    for each row of ``(k, m)`` stacks of poles and weights, by Newton's
    method inside a bracket (``h >= 0`` at the initial ``hi`` because
    every pole lies at or below ``lo``).  The rows iterate together, and
    each stops on its own with the arithmetic of its iteration alone."""
    eps = np.finfo(float).eps
    lo = poles.max(axis=1)
    hi = lo + np.maximum(
        np.sqrt(weights.sum(axis=1)) * target, 1e-12 * np.maximum(lo, 1.0)
    )
    kappa = hi.copy()
    live = np.arange(len(poles))
    for _ in range(100):
        if not live.size:
            break
        p, c, kap = poles[live], weights[live], kappa[live]
        s2 = np.sum(c / (kap[:, None] - p) ** 2, axis=1)
        go = ~(s2 <= 0.0)
        live, p, c, kap, s2 = live[go], p[go], c[go], kap[go], s2[go]
        h = 1.0 / np.sqrt(s2) - target
        up = h > 0.0
        hi[live] = np.where(up, kap, hi[live])
        lo[live] = np.where(up, lo[live], kap)
        step = _model_step(p, c, kap[:, None], h)
        go = ~(np.abs(step) <= 4.0 * eps * kap)
        live, kap, step = live[go], kap[go], step[go]
        trial = kap - step
        inside = (lo[live] < trial) & (trial < hi[live])
        kappa[live] = np.where(inside, trial, 0.5 * (lo[live] + hi[live]))
    return kappa


def _search(
    poles: np.ndarray,
    weights: np.ndarray,
    root: float,
    floor: float,
    T: int,
    theta: float,
):
    """Minimize ``kappa T theta^2 + W_kappa`` over the multiplier.

    The objective is convex in ``kappa``; its minimizer solves ``-dW/dkappa
    = sum_t G_t^2 = T theta^2`` at the maximizing laws, a secular equation
    ``h = (sum c / (kappa - p)^2)^{-1/2} - (T theta^2)^{-1/2} = 0`` with
    ``h`` nearly linear.  A Lanczos model of ``dW/dkappa``
    (:func:`_slope_models`) predicts the root; exact evaluations of
    ``W_kappa`` and its slope then confirm it to ``|h| <= 1e-5 / (theta
    sqrt(T))`` (within about ``1e-11`` relative of the minimum), taking
    model-Newton steps kept inside a bracket otherwise, and
    Illinois-safeguarded secant steps on the exact ``(kappa, h)`` ends
    once exact evaluations bracket the root.  The bound is the
    smallest over the exactly evaluated multipliers, each a valid bound,
    and a pure function of the inputs.

    A generator for one problem of :func:`dual_bounds`: it yields each
    multiplier to evaluate exactly, is sent ``(W_kappa, dW/dkappa)``
    there, and returns the :class:`DualBound`.  ``root`` is the model's
    root (:func:`_model_root`) and ``floor`` the top eigenvalue of the
    ``N_t``, below which ``W`` is unbounded.
    """
    target = 1.0 / (theta * math.sqrt(T))
    model_lo = float(poles.max())
    # Bracket: W is unbounded or h < 0 at lo, h >= 0 at hi; h_lo and h_hi
    # are h there where an exact evaluation gave it finite.
    lo = floor
    hi = h_lo = h_hi = math.inf
    kappa = max(root, floor * (1.0 + 1e-9))
    best = (math.inf, math.nan, math.nan)
    moved = 0  # the end the previous evaluation moved: -1 lo, 1 hi
    for _ in range(100):
        value, slope = yield kappa
        bound = kappa * T * theta * theta + value
        if bound < best[0]:
            best = (bound, kappa, value)
        if not math.isfinite(value):
            lo, h_lo, moved = kappa, math.inf, 0
            # W has a pole above kappa that the model put lower, and the
            # root lies just above it: step out from the model's top pole,
            # doubling the distance each time, not from the floor.
            base = model_lo if model_lo < kappa else floor
            kappa = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * kappa - base
            continue
        h = 1.0 / math.sqrt(-slope) - target if slope < 0.0 else math.inf
        # Illinois: when the same end moves twice in a row, the other
        # end's h is halved, so the secant does not creep toward the
        # root from one side.
        if h < 0.0:
            if moved < 0:
                h_hi *= 0.5
            lo, h_lo, moved = kappa, h, -1
        else:
            if moved > 0:
                h_lo *= 0.5
            hi, h_hi, moved = kappa, h, 1
        if abs(h) <= 1e-5 * target:
            break
        nxt = math.nan
        if math.isfinite(h_lo) and math.isfinite(h_hi):
            # Exact ends on both sides: the model's pole can sit close to
            # the root, where its steps alternate around it and crawl.
            nxt = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
        elif kappa > model_lo and math.isfinite(h):
            nxt = kappa - float(_model_step(poles, weights, kappa, h))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * kappa - floor
        kappa = nxt
    bound, kappa, value = best
    return DualBound(kappa=kappa, w_kappa=value, bound=bound)


def dual_bounds(
    loops: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    noise_cov: np.ndarray,
    theta: float,
) -> list[DualBound]:
    """The dual bound of each loop of a stack (one nominal): the minimum
    over the multiplier of ``kappa T theta^2 + W_kappa`` (:func:`_search`).
    With ``theta = 0`` the infimum is the limit ``kappa -> inf``, the
    exact nominal cost.

    The dual terms and slope models are built on the stack, and each
    problem's multiplier search advances on its own: every round
    evaluates the multipliers of all problems still searching in one
    stacked exact evaluation, and a problem leaves once its search ends.
    Each bound equals the one of its loop alone (a stack of one), bit for
    bit.

    Raises:
        ValueError: If ``theta`` is negative.
    """
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    k, T = loops.F.shape[0], loops.F.shape[1]
    if theta == 0.0:
        means, covs = nominal.means[:T], nominal.covs[:T]
        costs = [
            exact_cost(_index(loops, i), z0, means, covs, noise_cov) for i in range(k)
        ]
        return [DualBound(kappa=math.inf, w_kappa=w, bound=w) for w in costs]

    terms = _dual_terms(loops, z0, nominal, noise_cov)
    n = terms.Ea.shape[-1]
    chunk = max(1, _HESSIAN_BYTES // (8 * (T * n) ** 2))
    models = [
        model
        for start in range(0, k, chunk)
        for model in _slope_models(_index(terms, slice(start, start + chunk)))
    ]
    # Model roots of the models with the same number of poles together.
    target = 1.0 / (theta * math.sqrt(T))
    roots = np.empty(k)
    sizes = np.array([poles.size for poles, _ in models])
    for size in np.unique(sizes):
        idx = np.flatnonzero(sizes == size)
        poles, weights = (np.stack(x) for x in zip(*(models[i] for i in idx)))
        roots[idx] = _model_root(poles, weights, target)
    searches = [
        _search(poles, weights, float(roots[i]), float(terms.nu[i].max()), T, theta)
        for i, (poles, weights) in enumerate(models)
    ]
    kappa = np.array([next(search) for search in searches])
    bounds: list[DualBound | None] = [None] * k
    live = np.arange(k)
    while live.size:
        values, slopes = _evaluate(
            terms if live.size == k else _index(terms, live), kappa[live]
        )
        going = []
        for i, value, slope in zip(live, values, slopes):
            try:
                kappa[i] = searches[i].send((float(value), float(slope)))
            except StopIteration as done:
                bounds[i] = done.value
            else:
                going.append(i)
        live = np.array(going, dtype=int)
    return bounds
