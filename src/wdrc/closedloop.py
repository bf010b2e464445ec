"""Exact moments of the deployed closed loop and its penalized worst case.

Both policies run the same affine loop on the augmented state
``z = (x, x_bar)`` of plant state and filter mean:

    u_t         = K_t x_bar_t + L_t
    x_{t+1}     = A x_t + B u_t + w_t
    prior       = A x_bar_t + B u_t + H_t x_bar_t + h_t
    x_bar_{t+1} = prior + G_t (C x_{t+1} + v_{t+1} - C prior)

where ``H_t x_bar + h_t`` is the disturbance mean the filter predicts
with (the adversary's equilibrium mean for the robust policy, the
nominal mean for the baseline).  Hence ``z_{t+1} = F_t z_t + f_t + E_t
w_t + D_t v_{t+1}`` with ``E_t = [I; G_t C]`` and ``D_t = [0; G_t]``,
and the stage cost is quadratic in ``z``.  For disturbances drawn
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
By weak duality ``kappa T theta^2 + W_kappa`` bounds the expected cost
of every sequence of laws within Gelbrich distance ``theta`` of the
nominal at every stage; :func:`dual_bound` minimizes it over the
multiplier.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .controller import ControllerMode, WdrcController
from .estimator import kalman_gain
from .model import CostSpec, DistributionSpec, LinearSystem, NominalDistribution
from .worstcase import mean_affine

__all__ = [
    "PolicyFeed",
    "ClosedLoop",
    "DualBound",
    "policy_feed",
    "closed_loop",
    "initial_moments",
    "exact_cost",
    "penalized_value",
    "worst_case_law",
    "dual_bound",
]


class PolicyFeed(NamedTuple):
    """Per-stage arrays that drive one policy's filter and input.

    The filter predicts with the disturbance mean ``H_t x_bar + h_t``;
    ``w_affine`` holds ``(H, h)`` for the robust policy and is ``None``
    for the baseline, which predicts with the constant ``w_const``.
    """

    K: np.ndarray
    L: np.ndarray
    filter_gains: np.ndarray
    init_gain: np.ndarray
    w_affine: tuple[np.ndarray, np.ndarray] | None
    w_const: np.ndarray | None


class ClosedLoop(NamedTuple):
    """Stagewise matrices of the augmented loop and its quadratic cost.

    Attributes:
        F, f: Augmented dynamics ``(T, 2n, 2n)`` and offsets ``(T, 2n)``.
        E: Disturbance input ``[I; G_t C]``, ``(T, 2n, n)``.
        D: Measurement-noise input ``[0; G_t]``, ``(T, 2n, n_y)``.
        Qz, qz, cz: Stage cost ``z' Qz z + 2 qz' z + cz``.
        Qf: Terminal weight on ``z``.
        Pi: Cost-to-go matrices of the loop, ``(T + 1, 2n, 2n)``.
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
        return self.F.shape[0]


class DualBound(NamedTuple):
    """Minimized dual bound ``kappa T theta^2 + W_kappa``.

    ``kappa`` is infinite (and ``w_kappa`` the exact nominal cost) when
    ``theta = 0``.
    """

    kappa: float
    w_kappa: float
    bound: float


def policy_feed(
    mode: ControllerMode, sys: LinearSystem, x0_dist: DistributionSpec
) -> PolicyFeed:
    """Gains and filter inputs the deployed loop runs with."""
    init_gain = kalman_gain(x0_dist.cov(), sys)
    if isinstance(mode, WdrcController):
        return PolicyFeed(
            K=mode.solution.K,
            L=mode.solution.L,
            filter_gains=mode.schedule.gains,
            init_gain=init_gain,
            w_affine=mean_affine(sys, mode.solution, mode.nominal),
            w_const=None,
        )
    T = mode.horizon
    return PolicyFeed(
        K=mode.K,
        L=mode.L,
        filter_gains=mode.gains,
        init_gain=init_gain,
        w_affine=None,
        w_const=np.stack([mode.nominal.mean(t) for t in range(T)]),
    )


def closed_loop(feed: PolicyFeed, sys: LinearSystem, cost: CostSpec) -> ClosedLoop:
    """Assemble the augmented loop matrices for all stages at once."""
    A, B, C = sys.A, sys.B, sys.C
    T, n = feed.K.shape[0], sys.n_x
    if feed.w_affine is not None:
        H, h = feed.w_affine
    else:
        H, h = np.zeros((T, n, n)), feed.w_const
    BK = B @ feed.K
    BL = feed.L @ B.T
    G = feed.filter_gains
    GC = G @ C
    F = np.zeros((T, 2 * n, 2 * n))
    F[:, :n, :n] = A
    F[:, :n, n:] = BK
    F[:, n:, :n] = GC @ A
    F[:, n:, n:] = A + BK + H - GC @ (A + H)
    f = np.concatenate([BL, BL + h - np.einsum("tij,tj->ti", GC, h)], axis=1)
    E = np.concatenate([np.broadcast_to(np.eye(n), (T, n, n)), GC], axis=1)
    D = np.concatenate([np.zeros_like(G), G], axis=1)

    KR = np.swapaxes(feed.K, 1, 2) @ cost.R
    Qz = np.zeros((T, 2 * n, 2 * n))
    Qz[:, :n, :n] = cost.Q
    Qz[:, n:, n:] = KR @ feed.K
    qz = np.concatenate([np.zeros((T, n)), np.einsum("tij,tj->ti", KR, feed.L)], axis=1)
    cz = np.einsum("ti,ij,tj->t", feed.L, cost.R, feed.L)
    Qf = np.zeros((2 * n, 2 * n))
    Qf[:n, :n] = cost.Q_f

    Pi = np.zeros((T + 1, 2 * n, 2 * n))
    Pi[T] = Qf
    for t in range(T - 1, -1, -1):
        Pi[t] = Qz[t] + F[t].T @ Pi[t + 1] @ F[t]
    return ClosedLoop(F=F, f=f, E=E, D=D, Qz=Qz, qz=qz, cz=cz, Qf=Qf, Pi=Pi)


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
    """Multiplier-independent data of ``W_kappa`` for one loop and nominal.

    ``Fa``, ``Ea``, ``Qa``, ``Qfa`` and ``za0`` describe the mean part in
    the augmented coordinates ``(E[z_t], 1)``, where the mean dynamics
    under the nominal means are linear, ``Fa_t = [[F_t, f_t + E_t
    w_hat_t], [0, 1]]``.  ``fixed`` is the cost of ``Cov(z_0)`` and of
    the measurement noise, which the adversary does not control; ``nu``
    and ``d`` are the eigenvalues of ``N_t = E_t' Pi_{t+1} E_t`` and the
    diagonal of ``U_t' Sigma_hat_t U_t`` in its eigenbasis ``U_t``.
    """

    Fa: np.ndarray
    Ea: np.ndarray
    Qa: np.ndarray
    Qfa: np.ndarray
    za0: np.ndarray
    fixed: float
    N: np.ndarray
    nu: np.ndarray
    d: np.ndarray


def _dual_terms(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    noise_cov: np.ndarray,
) -> _DualTerms:
    T, n = loop.horizon, loop.E.shape[2]
    m = 2 * n + 1
    w_hat = np.stack([nominal.mean(t) for t in range(T)])
    Fa = np.zeros((T, m, m))
    Fa[:, :-1, :-1] = loop.F
    Fa[:, :-1, -1] = loop.f + np.einsum("tij,tj->ti", loop.E, w_hat)
    Fa[:, -1, -1] = 1.0
    Ea = np.zeros((T, m, n))
    Ea[:, :-1] = loop.E
    Qa = np.zeros((T, m, m))
    Qa[:, :-1, :-1] = loop.Qz
    Qa[:, :-1, -1] = Qa[:, -1, :-1] = loop.qz
    Qa[:, -1, -1] = loop.cz
    Qfa = np.zeros((m, m))
    Qfa[:-1, :-1] = loop.Qf

    mu0, cov0 = z0
    noise = np.swapaxes(loop.D, 1, 2) @ loop.Pi[1:] @ loop.D
    N = np.swapaxes(loop.E, 1, 2) @ loop.Pi[1:] @ loop.E
    nu, U = np.linalg.eigh(N)
    sig_hat = np.stack([nominal.cov(t) for t in range(T)])
    return _DualTerms(
        Fa=Fa,
        Ea=Ea,
        Qa=Qa,
        Qfa=Qfa,
        za0=np.append(mu0, 1.0),
        fixed=float(np.sum(loop.Pi[0] * cov0)) + float(np.sum(noise * noise_cov)),
        N=N,
        nu=nu,
        d=np.einsum("tji,tjk,tki->ti", U, sig_hat, U),
    )


def _mean_part(terms: _DualTerms, kappa: float) -> tuple[float, np.ndarray] | None:
    """Supremum over mean shifts ``delta`` of the mean-driven cost minus
    ``kappa |delta|^2``, with the maximizing shifts ``(T, n)``.

    The value is the quadratic form of ``Pa_0`` at ``(E[z_0], 1)``, from
    the Riccati-type recursion

        Pa_t = Qa_t + Fa_t' (Pa + Pa Ea Gamma_t^{-1} Ea' Pa) Fa_t,
        Gamma_t = kappa I - Ea' Pa Ea,

    with ``Pa = Pa_{t+1}``; the maximizing shift at stage ``t`` is
    ``Gamma_t^{-1} Ea' Pa Fa_t (E[z_t], 1)``.  The supremum is finite
    exactly while every ``Gamma_t`` is positive definite; ``None``
    otherwise.
    """
    T, m, n = terms.Ea.shape
    scaled = kappa * np.eye(n)
    Pa = terms.Qfa
    gains = []
    for t in range(T - 1, -1, -1):
        Ea, Fa = terms.Ea[t], terms.Fa[t]
        PE = Pa @ Ea
        gamma = scaled - Ea.T @ PE
        if np.linalg.eigvalsh(gamma)[0] <= 0.0:
            return None
        Y = np.linalg.solve(gamma, PE.T)
        Pa = terms.Qa[t] + Fa.T @ (Pa + PE @ Y) @ Fa
        gains.append(Y)
    za = terms.za0
    value = float(za @ Pa @ za)
    shifts = np.empty((T, n))
    for t, Y in enumerate(reversed(gains)):
        fz = terms.Fa[t] @ za
        shifts[t] = Y @ fz
        za = fz + terms.Ea[t] @ shifts[t]
    return value, shifts


def _evaluate(terms: _DualTerms, kappa: float) -> tuple[float, float]:
    gap = kappa - terms.nu
    mean = _mean_part(terms, kappa) if (gap > 0.0).all() else None
    if mean is None:
        return math.inf, math.nan
    value, shifts = mean
    nu, d = terms.nu, terms.d
    bures = float(np.sum(d * kappa * nu / gap))
    bures_sq = float(np.sum(d * nu * nu / (gap * gap)))
    return value + terms.fixed + bures, -(float(np.sum(shifts * shifts)) + bures_sq)


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
    return _evaluate(_dual_terms(loop, z0, nominal, noise_cov), kappa)


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
    terms = _dual_terms(loop, z0, nominal, np.zeros((loop.D.shape[2],) * 2))
    _, shifts = _mean_part(terms, kappa)
    inv = np.linalg.inv(kappa * np.eye(terms.N.shape[1]) - terms.N)
    w_hat = np.stack([nominal.mean(t) for t in range(T)])
    sig_hat = np.stack([nominal.cov(t) for t in range(T)])
    return w_hat + shifts, kappa * kappa * inv @ sig_hat @ inv


def _slope_model(terms: _DualTerms) -> tuple[np.ndarray, np.ndarray]:
    """Poles ``p`` and weights ``c`` with ``-dW/dkappa ~ sum c / (kappa - p)^2``.

    The mean part is ``J0 + g' (kappa I - H)^{-1} g`` for the Hessian
    ``H = sum_t R_t' Q_t R_t`` and gradient ``g`` of the mean-driven cost
    in the stacked shifts, where ``R_t`` maps the shifts to ``E[z_t]``.
    A Lanczos run on ``H`` from ``g`` (full reorthogonalization, at most
    30 vectors, products with ``H`` applied through ``R``) gives
    Ritz values and weights, the Gauss-quadrature model of that term,
    which is exact once the Krylov space is exhausted; the Bures terms
    are exact.  Only small dense products are used, so no call reaches
    the sizes at which BLAS starts threads.
    """
    T, m, n = terms.Ea.shape
    R = np.zeros((T + 1, m - 1, T * n))
    za = np.zeros((T + 1, m))
    za[0] = terms.za0
    for t in range(T):
        R[t + 1] = terms.Fa[t, :-1, :-1] @ R[t]
        R[t + 1, :, t * n : (t + 1) * n] += terms.Ea[t, :-1]
        za[t + 1] = terms.Fa[t] @ za[t]
    Qs = np.concatenate([terms.Qa, terms.Qfa[None]])
    Qz = Qs[:, :-1, :-1]
    g = np.einsum("tia,ti->a", R, np.einsum("tij,tj->ti", Qs, za)[:, :-1])

    def hess(v: np.ndarray) -> np.ndarray:
        zv = np.einsum("tia,a->ti", R, v)
        return np.einsum("tia,ti->a", R, np.einsum("tij,tj->ti", Qz, zv))

    norm = math.sqrt(float(g @ g))
    basis = np.zeros((min(30, g.size), g.size))
    alpha, beta = [], []
    q = g / norm if norm > 0.0 else g
    scale = 0.0
    for j in range(basis.shape[0] if norm > 0.0 else 0):
        basis[j] = q
        w = hess(q)
        alpha.append(float(q @ w))
        for _ in range(2):
            w -= np.einsum("ji,j->i", basis[: j + 1], basis[: j + 1] @ w)
        b = math.sqrt(float(w @ w))
        scale = max(scale, abs(alpha[-1]), b)
        if b <= 1e-13 * scale:
            break
        beta.append(b)
        q = w / b
    k = len(alpha)
    tri = np.diag(alpha) + np.diag(beta[: k - 1], 1) + np.diag(beta[: k - 1], -1)
    ritz, vecs = np.linalg.eigh(tri) if k else (np.zeros(0), np.zeros((1, 0)))
    poles = np.concatenate([ritz, terms.nu.ravel()])
    weights = np.concatenate(
        [norm * norm * vecs[0] ** 2, (terms.d * terms.nu * terms.nu).ravel()]
    )
    return poles, weights


def _model_step(
    poles: np.ndarray, weights: np.ndarray, kappa: float, h: float
) -> float:
    """Newton step for ``h`` with the model's ``s2 = sum c / (kappa - p)^2``,
    using ``dh/dkappa = s2^{-3/2} sum c / (kappa - p)^3``."""
    inv = 1.0 / (kappa - poles)
    s2 = float(np.sum(weights * inv * inv))
    return h * s2**1.5 / float(np.sum(weights * inv**3))


def _model_root(poles: np.ndarray, weights: np.ndarray, target: float) -> float:
    """Root of ``(sum c / (kappa - p)^2)^{-1/2} = target`` above the poles,
    by Newton's method inside a bracket (``h >= 0`` at the initial ``hi``
    because every pole lies at or below ``lo``)."""
    lo = float(poles.max())
    hi = lo + max(math.sqrt(float(weights.sum())) * target, 1e-12 * max(lo, 1.0))
    kappa = hi
    for _ in range(100):
        s2 = float(np.sum(weights / (kappa - poles) ** 2))
        if s2 <= 0.0:
            break
        h = 1.0 / math.sqrt(s2) - target
        if h > 0.0:
            hi = kappa
        else:
            lo = kappa
        step = _model_step(poles, weights, kappa, h)
        if abs(step) <= 4.0 * np.finfo(float).eps * kappa:
            break
        kappa = kappa - step if lo < kappa - step < hi else 0.5 * (lo + hi)
    return kappa


def dual_bound(
    loop: ClosedLoop,
    z0: tuple[np.ndarray, np.ndarray],
    nominal: NominalDistribution,
    noise_cov: np.ndarray,
    theta: float,
) -> DualBound:
    """Minimize ``kappa T theta^2 + W_kappa`` over the multiplier.

    The objective is convex in ``kappa``; its minimizer solves ``-dW/dkappa
    = sum_t G_t^2 = T theta^2`` at the maximizing laws, a secular equation
    ``h = (sum c / (kappa - p)^2)^{-1/2} - (T theta^2)^{-1/2} = 0`` with
    ``h`` nearly linear.  A Lanczos model of ``dW/dkappa``
    (:func:`_slope_model`) predicts the root; exact evaluations of
    ``W_kappa`` and its slope then confirm it to ``|h| <= 1e-5 / (theta
    sqrt(T))`` (within about ``1e-11`` relative of the minimum), taking
    model-Newton steps kept inside a bracket otherwise, and
    Illinois-safeguarded secant steps on the exact ``(kappa, h)`` ends
    once exact evaluations bracket the root.  The bound is the
    smallest over the exactly evaluated multipliers, each a valid bound,
    and a pure function of the inputs.  With ``theta = 0`` the infimum is
    the limit ``kappa -> inf``, the exact nominal cost.
    """
    T = loop.horizon
    if theta == 0.0:
        w = exact_cost(
            loop,
            z0,
            np.stack([nominal.mean(t) for t in range(T)]),
            np.stack([nominal.cov(t) for t in range(T)]),
            noise_cov,
        )
        return DualBound(kappa=math.inf, w_kappa=w, bound=w)

    terms = _dual_terms(loop, z0, nominal, noise_cov)
    target = 1.0 / (theta * math.sqrt(T))
    poles, weights = _slope_model(terms)
    model_lo = float(poles.max())
    # Bracket: W is unbounded or h < 0 at lo, h >= 0 at hi; h_lo and h_hi
    # are h there where an exact evaluation gave it finite.
    floor = lo = float(terms.nu.max())
    hi = h_lo = h_hi = math.inf
    kappa = max(_model_root(poles, weights, target), floor * (1.0 + 1e-9))
    best = (math.inf, math.nan, math.nan)
    moved = 0  # the end the previous evaluation moved: -1 lo, 1 hi
    for _ in range(100):
        value, slope = _evaluate(terms, kappa)
        bound = kappa * T * theta * theta + value
        if bound < best[0]:
            best = (bound, kappa, value)
        if not math.isfinite(value):
            lo, h_lo, moved = kappa, math.inf, 0
            kappa = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * kappa - floor
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
            nxt = kappa - _model_step(poles, weights, kappa, h)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * kappa - floor
        kappa = nxt
    bound, kappa, value = best
    return DualBound(kappa=kappa, w_kappa=value, bound=bound)
