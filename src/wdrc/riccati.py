"""Backward Riccati synthesis for the penalized minimax LQ problem.

The disturbance ambiguity enters through a penalty parameter ``lam``
that shifts the usual control-weight term: with

    Phi = B R^{-1} B' - (1/lam) I,

the value-function coefficients satisfy, backward from the terminal
stage ``P_T = Q_f``, ``S_T = 0``, ``r_T = 0``, ``z_T = 0``:

    P_t = Q + A' (I + P_{t+1} Phi)^{-1} P_{t+1} A
    S_t = Q + A' P_{t+1} A - P_t
    r_t = A' (I + P_{t+1} Phi)^{-1} (r_{t+1} + P_{t+1} w_hat_t)
    z_t = z_{t+1} + (2 w_hat_t - Phi r_{t+1})' (I + P_{t+1} Phi)^{-1} r_{t+1}
          + w_hat_t' (I + P_{t+1} Phi)^{-1} P_{t+1} w_hat_t
          - lam * tr[Sigma_hat_t]

with the affine control gains

    K_t = -R^{-1} B' (I + P_{t+1} Phi)^{-1} P_{t+1} A
    L_t = -R^{-1} B' (I + P_{t+1} Phi)^{-1} (P_{t+1} w_hat_t + r_{t+1}).

The synthesis is valid only when ``lam I - P_t`` is positive definite
at every stage ``t = 1..T``; violations raise
:class:`~wdrc.errors.PenaltyTooSmall`.

:func:`backward_passes` runs the recursion for several penalties at
once, on stacks with the penalty on the leading axis, and
:func:`backward_pass` is its stack of one, so the recursion is written
once; :func:`check_penalties` and :func:`check_penalty` do the same for
the feasibility margins.  :func:`min_feasible_lambda` finds the
smallest feasible penalty by nested log-space scans, each checked in
one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoFeasibleLambda, PenaltyTooSmall, SingularMatrix
from .model import CostSpec, LinearSystem, NominalDistribution
from .psdmath import solve, symmetrize

__all__ = [
    "RiccatiSolution",
    "PenaltyFeasibility",
    "backward_pass",
    "backward_passes",
    "check_penalty",
    "check_penalties",
    "min_feasible_lambda",
]

# Relative safety factor applied to the feasibility boundary the scans
# find, so downstream solves stay clear of the singular limit.
SAFETY_FACTOR = 1e-3


@dataclass(frozen=True)
class RiccatiSolution:
    """Stagewise value-function coefficients and control gains.

    Attributes:
        P: Quadratic coefficients, ``(T + 1, n, n)``; ``P[T] = Q_f``.
        S: Estimation-error coefficients, ``(T + 1, n, n)``.
        r: Linear coefficients, ``(T + 1, n)``.
        z: Scalar offsets, ``(T + 1,)``.
        K: Feedback gains on the state estimate, ``(T, n_u, n)``.
        L: Affine input offsets, ``(T, n_u)``.
        Phi: Penalty-shifted control weight ``B R^{-1} B' - I / lam``.
        lam: Penalty parameter the pass was run with.
    """

    P: np.ndarray
    S: np.ndarray
    r: np.ndarray
    z: np.ndarray
    K: np.ndarray
    L: np.ndarray
    Phi: np.ndarray
    lam: float

    @property
    def horizon(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class PenaltyFeasibility:
    """Outcome of the penalty feasibility check.

    ``margin`` is the smallest eigenvalue of ``lam I - P_t`` over stages
    ``1..T``; the penalty is feasible when it is strictly positive.
    """

    feasible: bool
    margin: float


def _solve_stage(lhs: np.ndarray, rhs: np.ndarray, t: int) -> np.ndarray:
    try:
        return solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"stage {t}: {exc}") from exc


def backward_pass(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lam: float,
) -> RiccatiSolution:
    """Run the backward recursion and assemble gains.

    This is :func:`backward_passes` on a stack of one.

    Args:
        sys: Plant matrices.
        cost: Quadratic stage and terminal weights with the horizon.
        nominal: Per-stage nominal disturbance moments; must cover the
            horizon.
        lam: Penalty parameter; must satisfy the feasibility condition.

    Returns:
        The stagewise coefficients and gains.

    Raises:
        PenaltyTooSmall: If ``lam I - P_t`` loses positive definiteness
            at any stage ``t >= 1``.
        SingularMatrix: If a stage system is numerically singular.
    """
    (sol,) = backward_passes(sys, cost, nominal, [lam])
    if isinstance(sol, PenaltyTooSmall):
        raise sol
    return sol


def backward_passes(
    sys: LinearSystem,
    cost: CostSpec,
    nominal: NominalDistribution,
    lams: Sequence[float],
) -> list[RiccatiSolution | PenaltyTooSmall]:
    """Backward passes of several penalties in one stacked recursion.

    The penalties' stage systems are stacked on a leading axis, and
    every stacked numpy call gives each penalty the bits of the call on
    it alone (dot products go through ``np.vecdot``, which matches the
    1-D ``a @ b``), so each solution equals its pass alone.

    Returns:
        For each penalty in order, its solution or the
        :class:`~wdrc.errors.PenaltyTooSmall` its pass alone raises; a
        penalty leaves the stack at its first stage with a non-positive
        margin.

    Raises:
        SingularMatrix: If a stage system of any penalty is numerically
            singular.
    """
    A, B = sys.A, sys.B
    n, n_u, T = sys.n_x, sys.n_u, cost.horizon
    if nominal.horizon < T:
        raise ValueError(
            f"nominal covers {nominal.horizon} stages, horizon is {T}"
        )
    lam = np.array(lams, dtype=float)
    for value in lams:
        if value <= 0.0:
            raise ValueError(f"lam must be positive, got {value}")

    k = lam.size
    Phi = symmetrize(
        B @ solve(cost.R, B.T) - np.eye(n) / lam[:, None, None]
    )
    P = np.zeros((k, T + 1, n, n))
    S = np.zeros((k, T + 1, n, n))
    r = np.zeros((k, T + 1, n))
    z = np.zeros((k, T + 1))
    K = np.zeros((k, T, n_u, n))
    L = np.zeros((k, T, n_u))
    failed: dict[int, PenaltyTooSmall] = {}
    live = np.arange(k)
    # Index of the live penalties: a slice (no gather) while all are live.
    sel: slice | np.ndarray = slice(None)

    def check_margins(t: int) -> None:
        nonlocal live, sel
        margin = lam[sel] - np.linalg.eigvalsh(P[sel, t])[:, -1]
        low = margin <= 0.0
        if np.count_nonzero(low):
            for i, m in zip(live[low], margin[low]):
                failed[int(i)] = PenaltyTooSmall(stage=t, margin=float(m))
            live = sel = live[~low]

    P[:, T] = cost.Q_f
    check_margins(T)

    for t in range(T - 1, -1, -1):
        if not live.size:
            break
        P_next, r_next, Phi_t = P[sel, t + 1], r[sel, t + 1], Phi[sel]
        w_hat = nominal.mean(t)
        sigma_hat = nominal.cov(t)

        lhs = np.eye(n) + P_next @ Phi_t
        # One factorization serves P, S, r, z, K, and L at this stage.
        rhs = np.concatenate(
            [
                P_next @ A,
                (r_next + P_next @ w_hat)[:, :, None],
                r_next[:, :, None],
            ],
            axis=2,
        )
        sol = _solve_stage(lhs, rhs, t)
        ric = sol[:, :, :n]           # (I + P Phi)^-1 P A
        vec = sol[:, :, n : n + 1]    # (I + P Phi)^-1 (r + P w_hat)
        d_r = sol[:, :, n + 1]        # (I + P Phi)^-1 r

        P[sel, t] = symmetrize(cost.Q + A.T @ ric)
        S[sel, t] = symmetrize(cost.Q + A.T @ (P_next @ A) - P[sel, t])
        r[sel, t] = (A.T @ vec)[:, :, 0]
        K[sel, t] = -solve(cost.R, B.T @ ric)
        L[sel, t] = -solve(cost.R, B.T @ vec)[:, :, 0]

        drift = 2.0 * w_hat - (Phi_t @ r_next[:, :, None])[:, :, 0]
        z[sel, t] = (
            z[sel, t + 1]
            + np.vecdot(drift, d_r)
            + np.vecdot(w_hat, vec[:, :, 0] - d_r)
            - lam[sel] * float(np.trace(sigma_hat))
        )
        if t >= 1:
            check_margins(t)

    return [
        failed[i] if i in failed else RiccatiSolution(
            P=P[i], S=S[i], r=r[i], z=z[i], K=K[i], L=L[i], Phi=Phi[i], lam=lams[i]
        )
        for i in range(k)
    ]


def check_penalty(
    sys: LinearSystem, cost: CostSpec, lam: float
) -> PenaltyFeasibility:
    """Report the feasibility margin of ``lam`` without raising.

    Runs the quadratic-coefficient recursion only (it does not depend
    on the nominal moments) and returns the worst margin of
    ``lam I - P_t`` over stages ``1..T``.  This is
    :func:`check_penalties` on a stack of one.

    Raises:
        SingularMatrix: If a stage system is numerically singular.
    """
    (result,) = check_penalties(sys, cost, [lam])
    if isinstance(result, SingularMatrix):
        raise result
    return result


def check_penalties(
    sys: LinearSystem, cost: CostSpec, lams: Sequence[float]
) -> list[PenaltyFeasibility | SingularMatrix]:
    """Feasibility margins of several penalties in one stacked recursion.

    Every stacked numpy call gives each penalty the bits of the call on
    it alone, so each margin equals its check alone.

    Returns:
        For each penalty in order, its feasibility or the
        :class:`~wdrc.errors.SingularMatrix` its check alone raises.  A
        singular stage system of one penalty stops the stacked solve, so
        then every penalty is checked alone.
    """
    A = sys.A
    n, T = sys.n_x, cost.horizon
    lam = np.array(lams, dtype=float)
    Phi = symmetrize(
        sys.B @ solve(cost.R, sys.B.T) - np.eye(n) / lam[:, None, None]
    )
    P_next = np.asarray(cost.Q_f, dtype=float)
    margin = lam - float(np.linalg.eigvalsh(P_next)[-1])
    try:
        for t in range(T - 1, 0, -1):
            lhs = np.eye(n) + P_next @ Phi
            P_next = symmetrize(cost.Q + A.T @ _solve_stage(lhs, P_next @ A, t))
            stage = lam - np.linalg.eigvalsh(P_next)[:, -1]
            # min(margin, stage) of each penalty, as its check alone takes it.
            margin = np.where(stage < margin, stage, margin)
    except SingularMatrix as exc:
        if lam.size == 1:
            return [exc]
        return [check_penalties(sys, cost, [value])[0] for value in lams]
    return [PenaltyFeasibility(feasible=bool(m > 0.0), margin=float(m)) for m in margin]


# The boundary search stops once its bracket is narrower than this,
# relative to the larger of 1 and its infeasible end.
_TOL = 1e-6
# Penalties per stacked check of the boundary search: each scan narrows
# the bracket's log width 32-fold, so [1e-3, 1e6] takes 5 scans.
_SCAN = 31


def _feasible(sys: LinearSystem, cost: CostSpec, lams: list[float]) -> list[bool]:
    """Feasibility of each penalty; a singular stage system counts as
    infeasible."""
    return [
        not isinstance(result, SingularMatrix) and result.feasible
        for result in check_penalties(sys, cost, lams)
    ]


def min_feasible_lambda(
    sys: LinearSystem, cost: CostSpec, lo: float, hi: float
) -> float:
    """Locate the smallest feasible penalty in ``[lo, hi]`` by nested
    log-space scans.

    ``hi`` and ``lo`` go in one :func:`check_penalties` call.  Then,
    with ``lo`` infeasible and ``hi`` feasible, each scan checks
    ``_SCAN`` penalties spaced evenly in ``log lam`` strictly inside
    the bracket, in one call, and the bracket becomes the first
    feasible point and the point before it, until it is narrower than
    ``_TOL`` relative.  A penalty for which the recursion hits a
    singular stage system is treated as infeasible.  The returned value
    is the bracket's feasible end inflated by a relative safety factor,
    so it is strictly feasible for downstream synthesis.

    Raises:
        NoFeasibleLambda: If ``hi`` itself is infeasible.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")

    hi_ok, lo_ok = _feasible(sys, cost, [hi, lo])
    if not hi_ok:
        raise NoFeasibleLambda(f"no feasible penalty in [{lo}, {hi}]")
    if lo_ok:
        return lo * (1.0 + SAFETY_FACTOR)
    bad, good = lo, hi
    while good - bad > _TOL * max(1.0, bad):
        scan = np.exp(np.linspace(np.log(bad), np.log(good), _SCAN + 2)[1:-1]).tolist()
        flags = _feasible(sys, cost, scan) + [True]
        first = flags.index(True)
        bad, good = ([bad] + scan)[first], (scan + [good])[first]
    return good * (1.0 + SAFETY_FACTOR)
