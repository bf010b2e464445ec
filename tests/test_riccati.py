"""Backward recursion: frozen values, identities, and feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_psd
from wdrc.errors import NoFeasibleLambda, PenaltyTooSmall, SingularMatrix
from wdrc.model import CostSpec, LinearSystem, NominalDistribution
from wdrc.oracles import lqr_gains
from wdrc.psdmath import MomentPair, symmetrize
from wdrc.riccati import (
    SAFETY_FACTOR,
    backward_pass,
    backward_passes,
    check_penalties,
    check_penalty,
    min_feasible_lambda,
)

SCALAR_SYS = LinearSystem(
    A=np.array([[1.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]), M=np.array([[1.0]])
)
SCALAR_COST = CostSpec(
    Q=np.array([[1.0]]), Q_f=np.array([[1.0]]), R=np.array([[1.0]]), horizon=2
)
SCALAR_NOMINAL = NominalDistribution(
    (MomentPair(np.array([0.5]), np.array([[0.01]])),) * 2
)


def test_scalar_recursion_frozen_fractions():
    """Hand-derived exact fractions for A=B=C=Q=Q_f=R=1, lam=10, T=2."""
    sol = backward_pass(SCALAR_SYS, SCALAR_COST, SCALAR_NOMINAL, 10.0)
    expected = {
        "P": [741.0 / 451.0, 29.0 / 19.0, 1.0],
        "S": [7569.0 / 8569.0, 9.0 / 19.0, 0.0],
        "r": [195.0 / 451.0, 5.0 / 19.0, 0.0],
        "z": [399.0 / 2255.0, 3.0 / 95.0, 0.0],
        "K": [-290.0 / 451.0, -10.0 / 19.0],
        "L": [-195.0 / 451.0, -5.0 / 19.0],
    }
    for t in range(3):
        assert sol.P[t, 0, 0] == pytest.approx(expected["P"][t], rel=1e-12)
        assert sol.S[t, 0, 0] == pytest.approx(expected["S"][t], rel=1e-12, abs=1e-12)
        assert sol.r[t, 0] == pytest.approx(expected["r"][t], rel=1e-12, abs=1e-12)
        assert sol.z[t] == pytest.approx(expected["z"][t], rel=1e-12, abs=1e-12)
    for t in range(2):
        assert sol.K[t, 0, 0] == pytest.approx(expected["K"][t], rel=1e-12)
        assert sol.L[t, 0] == pytest.approx(expected["L"][t], rel=1e-12)


def test_estimation_coefficient_identity(plant, quad_cost):
    """S_t must equal A'(I + P+ Phi)^{-1} P+ A filtered through Phi.

    The recursion computes ``S_t = Q + A' P+ A - P_t``; independently,
    ``S_t = A' P+ (I + Phi P+)^{-1} Phi P+ A + A' P+ A - A' P+ A``
    reduces to ``A' [P+ - (I + P+ Phi)^{-1} P+] A``.  Both forms are
    evaluated here.
    """
    rng = np.random.default_rng(10)
    nominal = NominalDistribution(
        tuple(
            MomentPair(rng.standard_normal(2) * 0.1, np.diag(rng.random(2) + 0.01))
            for _ in range(quad_cost.horizon)
        )
    )
    lam = 6.0
    sol = backward_pass(plant, quad_cost, nominal, lam)
    phi = plant.B @ np.linalg.solve(quad_cost.R, plant.B.T) - np.eye(2) / lam
    for t in range(quad_cost.horizon):
        p_next = sol.P[t + 1]
        inner = p_next - np.linalg.solve(np.eye(2) + p_next @ phi, p_next)
        expected = plant.A.T @ inner @ plant.A
        assert np.allclose(sol.S[t], expected, atol=1e-9)


def test_zero_nominal_mean_kills_affine_terms(plant, quad_cost):
    nominal = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    sol = backward_pass(plant, quad_cost, nominal, 5.0)
    assert np.allclose(sol.r, 0.0)
    assert np.allclose(sol.L, 0.0)


def test_huge_penalty_matches_lqr(plant, quad_cost):
    nominal = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    sol = backward_pass(plant, quad_cost, nominal, 1e9)
    p_ref, k_ref = lqr_gains(plant, quad_cost)
    assert np.allclose(sol.K, k_ref, rtol=1e-6, atol=1e-9)
    assert np.allclose(sol.P, p_ref, rtol=1e-6, atol=1e-9)


def test_penalty_shrinks_gains_monotonically(plant, quad_cost):
    """Stage-0 gain approaches the LQR gain monotonically in the penalty."""
    nominal = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    _, k_ref = lqr_gains(plant, quad_cost)
    gaps = []
    for lam in (3.0, 10.0, 100.0, 1e4, 1e6):
        sol = backward_pass(plant, quad_cost, nominal, lam)
        gaps.append(float(np.abs(sol.K[0] - k_ref[0]).max()))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_infeasible_penalty_raises(plant, quad_cost):
    nominal = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    with pytest.raises(PenaltyTooSmall) as info:
        backward_pass(plant, quad_cost, nominal, 1.1)
    assert info.value.margin <= 0.0


def test_check_penalty_reports_without_raising(plant, quad_cost):
    bad = check_penalty(plant, quad_cost, 1.1)
    good = check_penalty(plant, quad_cost, 10.0)
    assert not bad.feasible and bad.margin <= 0.0
    assert good.feasible and good.margin > 0.0


def test_min_feasible_lambda_brackets_boundary(plant, quad_cost):
    lam_min = min_feasible_lambda(plant, quad_cost, lo=1e-3, hi=1e6)
    assert check_penalty(plant, quad_cost, lam_min).feasible
    assert not check_penalty(plant, quad_cost, lam_min / 1.01).feasible


def test_min_feasible_lambda_exhausted_bracket():
    sys = LinearSystem(
        A=np.array([[3.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        M=np.array([[1.0]]),
    )
    cost = CostSpec(
        Q=np.array([[1.0]]), Q_f=np.array([[1.0]]), R=np.array([[1.0]]), horizon=40
    )
    with pytest.raises(NoFeasibleLambda):
        min_feasible_lambda(sys, cost, lo=1e-3, hi=1e-2)


def _reference_pass(sys, cost, nominal, lam):
    """The backward recursion one penalty and one stage at a time, with
    the margin check of every stage ``t >= 1`` and of ``T``."""
    A, B = sys.A, sys.B
    n, n_u, T = sys.n_x, sys.n_u, cost.horizon
    Phi = symmetrize(B @ np.linalg.solve(cost.R, B.T) - np.eye(n) / lam)
    P, S = np.zeros((T + 1, n, n)), np.zeros((T + 1, n, n))
    r, z = np.zeros((T + 1, n)), np.zeros(T + 1)
    K, L = np.zeros((T, n_u, n)), np.zeros((T, n_u))
    P[T] = cost.Q_f

    def check(t):
        margin = lam - float(np.linalg.eigvalsh(P[t])[-1])
        if margin <= 0.0:
            raise PenaltyTooSmall(stage=t, margin=margin)

    check(T)
    for t in range(T - 1, -1, -1):
        P_next, r_next, w_hat = P[t + 1], r[t + 1], nominal.mean(t)
        lhs = np.eye(n) + P_next @ Phi
        rhs = np.concatenate(
            [P_next @ A, (r_next + P_next @ w_hat)[:, None], r_next[:, None]],
            axis=1,
        )
        sol = np.linalg.solve(lhs, rhs)
        ric, vec, d_r = sol[:, :n], sol[:, n], sol[:, n + 1]
        P[t] = symmetrize(cost.Q + A.T @ ric)
        S[t] = symmetrize(cost.Q + A.T @ (P_next @ A) - P[t])
        r[t] = A.T @ vec
        K[t] = -np.linalg.solve(cost.R, B.T @ ric)
        L[t] = -np.linalg.solve(cost.R, B.T @ vec)
        z[t] = (
            z[t + 1]
            + float((2.0 * w_hat - Phi @ r_next) @ d_r)
            + float(w_hat @ (vec - d_r))
            - lam * float(np.trace(nominal.cov(t)))
        )
        if t >= 1:
            check(t)
    return dict(P=P, S=S, r=r, z=z, K=K, L=L)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("per_stage", [False, True])
def test_stacked_passes_match_reference_per_penalty(n, per_stage):
    """Each penalty's solution out of the stack equals the reference
    recursion run on it alone, bit for bit, and a penalty that fails
    fails at the same stage with the same margin."""
    rng = np.random.default_rng(70 + n)
    sys = LinearSystem(
        A=0.9 * rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((1, n)),
        M=np.array([[0.2]]),
    )
    cost = CostSpec(Q=np.eye(n), Q_f=np.eye(n), R=np.eye(1), horizon=20)
    stages = [
        MomentPair(0.1 * rng.standard_normal(n), 0.05 * random_psd(rng, n))
        for _ in range(cost.horizon if per_stage else 1)
    ]
    nominal = NominalDistribution(
        tuple(stages) if per_stage else (stages[0],) * cost.horizon
    )
    lam_min = min_feasible_lambda(sys, cost, 1e-3, 1e6)
    # 0.5 fails at stage T; halfway between 1 = eig(Q_f) and lam_min inside.
    lams = [lam_min, 0.9 * lam_min, 0.5 * (1.0 + lam_min), 0.5, 1.5 * lam_min, 1e6]

    failed_inside = False
    for lam, got in zip(lams, backward_passes(sys, cost, nominal, lams)):
        try:
            want = _reference_pass(sys, cost, nominal, lam)
        except PenaltyTooSmall as exc:
            assert isinstance(got, PenaltyTooSmall)
            assert (got.stage, got.margin) == (exc.stage, exc.margin)
            failed_inside |= 1 <= exc.stage < cost.horizon
            continue
        assert not isinstance(got, PenaltyTooSmall)
        assert got.lam == lam
        for field, value in want.items():
            assert np.array_equal(getattr(got, field), value), field
    assert failed_inside
    assert not isinstance(backward_passes(sys, cost, nominal, [lam_min])[0], Exception)


def test_single_pass_raises_what_the_stack_returns(plant, quad_cost):
    nominal = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    (failed,) = backward_passes(plant, quad_cost, nominal, [1.1])
    with pytest.raises(PenaltyTooSmall) as info:
        backward_pass(plant, quad_cost, nominal, 1.1)
    assert (info.value.stage, info.value.margin) == (failed.stage, failed.margin)
    with pytest.raises(ValueError):
        backward_passes(plant, quad_cost, nominal, [5.0, 0.0])


def _reference_check(sys, cost, lam):
    """The margin recursion of one penalty, stage by stage; ``None`` where
    a stage system is singular."""
    n = sys.n_x
    Phi = symmetrize(sys.B @ np.linalg.solve(cost.R, sys.B.T) - np.eye(n) / lam)
    P_next = np.asarray(cost.Q_f, dtype=float)
    margin = lam - float(np.linalg.eigvalsh(P_next)[-1])
    for _ in range(cost.horizon - 1, 0, -1):
        lhs = np.eye(n) + P_next @ Phi
        try:
            step = np.linalg.solve(lhs, P_next @ sys.A)
        except np.linalg.LinAlgError:
            return None
        P_next = symmetrize(cost.Q + sys.A.T @ step)
        margin = min(margin, lam - float(np.linalg.eigvalsh(P_next)[-1]))
    return margin > 0.0, margin


def _bundled_plant(name):
    from pathlib import Path

    from wdrc.harness import load_config

    root = Path(__file__).resolve().parents[1]
    cfg = load_config(str(root / "configs" / f"{name}.yaml"))
    return cfg.sys, cfg.cost


def test_stacked_checks_equal_single_checks(plant, quad_cost):
    """Each penalty's flag and margin out of a stacked check equal its
    check alone and the reference recursion, bit for bit; a penalty whose
    stage system is singular (``lam = 0.5`` on the scalar plant) fails
    alone, and ``check_penalty`` raises it."""
    cases = [
        (SCALAR_SYS, SCALAR_COST, [0.3, 0.5, 0.7, 1.0, 2.0, 10.0]),
        (plant, quad_cost, [0.5, 1.1, 2.0, 4.0, 10.0, 1e6]),
        (*_bundled_plant("gaussian"), list(np.geomspace(0.5, 50.0, 9))),
    ]
    singular = 0
    for sys, cost, lams in cases:
        for lam, got in zip(lams, check_penalties(sys, cost, lams)):
            want = _reference_check(sys, cost, lam)
            if want is None:
                singular += 1
                assert isinstance(got, SingularMatrix)
                with pytest.raises(SingularMatrix):
                    check_penalty(sys, cost, lam)
                continue
            alone = check_penalty(sys, cost, lam)
            assert (got.feasible, got.margin) == want
            assert (alone.feasible, alone.margin) == want
    assert singular == 1


def _scores_feasible(sys, cost, lam):
    """The boundary search's score of one penalty: a singular stage
    system counts as infeasible."""
    try:
        return check_penalty(sys, cost, lam).feasible
    except SingularMatrix:
        return False


@pytest.mark.parametrize("case", ["plant", "gaussian", "uniform", "singular"])
def test_boundary_scans_bracket_the_boundary(case, plant, quad_cost, monkeypatch):
    """``min_feasible_lambda`` returns a feasible penalty within its
    tolerance of an infeasible one in at most 6 stacked checks; on the
    scalar plant the bracket ``[0.25, 4.0]`` puts the singular ``lam =
    0.5`` into the first scan, which scores it infeasible after checking
    it alone."""
    import wdrc.riccati

    if case == "plant":
        sys, cost, lo, hi = plant, quad_cost, 1e-3, 1e6
    elif case == "singular":
        sys, cost, lo, hi = SCALAR_SYS, SCALAR_COST, 0.25, 4.0
    else:
        sys, cost = _bundled_plant(case)
        lo, hi = 1e-3, 1e6
    checked = []
    stacked = wdrc.riccati.check_penalties

    def counting(sys, cost, lams):
        checked.append(list(lams))
        return stacked(sys, cost, lams)

    monkeypatch.setattr(wdrc.riccati, "check_penalties", counting)
    good = min_feasible_lambda(sys, cost, lo, hi) / (1.0 + SAFETY_FACTOR)
    monkeypatch.undo()
    assert _scores_feasible(sys, cost, good)
    assert not _scores_feasible(sys, cost, good - 1e-6 * max(1.0, good))
    outer = [lams for lams in checked if len(lams) > 1]
    assert len(outer) <= 6
    if case == "singular":
        assert 0.5 in outer[1]
        assert [0.5] in checked
        assert all(lam > 0.5 for lams in outer[2:] for lam in lams)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dims=hs.tuples(hs.integers(1, 3), hs.integers(1, 2), hs.integers(1, 2)),
    horizon=hs.integers(2, 20),
    radius=hs.floats(0.3, 1.5),
    seed=hs.integers(0, 2**32 - 1),
)
def test_feasibility_is_monotone_in_the_penalty(dims, horizon, radius, seed):
    """Both penalty searches assume that feasibility switches once, from
    infeasible to feasible, as ``lam`` grows.  On random small plants the
    flags of a 200-point log grid over ``[1e-3, 1e6]`` switch exactly
    once (``1e-3`` lies below the top eigenvalue of ``Q_f``, and every
    drawn plant is feasible at ``1e6``), and ``min_feasible_lambda``
    lands in the switch's grid interval."""
    n, n_u, n_y = dims
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Q = random_psd(rng, n)
    sys = LinearSystem(
        A=radius * A / np.abs(np.linalg.eigvals(A)).max(),
        B=rng.standard_normal((n, n_u)),
        C=rng.standard_normal((n_y, n)),
        M=random_psd(rng, n_y),
    )
    cost = CostSpec(Q=Q, Q_f=Q, R=random_psd(rng, n_u), horizon=horizon)
    grid = np.geomspace(1e-3, 1e6, 200).tolist()
    flags = [
        not isinstance(result, SingularMatrix) and result.feasible
        for result in check_penalties(sys, cost, grid)
    ]
    assert flags == sorted(flags) and not flags[0] and flags[-1]
    k = flags.index(True)
    good = min_feasible_lambda(sys, cost, 1e-3, 1e6) / (1.0 + SAFETY_FACTOR)
    assert grid[k - 1] < good <= grid[k] + 1e-6 * max(1.0, grid[k])
