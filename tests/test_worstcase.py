"""Adversarial moments: gradients, maximizers, and the schedule."""

from pathlib import Path

import numpy as np
import pytest

from conftest import random_psd
from wdrc.controller import synthesize_wdrc
from wdrc.errors import Diverged, NotPSD
from wdrc.estimator import initial_posterior_cov, kalman_gain, update, BeliefState, predict
from wdrc.harness import load_config
from wdrc.model import (
    CostSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    draw_nominal_samples,
    estimate_nominal,
)
from wdrc.oracles import bracket_max, fd_gradient_sym, grid_max, worst_cov_no_obs
from wdrc.psdmath import MomentPair, symmetrize
from wdrc.riccati import backward_pass, min_feasible_lambda
from wdrc.worstcase import (
    CovObjectiveContext,
    SolverOptions,
    cov_gradient,
    cov_objective,
    forward_schedule,
    forward_schedules,
    mean_affine,
    solve_worst_case_cov,
    worst_case_mean,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _context(rng: np.random.Generator, n: int, n_y: int) -> CovObjectiveContext:
    sys = LinearSystem(
        A=rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((n_y, n)),
        M=random_psd(rng, n_y, jitter=0.1),
    )
    p_next = random_psd(rng, n)
    lam = float(np.linalg.eigvalsh(p_next).max() * (2.0 + 3.0 * rng.random()) + 1.0)
    return CovObjectiveContext(
        S_next=random_psd(rng, n),
        P_next=p_next,
        lam=lam,
        Sigma_hat=random_psd(rng, n),
        P_bar=random_psd(rng, n),
        sys=sys,
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3):
        for _ in range(8):
            ctx = _context(rng, n, max(1, n - 1))
            sigma = random_psd(rng, n, jitter=0.05)
            grad = cov_gradient(sigma, ctx)
            fd = fd_gradient_sym(lambda s: cov_objective(s, ctx), sigma)
            scale = max(float(np.abs(grad).max()), 1.0)
            assert float(np.abs(grad - fd).max()) / scale < 1e-5


def test_objective_concave_along_segments():
    rng = np.random.default_rng(21)
    for _ in range(25):
        ctx = _context(rng, 2, 1)
        a = random_psd(rng, 2, jitter=0.01)
        b = random_psd(rng, 2, jitter=0.01)
        fa, fb = cov_objective(a, ctx), cov_objective(b, ctx)
        for lam in (0.25, 0.5, 0.75):
            mid = cov_objective(lam * a + (1 - lam) * b, ctx)
            assert mid >= lam * fa + (1 - lam) * fb - 1e-8 * (1 + abs(mid))


def test_solver_trace_is_monotone():
    rng = np.random.default_rng(22)
    ctx = _context(rng, 2, 1)
    solve = solve_worst_case_cov(ctx, SolverOptions(record_trace=True))
    assert solve.converged
    values = [row[0] for row in solve.trace]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))


def test_solver_beats_every_random_probe():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ctx = _context(rng, 2, 1)
        solve = solve_worst_case_cov(ctx)
        assert solve.converged
        for _ in range(40):
            probe = random_psd(rng, 2, jitter=1e-6)
            assert cov_objective(probe, ctx) <= solve.z_tilde + 1e-7 * (
                1 + abs(solve.z_tilde)
            )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_objective_equals_per_matrix_calls(n):
    """A stack of candidates gets, value by value, the bits of the
    call on each candidate alone, for every measurement count."""
    rng = np.random.default_rng(30 + n)
    for n_y in range(1, n + 1):
        ctx = _context(rng, n, n_y)
        top = rng.standard_normal(n)
        stack = np.stack(
            [random_psd(rng, n) for _ in range(6)]
            + [np.outer(top, top), np.zeros((n, n)), ctx.Sigma_hat]
        )
        values = cov_objective(stack, ctx)
        singles = [cov_objective(m, ctx) for m in stack]
        assert all(type(v) is float for v in singles)
        assert values.shape == (stack.shape[0],)
        assert np.array_equal(values, singles)


def test_stacked_objective_rejects_a_non_psd_member():
    rng = np.random.default_rng(33)
    ctx = _context(rng, 2, 1)
    stack = np.stack([random_psd(rng, 2), np.diag([1.0, -0.5]), random_psd(rng, 2)])
    with pytest.raises(NotPSD):
        cov_objective(stack, ctx)


def test_scalar_solver_matches_grid():
    rng = np.random.default_rng(24)
    for _ in range(6):
        ctx = _context(rng, 1, 1)
        solve = solve_worst_case_cov(ctx)

        def f(v: np.ndarray) -> np.ndarray:
            return cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)

        hi = bracket_max(f, 0.0, float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0)
        v_star, f_star = grid_max(f, 0.0, hi)
        assert solve.cov[0, 0] == pytest.approx(v_star, rel=1e-3, abs=1e-9)
        assert solve.z_tilde == pytest.approx(f_star, rel=1e-4, abs=1e-9)


def test_huge_penalty_returns_nominal_cov():
    rng = np.random.default_rng(25)
    ctx0 = _context(rng, 2, 1)
    ctx = CovObjectiveContext(
        S_next=ctx0.S_next,
        P_next=ctx0.P_next,
        lam=1e8,
        Sigma_hat=ctx0.Sigma_hat,
        P_bar=ctx0.P_bar,
        sys=ctx0.sys,
    )
    solve = solve_worst_case_cov(ctx)
    assert solve.converged
    assert np.allclose(solve.cov, ctx.Sigma_hat, rtol=1e-5, atol=1e-10)


def test_unobserved_closed_form():
    rng = np.random.default_rng(26)
    for n in (1, 2, 3):
        ctx0 = _context(rng, n, 1)
        lam = float(np.linalg.eigvalsh(ctx0.P_next + ctx0.S_next).max() * 2.5 + 1.0)
        ctx = CovObjectiveContext(
            S_next=ctx0.S_next,
            P_next=ctx0.P_next,
            lam=lam,
            Sigma_hat=ctx0.Sigma_hat,
            P_bar=ctx0.P_bar,
            sys=LinearSystem(
                A=ctx0.sys.A, B=ctx0.sys.B, C=np.zeros((1, n)), M=np.eye(1)
            ),
        )
        ref = worst_cov_no_obs(ctx.S_next, ctx.P_next, lam, ctx.Sigma_hat)
        solve = solve_worst_case_cov(ctx)
        assert solve.converged
        assert np.allclose(solve.cov, ref, rtol=1e-6, atol=1e-10)


def test_unbounded_problem_raises_diverged():
    """A penalty below the unobservable-direction threshold must not
    silently return: the iterates grow until the growth cap trips."""
    n = 2
    s_next = np.diag([5.0, 5.0])
    p_next = np.diag([0.5, 0.5])
    ctx = CovObjectiveContext(
        S_next=s_next,
        P_next=p_next,
        lam=2.0,
        Sigma_hat=0.1 * np.eye(n),
        P_bar=0.1 * np.eye(n),
        sys=LinearSystem(
            A=np.eye(n), B=np.ones((n, 1)), C=np.zeros((1, n)), M=np.eye(1)
        ),
    )
    with pytest.raises(Diverged):
        solve_worst_case_cov(ctx)


def test_solver_reaches_interior_maximizer_at_feasibility_boundary():
    """Stage 0 of ``gaussian.yaml`` at the smallest feasible penalty: the
    transport fixed point is undefined at the nominal start and ascent
    alone crawls along a nearly flat direction for its whole budget, yet
    the problem is bounded with an interior maximizer far out."""
    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    nominal = estimate_nominal(draw_nominal_samples(cfg.scenario, cfg.cost.horizon))
    lam = min_feasible_lambda(cfg.sys, cfg.cost, 1e-3, 1e6)
    sol = backward_pass(cfg.sys, cfg.cost, nominal, lam)
    p0 = initial_posterior_cov(cfg.scenario.initial_state, cfg.sys)
    ctx = CovObjectiveContext(
        S_next=sol.S[1],
        P_next=sol.P[1],
        lam=lam,
        Sigma_hat=nominal.cov(0),
        P_bar=p0,
        sys=cfg.sys,
    )
    opts = SolverOptions()
    solve = solve_worst_case_cov(ctx, opts)
    assert solve.converged
    assert solve.iterations <= opts.max_iter // 50

    tol = 1e-9 * (1.0 + abs(solve.z_tilde))
    top = np.linalg.eigh(ctx.P_next)[1][:, -1]
    for s in np.logspace(0.0, 3.0, 31):
        assert cov_objective(s * np.outer(top, top), ctx) <= solve.z_tilde + tol
    rng = np.random.default_rng(31)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        probe = scale * random_psd(rng, 2, jitter=1e-6)
        assert cov_objective(probe, ctx) <= solve.z_tilde + tol
        nearby = solve.cov + 1e-2 * scale * random_psd(rng, 2, jitter=0.0)
        assert cov_objective(nearby, ctx) <= solve.z_tilde + tol

    ctrl = synthesize_wdrc(cfg.sys, cfg.cost, nominal, lam, p0)
    assert all(s.converged for s in ctrl.schedule.solves)


def test_worst_case_mean_is_stationary_point(plant):
    rng = np.random.default_rng(27)
    lam = 8.0
    p_next = random_psd(rng, 2)
    r_next = rng.standard_normal(2)
    w_hat = rng.standard_normal(2) * 0.1
    x_bar = rng.standard_normal(2)
    u = rng.standard_normal(1)
    w_star = worst_case_mean(plant, lam, p_next, r_next, x_bar, u, w_hat)
    m = plant.A @ x_bar + plant.B @ u

    def g(w):
        return (
            (m + w) @ p_next @ (m + w)
            + 2.0 * r_next @ (m + w)
            - lam * float((w - w_hat) @ (w - w_hat))
        )

    base = g(w_star)
    for _ in range(30):
        probe = w_star + rng.standard_normal(2) * 0.1
        assert g(probe) <= base + 1e-10 * (1 + abs(base))


def test_mean_affine_matches_pointwise(plant, quad_cost):
    rng = np.random.default_rng(28)
    nominal = NominalDistribution(
        tuple(
            MomentPair(rng.standard_normal(2) * 0.05, random_psd(rng, 2, 1e-3) * 0.01)
            for _ in range(quad_cost.horizon)
        )
    )
    sol = backward_pass(plant, quad_cost, nominal, 6.0)
    H, h = mean_affine(plant, sol, nominal)
    for t in (0, 10, quad_cost.horizon - 1):
        for _ in range(5):
            x_bar = rng.standard_normal(2)
            u = sol.K[t] @ x_bar + sol.L[t]
            direct = worst_case_mean(
                plant, 6.0, sol.P[t + 1], sol.r[t + 1], x_bar, u, nominal.mean(t)
            )
            assert np.allclose(H[t] @ x_bar + h[t], direct, atol=1e-10)


def test_forward_schedule_posteriors_match_filter(plant, quad_cost, gaussian_scenario):
    from wdrc.model import draw_nominal_samples, estimate_nominal

    nominal = estimate_nominal(
        draw_nominal_samples(gaussian_scenario, quad_cost.horizon)
    )
    sol = backward_pass(plant, quad_cost, nominal, 4.0)
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    schedule = forward_schedule(plant, sol, nominal, p0)
    assert schedule.horizon == quad_cost.horizon

    belief = BeliefState(mean=np.zeros(2), cov=p0)
    for t in range(quad_cost.horizon):
        belief = predict(
            belief, np.zeros(1), np.zeros(2), schedule.solves[t].cov, plant
        )
        assert np.allclose(schedule.prior_covs[t], belief.cov, atol=1e-10)
        belief = update(belief, np.zeros(1), plant)
        assert np.allclose(schedule.post_covs[t + 1], belief.cov, atol=1e-10)
        assert np.allclose(
            schedule.gains[t], kalman_gain(schedule.prior_covs[t], plant), atol=1e-10
        )


def test_warm_start_changes_nothing(plant, quad_cost, gaussian_scenario):
    from wdrc.model import draw_nominal_samples, estimate_nominal

    nominal = estimate_nominal(
        draw_nominal_samples(gaussian_scenario, quad_cost.horizon)
    )
    sol = backward_pass(plant, quad_cost, nominal, 4.0)
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    warm = forward_schedule(plant, sol, nominal, p0)
    for t in range(quad_cost.horizon):
        ctx = CovObjectiveContext(
            S_next=sol.S[t + 1],
            P_next=sol.P[t + 1],
            lam=sol.lam,
            Sigma_hat=nominal.cov(t),
            P_bar=warm.post_covs[t],
            sys=plant,
        )
        cold = solve_worst_case_cov(ctx)
        assert np.allclose(warm.solves[t].cov, cold.cov, atol=1e-6)
        assert warm.solves[t].z_tilde == pytest.approx(cold.z_tilde, rel=1e-8)


def test_schedule_memoizes_steady_state(plant, quad_cost, gaussian_scenario):
    from wdrc.model import draw_nominal_samples, estimate_nominal

    nominal = estimate_nominal(
        draw_nominal_samples(gaussian_scenario, quad_cost.horizon)
    )
    sol = backward_pass(plant, quad_cost, nominal, 4.0)
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    schedule = forward_schedule(plant, sol, nominal, p0)
    unique = len({id(s) for s in schedule.solves})
    assert unique < quad_cost.horizon


def _plant(n: int) -> LinearSystem:
    if n == 2:
        return LinearSystem(
            A=np.array([[0.518, 0.266], [0.405, 0.806]]),
            B=np.array([[-2.972], [-2.271]]),
            C=np.array([[1.023, 1.955]]),
            M=np.array([[0.2]]),
        )
    rng = np.random.default_rng(40 + n)
    return LinearSystem(
        A=0.9 * rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((1, n)),
        M=np.array([[0.2]]),
    )


def _same_schedule(a, b) -> None:
    """Equal bit for bit, including which stages share a memoized solve."""
    assert len(a.solves) == len(b.solves)
    for sa, sb in zip(a.solves, b.solves):
        assert np.array_equal(sa.cov, sb.cov)
        assert sa.z_tilde == sb.z_tilde
        assert sa.iterations == sb.iterations
        assert sa.converged == sb.converged

    def shares(s):
        first = {}
        return [first.setdefault(id(x), t) for t, x in enumerate(s.solves)]

    assert shares(a) == shares(b)
    for name in ("post_covs", "prior_covs", "gains"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("per_stage", [False, True])
def test_stacked_pass_matches_single_penalty_passes(n, per_stage, monkeypatch):
    """Each penalty's path out of the stacked pass is the one it gets
    alone, including the smallest feasible penalty, whose first stage
    the stack leaves to the single-problem solver."""
    import wdrc.worstcase

    sys = _plant(n)
    cost = CostSpec(Q=np.eye(n), Q_f=np.eye(n), R=np.eye(1), horizon=30)
    scenario = ScenarioSpec(
        true_disturbance=GaussianSpec(np.full(n, 0.01), 0.01 * np.eye(n)),
        initial_state=GaussianSpec(-np.ones(n), 0.001 * np.eye(n)),
        noise_cov=np.array([[0.2]]),
        sample_count=5,
        seed=4,
    )
    nominal = estimate_nominal(
        draw_nominal_samples(scenario, cost.horizon, per_stage=per_stage)
    )
    p0 = initial_posterior_cov(scenario.initial_state, sys)
    lam_min = min_feasible_lambda(sys, cost, 1e-3, 1e6)
    sols = [
        backward_pass(sys, cost, nominal, lam)
        for lam in np.exp(np.linspace(np.log(lam_min), np.log(1e6), 9))
    ]

    single_calls = []
    solve = wdrc.worstcase.solve_worst_case_cov

    def counted(ctx, *args, **kwargs):
        single_calls.append(ctx.lam)
        return solve(ctx, *args, **kwargs)

    monkeypatch.setattr(wdrc.worstcase, "solve_worst_case_cov", counted)
    stacked = forward_schedules(sys, sols, nominal, p0)
    if n == 2:
        assert sols[0].lam in single_calls
    assert len(single_calls) < len(sols) * cost.horizon // 4

    for sol, schedule in zip(sols, stacked):
        try:
            alone = forward_schedule(sys, sol, nominal, p0)
        except Diverged as exc:
            assert isinstance(schedule, Diverged)
            assert str(schedule) == str(exc)
            continue
        _same_schedule(schedule, alone)


def test_stacked_pass_drops_a_diverging_penalty(monkeypatch):
    """A penalty whose stage raises ``Diverged`` leaves the pass; the
    others keep the paths they get alone."""
    import wdrc.worstcase

    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    nominal = estimate_nominal(draw_nominal_samples(cfg.scenario, cfg.cost.horizon))
    p0 = initial_posterior_cov(cfg.scenario.initial_state, cfg.sys)
    lam_min = min_feasible_lambda(cfg.sys, cfg.cost, 1e-3, 1e6)
    sols = [
        backward_pass(cfg.sys, cfg.cost, nominal, lam)
        for lam in (lam_min, 2.5, 4.0, 1e3)
    ]
    alone = [forward_schedule(cfg.sys, sol, nominal, p0) for sol in sols]

    def refuse(ctx, *args, **kwargs):
        raise Diverged(f"refused at lam {ctx.lam}")

    monkeypatch.setattr(wdrc.worstcase, "solve_worst_case_cov", refuse)
    stacked = forward_schedules(cfg.sys, sols, nominal, p0)
    assert isinstance(stacked[0], Diverged)
    assert str(stacked[0]) == f"refused at lam {lam_min}"
    for schedule, reference in zip(stacked[1:], alone[1:]):
        _same_schedule(schedule, reference)
    with pytest.raises(Diverged, match="refused"):
        forward_schedule(cfg.sys, sols[0], nominal, p0)
