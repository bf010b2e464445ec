"""Adversarial moments: gradients, maximizers, and the schedule."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_problem, random_psd
from wdrc import worstcase
from wdrc.bounds import calibrate_lambda
from wdrc.controller import synthesize_wdrc
from wdrc.errors import Diverged, NotPSD
from wdrc.estimator import initial_posterior_cov, kalman_gain, update, BeliefState, predict
from wdrc.harness import load_config, prepare
from wdrc.model import (
    CostSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    draw_nominal_samples,
    estimate_nominal,
)
from wdrc.oracles import (
    bracket_max,
    fd_gradient_sym,
    grid_max,
    worst_case_mean,
    worst_cov_no_obs,
)
from wdrc.psdmath import MomentPair, symmetrize
from wdrc.riccati import backward_pass, min_feasible_lambda
from wdrc.worstcase import (
    CovObjectiveContext,
    _ascend,
    _direction,
    _entries,
    _evaluate,
    _positive,
    _scatter,
    _settle,
    _stack,
    _start,
    _system,
    _unrotate,
    cov_gradient,
    cov_objective,
    forward_schedule,
    forward_schedules,
    mean_affine,
    solve_worst_case_cov,
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_matches_finite_differences_of_gradient(n):
    """For every measurement count, on the free entries of ``U`` in the
    nominal's eigenbasis: the gradient of the transport objective
    ``Phi`` is its central difference, each column of the negated
    Hessian is minus the central difference of the gradient along that
    entry's basis matrix, and the ``Sigma``-space gradient that the
    residual takes, ``P_next - lam I + W + lam U^{-1}``, is
    ``cov_gradient`` at ``Sigma = U Sigma_hat U``."""
    rng = np.random.default_rng(50 + n)
    basis = _entries(n)[2]
    step = 1e-5
    for n_y in range(1, n + 1):
        for _ in range(4):
            ctx = _context(rng, n, n_y)
            st = _stack([ctx])
            frame = st.frame[0]
            U = (frame.T @ random_psd(rng, n, jitter=0.05) @ frame)[None]
            state = _evaluate(U, st)
            g, h = _system(state, st)
            assert np.array_equal(h, h.mT)
            sigma = symmetrize(frame @ state[2][0] @ frame.T)
            grad = frame @ (state[3][0] + ctx.lam * np.linalg.inv(U[0])) @ frame.T
            assert np.allclose(grad, cov_gradient(sigma, ctx), rtol=1e-8, atol=1e-10)
            scale = max(float(np.abs(h).max()), float(np.abs(g).max()), 1.0)
            for col, e in enumerate(basis):
                up, down = (_evaluate(U + sign * step * e, st) for sign in (1.0, -1.0))
                fd_phi = (up[0] - down[0]) / (2.0 * step)
                assert abs(fd_phi[0] - g[0, col]) / scale < 1e-6
                fd = (_system(up, st)[0] - _system(down, st)[0]) / (2.0 * step)
                assert np.abs(fd[0] + h[0, :, col]).max() / scale < 1e-6


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


def test_objective_and_gradient_read_only_their_context(monkeypatch):
    """``cov_objective`` and ``cov_gradient``, the references the
    solver is checked against, build none of the solver's stage data:
    with ``_Stage`` refusing construction, a context is still built,
    and both evaluate, on one candidate and on a stack, where the
    objective reads the value the solver found before."""
    n = 3
    solve = solve_worst_case_cov(random_problem(4, n, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a solver stage was built")

    monkeypatch.setattr(worstcase, "_Stage", refuse)
    ctx = random_problem(4, n, 2)
    rng = np.random.default_rng(35)
    stack = np.stack([solve.cov] + [random_psd(rng, n) for _ in range(3)])
    values = cov_objective(stack, ctx)
    assert values.shape == (4,) and np.isfinite(values).all()
    assert cov_objective(solve.cov, ctx) == values[0]
    assert abs(values[0] - solve.z_tilde) <= 1e-12 * max(abs(solve.z_tilde), 1.0)
    assert np.isfinite(cov_gradient(stack[1], ctx)).all()


def test_stacked_objective_rejects_a_non_psd_member():
    rng = np.random.default_rng(33)
    ctx = _context(rng, 2, 1)
    stack = np.stack([random_psd(rng, 2), np.diag([1.0, -0.5]), random_psd(rng, 2)])
    with pytest.raises(NotPSD):
        cov_objective(stack, ctx)


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


def test_newton_alone_matches_oracles():
    """Newton steps from the nominal start converge, in fewer than 30
    steps, to the maximizers and maxima of the scalar grid oracles and
    to the maximizers of the unobserved closed form."""
    rng = np.random.default_rng(24)
    for _ in range(6):
        ctx = _context(rng, 1, 1)

        def f(v: np.ndarray) -> np.ndarray:
            return cov_objective(np.maximum(v, 1e-12)[:, None, None], ctx)

        hi = bracket_max(f, 0.0, float(ctx.Sigma_hat[0, 0]) * 8.0 + 1.0)
        v_star, f_star = grid_max(f, 0.0, hi)
        solve = solve_worst_case_cov(ctx)
        assert solve.cov[0, 0] == pytest.approx(v_star, rel=1e-3, abs=1e-9)
        assert solve.z_tilde == pytest.approx(f_star, rel=1e-4, abs=1e-9)
        assert cov_objective(solve.cov, ctx) == pytest.approx(f_star, rel=1e-4, abs=1e-9)
        assert solve.iterations < 30

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
        assert solve.iterations < 30
        assert np.allclose(solve.cov, ref, rtol=1e-6, atol=1e-10)


def test_singular_nominal_covariance_holds_unseen_entries_fixed():
    """A rank-deficient nominal covariance (as few samples give) leaves
    the entry of ``U`` on its null space unseen by the objective: that
    entry gets zero gradient and unit curvature, so steps leave it
    alone, while its stack neighbour keeps the system of its stack of
    one, and the solver still converges to a maximizer of rank one."""
    rng = np.random.default_rng(34)
    ctx0 = _context(rng, 2, 1)
    singular = CovObjectiveContext(
        S_next=ctx0.S_next,
        P_next=ctx0.P_next,
        lam=ctx0.lam,
        Sigma_hat=np.diag([0.1, 0.0]),
        P_bar=ctx0.P_bar,
        sys=ctx0.sys,
    )
    stack = _stack([singular, ctx0])
    assert stack.free.tolist() == [[False, True, True], [True, True, True]]
    U = np.stack([0.7 * np.eye(2), random_psd(rng, 2)])
    g, h = _system(_evaluate(U, stack), stack)
    assert g[0, 0] == 0.0
    assert np.array_equal(h[0, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(h[0, :, 0], [1.0, 0.0, 0.0])
    s, newton = _direction(g, h)
    assert s[0, 0] == 0.0 and newton.all()
    one = _stack([ctx0])
    alone = _system(_evaluate(U[1:], one), one)
    assert np.array_equal(g[1], alone[0][0]) and np.array_equal(h[1], alone[1][0])

    solve = solve_worst_case_cov(singular)
    assert solve.converged
    vals = np.linalg.eigvalsh(solve.cov)
    assert vals[0] <= 1e-15 * vals[1]
    for _ in range(40):
        probe = random_psd(rng, 2, jitter=1e-6)
        assert cov_objective(probe, singular) <= solve.z_tilde + 1e-7 * (
            1 + abs(solve.z_tilde)
        )


# Stage-0 problems of the calibration at gaussian scenario seed 411 that
# the solver's earlier projected-gradient-ascent fallback took longest
# on: (penalty, the value the ascent reached, its iterations).
_SLOW_AT_411 = (
    (2.1554160837427836, 1.22539587647604, 31),
    (2.2168119302170175, 0.07786745172296873, 70),
    (2.255627923192529, 0.05995998516747079, 186),
    (2.3198782490205003, 0.047136406989317294, 1453),
    (2.3604989153885336, 0.04263875662985493, 840),
    (2.4093612979338785, 0.03885816050365358, 586),
    (2.427736433984078, 0.03773357121953341, 523),
    (2.6129771370056996, 0.03091963977155507, 426),
)


def test_newton_beats_the_ascent_on_slow_problems():
    """On the slow problems of ``prepare(gaussian, 411)``, the
    single-problem solver and the stacked pass both reach at least the
    ascent's value (minus 1e-12 relative), the solver in at most 210
    iterations, however long the ascent took."""
    cfg = load_config(str(CONFIG_DIR / "gaussian.yaml"))
    _, nominal, p0 = prepare(cfg, 411)
    sols = [backward_pass(cfg.sys, cfg.cost, nominal, lam) for lam, _, _ in _SLOW_AT_411]
    schedules = forward_schedules(cfg.sys, sols, nominal, p0)
    for sol, schedule, (lam, ascent, _) in zip(sols, schedules, _SLOW_AT_411):
        ctx = CovObjectiveContext(
            S_next=sol.S[1],
            P_next=sol.P[1],
            lam=lam,
            Sigma_hat=nominal.cov(0),
            P_bar=p0,
            sys=cfg.sys,
        )
        solve = solve_worst_case_cov(ctx)
        assert solve.converged
        assert solve.iterations <= 210
        for value in (solve.z_tilde, schedule.solves[0].z_tilde):
            assert value >= ascent - 1e-12 * abs(ascent)


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
    solve = solve_worst_case_cov(ctx)
    assert solve.converged
    assert solve.iterations <= 100

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mean_affine_equals_per_stage_loop(n):
    """The stacked solves give each stage the bits of its own solves."""
    rng = np.random.default_rng(90 + n)
    sys = _plant(n)
    cost = CostSpec(Q=np.eye(n), Q_f=np.eye(n), R=np.eye(1), horizon=25)
    nominal = NominalDistribution(
        tuple(
            MomentPair(0.1 * rng.standard_normal(n), 0.01 * random_psd(rng, n))
            for _ in range(cost.horizon)
        )
    )
    lam_min = min_feasible_lambda(sys, cost, 1e-3, 1e6)
    for lam in (lam_min, 3.0 * lam_min, 1e4):
        sol = backward_pass(sys, cost, nominal, lam)
        H, h = mean_affine(sys, sol, nominal)
        for t in range(cost.horizon):
            shifted = lam * np.eye(n) - sol.P[t + 1]
            drift = sol.P[t + 1] @ (sys.A + sys.B @ sol.K[t])
            offset = sol.r[t + 1] + sol.P[t + 1] @ (sys.B @ sol.L[t])
            assert np.array_equal(H[t], np.linalg.solve(shifted, drift))
            assert np.array_equal(
                h[t], np.linalg.solve(shifted, offset + lam * nominal.mean(t))
            )


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
        assert np.allclose(
            schedule.gains[t], kalman_gain(belief.cov, plant), atol=1e-10
        )
        belief = update(belief, np.zeros(1), plant)
        assert np.allclose(schedule.post_covs[t + 1], belief.cov, atol=1e-10)


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
    for name in ("post_covs", "gains"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _plant_problem(n: int, per_stage: bool = False):
    """``_plant(n)`` with a 30-stage cost, a nominal estimated from five
    samples per stage, the initial posterior and the smallest feasible
    penalty."""
    sys = _plant(n)
    cost = CostSpec(Q=np.eye(n), Q_f=np.eye(n), R=np.eye(1), horizon=30)
    scenario = ScenarioSpec(
        true_disturbance=GaussianSpec(np.full(n, 0.01), 0.01 * np.eye(n)),
        initial_state=GaussianSpec(-np.ones(n), 0.001 * np.eye(n)),
        sample_count=5,
        seed=4,
    )
    nominal = estimate_nominal(
        draw_nominal_samples(scenario, cost.horizon, per_stage=per_stage)
    )
    p0 = initial_posterior_cov(scenario.initial_state, sys)
    return sys, cost, nominal, p0, min_feasible_lambda(sys, cost, 1e-3, 1e6)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("per_stage", [False, True])
def test_stacked_pass_matches_single_penalty_passes(n, per_stage, monkeypatch):
    """Each penalty's path out of the stacked pass is the one it gets
    alone, including the smallest feasible penalty, and the pass never
    calls the single-problem entry point."""
    import wdrc.worstcase

    sys, cost, nominal, p0, lam_min = _plant_problem(n, per_stage)
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
    assert single_calls == []

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

    settle = wdrc.worstcase._settle

    def refuse(st, init):
        return [
            Diverged(f"refused at lam {lam}") if lam == lam_min else solve
            for lam, solve in zip(st.lam, settle(st, init))
        ]

    monkeypatch.setattr(wdrc.worstcase, "_settle", refuse)
    stacked = forward_schedules(cfg.sys, sols, nominal, p0)
    assert isinstance(stacked[0], Diverged)
    assert str(stacked[0]) == f"refused at lam {lam_min}"
    for schedule, reference in zip(stacked[1:], alone[1:]):
        _same_schedule(schedule, reference)
    with pytest.raises(Diverged, match="refused"):
        forward_schedule(cfg.sys, sols[0], nominal, p0)


def test_direction_survives_hessians_that_are_not_positive_definite():
    """On the n = 3 plant, the first stage's objective is unbounded at
    the smallest feasible penalty, and there the negated Hessian is not
    positive definite at any ``U = c I``; at three times that penalty it
    is.  In one stack of both, each problem takes its own step, the bits
    of its stack of one: Newton's where the Cholesky factor exists, and
    an ascent step with the eigenvalues' magnitudes elsewhere."""
    sys, cost, nominal, p0, lam = _plant_problem(3)
    ctxs = []
    for scale in (1.0, 3.0):
        sol = backward_pass(sys, cost, nominal, scale * lam)
        ctxs.append(CovObjectiveContext(
            S_next=sol.S[1], P_next=sol.P[1], lam=scale * lam,
            Sigma_hat=nominal.cov(0), P_bar=p0, sys=sys,
        ))
    c = np.linspace(-2.0, 2.0, 9)
    stack = _stack([ctx for ctx in ctxs for _ in c])
    g, h = _system(_evaluate(np.tile(c, 2)[:, None, None] * np.eye(3), stack), stack)
    s, newton = _direction(g, h)
    assert newton.tolist() == [False] * c.size + [True] * c.size
    assert np.isfinite(s).all()
    assert (np.vecdot(g, s) > 0.0).all()
    assert np.array_equal(s[newton], np.linalg.solve(h[newton], g[newton, :, None])[..., 0])
    for q in range(s.shape[0]):
        alone, newton_alone = _direction(g[q:q + 1], h[q:q + 1])
        assert np.array_equal(s[q], alone[0]) and newton[q] == newton_alone[0]
    assert _positive(h).tolist() == newton.tolist()


def _hats(ctxs) -> np.ndarray:
    """The contexts' nominal covariances, stacked: the start of
    :func:`~wdrc.worstcase._settle` that ``solve_worst_case_cov``
    takes."""
    return np.stack([ctx.Sigma_hat for ctx in ctxs])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dims=hs.integers(1, 3).flatmap(
        lambda n: hs.tuples(
            hs.just(n),
            hs.integers(1, n),
            hs.lists(hs.integers(1, n), min_size=1, max_size=4),
        )
    ),
    seed=hs.integers(0, 2**32 - 1),
)
def test_stacked_solve_gives_each_problem_its_stack_of_one(dims, seed):
    """Random bounded problems on one plant (``lam`` above the top
    eigenvalue of ``P_next + S_next``), each with a nominal covariance
    of the drawn rank: the stacked solve gives every problem the bits
    of its stack of one (or ``Diverged`` alike), and a converged
    maximum beats 40 random PSD probes.  Every problem with a full-rank
    nominal converges; one with a rank-deficient nominal may not (see
    ROADMAP), but its outcome is still its own."""
    n, n_y, ranks = dims
    rng = np.random.default_rng(seed)
    sys = LinearSystem(
        A=rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((n_y, n)),
        M=random_psd(rng, n_y, jitter=0.1),
    )
    ctxs = []
    for rank in ranks:
        p_next, s_next = random_psd(rng, n), random_psd(rng, n)
        top = float(np.linalg.eigvalsh(p_next + s_next).max())
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
        ctxs.append(CovObjectiveContext(
            S_next=s_next,
            P_next=p_next,
            lam=top * (1.5 + 2.5 * rng.random()) + 1.0,
            Sigma_hat=symmetrize((basis * rng.uniform(0.05, 1.0, rank)) @ basis.T),
            P_bar=random_psd(rng, n),
            sys=sys,
        ))
    stacked = _settle(_stack(ctxs), _hats(ctxs))
    for ctx, rank, solve in zip(ctxs, ranks, stacked):
        (alone,) = _settle(_stack([ctx]), _hats([ctx]))
        if isinstance(solve, Diverged):
            assert isinstance(alone, Diverged)
            continue
        assert np.array_equal(solve.cov, alone.cov)
        assert (solve.z_tilde, solve.iterations, solve.converged) == (
            alone.z_tilde, alone.iterations, alone.converged
        )
        assert solve.converged or rank < n
        if not solve.converged:
            continue
        for _ in range(40):
            probe = random_psd(rng, n, jitter=1e-6)
            assert cov_objective(probe, ctx) <= solve.z_tilde + 1e-7 * (
                1 + abs(solve.z_tilde)
            )


def _factor_objective(Sigma: np.ndarray, ctx: CovObjectiveContext, rank: int) -> float:
    """The stage objective at ``Sigma``, its cross term taken as ``tr
    (F' Sigma F)^{1/2}`` with ``Sigma_hat = F F'`` of the given rank:
    exact to rounding where ``Sigma`` is singular, unlike a square root
    of ``Sigma``."""
    vals, vecs = np.linalg.eigh(ctx.Sigma_hat)
    F = vecs[:, -rank:] * np.sqrt(vals[-rank:])
    sys = ctx.sys
    G = sys.A @ ctx.P_bar @ sys.A.T + Sigma
    gain = G @ sys.C.T @ np.linalg.inv(sys.C @ G @ sys.C.T + sys.M)
    cross = np.sqrt(np.maximum(np.linalg.eigvalsh(symmetrize(F.T @ Sigma @ F)), 0.0)).sum()
    return float(
        np.trace(ctx.S_next @ (G - gain @ sys.C @ G))
        + np.trace((ctx.P_next - ctx.lam * np.eye(Sigma.shape[0])) @ Sigma)
        + 2.0 * ctx.lam * cross
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dims=hs.integers(1, 3).flatmap(lambda n: hs.tuples(hs.just(n), hs.integers(1, n))),
    seed=hs.integers(0, 2**32 - 1),
)
def test_transport_objective_bounds_the_stage_objective(dims, seed):
    """``Phi(U)`` is the stage objective at ``Sigma = U Sigma_hat U`` for
    PSD ``U`` (within 1e-12 relative, by the test's own route and by
    ``cov_objective``, at every rank of the nominal) and at most that
    value for indefinite symmetric ``U``; its gradient and
    negated Hessian on the free entries match central differences, at
    full and deficient rank of the nominal."""
    n, rank = dims
    ctx = random_problem(seed, n, rank)
    st = _stack([ctx])
    frame = st.frame[0]
    rng = np.random.default_rng(seed)
    shift = np.diag(rng.uniform(-2.0, 0.0, n))
    for U, psd in ((random_psd(rng, n, jitter=0.05), True), (random_psd(rng, n) + shift, False)):
        U_r = (frame.T @ U @ frame)[None]
        state = _evaluate(U_r, st)
        phi = float(state[0][0])
        sigma = symmetrize(U @ ctx.Sigma_hat @ U)
        exact = _factor_objective(sigma, ctx, rank)
        if psd:
            assert abs(phi - exact) <= 1e-12 * max(abs(exact), 1.0)
            assert abs(phi - cov_objective(sigma, ctx)) <= 1e-12 * max(abs(exact), 1.0)
        else:
            assert phi <= exact + 1e-12 * max(abs(exact), 1.0)

        g, h = _system(state, st)
        scale = max(float(np.abs(h).max()), float(np.abs(g).max()), 1.0)
        step = 1e-5
        for col, e in enumerate(_entries(n)[2]):
            up, down = (_evaluate(U_r + sign * step * e, st) for sign in (1.0, -1.0))
            if not st.free[0, col]:
                assert g[0, col] == 0.0 and up[0][0] == down[0][0]
                continue
            assert abs((up[0][0] - down[0][0]) / (2.0 * step) - g[0, col]) / scale < 1e-6
            fd = (_system(up, st)[0] - _system(down, st)[0]) / (2.0 * step)
            assert np.abs(fd[0] + h[0, :, col]).max() / scale < 1e-6


@pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (3, 2), (3, 3)])
def test_cov_objective_agrees_with_the_solver_at_every_rank(n, rank):
    """On 100 random problems per rank of the nominal every solve
    converges, and ``cov_objective`` at the maximizer, the independent
    reference, reads the solver's value within 1e-12 relative: the
    cross term takes no square root of the singular maximizer."""
    for seed in range(100):
        ctx = random_problem(seed, n, rank)
        solve = solve_worst_case_cov(ctx)
        assert solve.converged
        gap = abs(cov_objective(solve.cov, ctx) - solve.z_tilde)
        assert gap <= 1e-12 * max(abs(solve.z_tilde), 1.0)


def test_a_singular_member_leaves_the_stack_its_own_results():
    """A rank-one nominal at n = 3 makes that problem's maximizer
    singular, where no transport factor of ``Sigma`` exists; its
    residual is taken in ``U``, so it converges, and in one stack with
    full-rank problems, a rank-two one and an unbounded one every
    problem keeps the outcome of its stack of one, bit for bit."""
    base = [random_problem(seed, 3, rank) for seed, rank in ((2, 3), (5, 1), (7, 2))]
    sys = base[0].sys
    ctxs = [replace(ctx, sys=sys) for ctx in base]
    ctxs.append(replace(ctxs[0], lam=0.5, S_next=10.0 * np.eye(3)))
    stacked = _settle(_stack(ctxs), _hats(ctxs))
    for ctx, solve in zip(ctxs, stacked):
        (alone,) = _settle(_stack([ctx]), _hats([ctx]))
        if isinstance(alone, Diverged):
            assert isinstance(solve, Diverged)
            continue
        assert np.array_equal(solve.cov, alone.cov)
        assert (solve.z_tilde, solve.iterations, solve.converged) == (
            alone.z_tilde, alone.iterations, alone.converged
        )
    assert isinstance(stacked[3], Diverged)
    singular = stacked[1]
    assert singular.converged
    vals = np.linalg.eigvalsh(singular.cov)
    assert vals[1] <= 1e-12 * vals[2]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=hs.integers(1, 3), seed=hs.integers(0, 2**32 - 1))
def test_newton_stop_leaves_nothing_for_more_steps(n, seed):
    """A solve may end at a full Newton step of up to 1e-8 relative, so
    the next steps only confirm it: on random bounded problems with a
    full-rank nominal, 5 more full Newton steps move each converged
    maximizer by at most 1e-13 relative."""
    ctx = random_problem(seed, n, n)
    solve = solve_worst_case_cov(ctx)
    assert solve.converged
    st = _stack([ctx])
    U, _, state = _ascend(st, _start(st, _hats([ctx])), worstcase._MAX_STEPS)
    assert np.array_equal(_unrotate(state[2], st)[0], solve.cov)
    for _ in range(5):
        s, newton = _direction(*_system(state, st))
        assert newton.all()
        U = U + _scatter(s, n)
        state = _evaluate(U, st)
    moved = np.abs(_unrotate(state[2], st)[0] - solve.cov).max()
    assert moved <= 1e-13 * np.abs(solve.cov).max()


@pytest.mark.parametrize("seed", [1, 6, 14, 15])
def test_rank_deficient_nominal_converges_as_with_the_fine_stop(monkeypatch, seed):
    """Rank-2 nominals at n = 3, whose solves hold the entry of ``U`` on
    the nominal's null space fixed: each converges to the maximizer
    (within 1e-12 relative) that the solve reaches when every step must
    move less than 1e-14 relative."""
    ctx = random_problem(seed, 3, 2)
    assert _stack([ctx]).free.sum() == 5
    solve = solve_worst_case_cov(ctx)
    monkeypatch.setattr(worstcase, "_FULL_STEP_STOP", worstcase._STEP_STOP)
    fine = solve_worst_case_cov(ctx)
    assert solve.converged and fine.converged
    assert np.abs(solve.cov - fine.cov).max() <= 1e-12 * np.abs(fine.cov).max()


@pytest.mark.parametrize(
    "name, per_stage, most", [("gaussian", False, 310), ("uniform", True, 560)]
)
def test_calibration_newton_step_count(monkeypatch, name, per_stage, most):
    """One calibration at the config's seed takes at most ``most``
    stacked Newton steps (302 and 548 when this bound was set), and
    every stage it solves converges."""
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    cfg = replace(cfg, per_stage_nominal=per_stage)
    scenario, nominal, _ = prepare(cfg, None)
    steps = []
    direction = worstcase._direction
    settle = worstcase._settle
    outcomes = []

    def counted(g, h):
        steps.append(g.shape[0])
        return direction(g, h)

    def recorded(st, init):
        out = settle(st, init)
        outcomes.extend(out)
        return out

    monkeypatch.setattr(worstcase, "_direction", counted)
    monkeypatch.setattr(worstcase, "_settle", recorded)
    calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    assert 0 < len(steps) <= most
    assert all(o.converged for o in outcomes if isinstance(o, worstcase.CovSolve))
