"""Value evaluation, cost certificates, and penalty calibration."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import wdrc.bounds
from wdrc.bounds import (
    _exact_value,
    calibrate_lambda,
    certified_bounds,
    evaluate_value,
    lqg_value_terms,
    performance_ratio,
)
from wdrc.controller import WdrcController, lqg_gains, synthesize_wdrc, synthesize_wdrcs
from wdrc.errors import DegenerateLQ, Diverged, NoFeasibleLambda, PenaltyTooSmall
from wdrc.estimator import BeliefState, initial_posterior_cov, kalman_gain
from wdrc.harness import load_config, prepare, robust_policy
from wdrc.model import (
    CostSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    draw_nominal_samples,
    estimate_nominal,
)
from wdrc.psdmath import MomentPair
from wdrc.riccati import min_feasible_lambda


@dataclass(frozen=True)
class _StubSolution:
    P: np.ndarray
    S: np.ndarray
    r: np.ndarray
    z: np.ndarray


@pytest.fixture(scope="module")
def short_cost():
    return CostSpec(Q=np.eye(2), R=np.eye(1), Q_f=np.eye(2), horizon=15)


@pytest.fixture(scope="module")
def short_scenario(gaussian_scenario):
    return gaussian_scenario


@pytest.fixture(scope="module")
def short_nominal(short_scenario, short_cost):
    return estimate_nominal(draw_nominal_samples(short_scenario, short_cost.horizon))


def test_evaluate_value_hand_case():
    sol = _StubSolution(
        P=np.array([[[2.0, 0.0], [0.0, 1.0]]]),
        S=np.array([[[1.0, 0.0], [0.0, 3.0]]]),
        r=np.array([[1.0, -1.0]]),
        z=np.array([0.25]),
    )
    b0 = BeliefState(mean=np.array([1.0, 2.0]), cov=np.diag([0.5, 0.5]))
    # x'Px = 2 + 4 = 6; tr[(P+S) cov] = (3 + 4) * 0.5 = 3.5;
    # 2 r'x = 2 * (1 - 2) = -2; z = 0.25; empty stage path adds 0.
    value = evaluate_value(sol, np.zeros(0), b0)
    assert value == pytest.approx(6.0 + 3.5 - 2.0 + 0.25, abs=1e-14)


def test_evaluate_value_rejects_wrong_path_length():
    sol = _StubSolution(
        P=np.zeros((3, 1, 1)),
        S=np.zeros((3, 1, 1)),
        r=np.zeros((3, 1)),
        z=np.zeros(3),
    )
    b0 = BeliefState(mean=np.zeros(1), cov=np.eye(1))
    with pytest.raises(ValueError):
        evaluate_value(sol, np.zeros(5), b0)


def test_exact_value_matches_sampled_average(plant):
    """The closed-form stage-0 value is the average of ``evaluate_value``
    over beliefs conditioned on sampled first measurements."""
    x0 = GaussianSpec(np.array([0.3, -0.2]), 0.04 * np.eye(2))
    sol = _StubSolution(
        P=np.array([np.array([[2.0, 0.3], [0.3, 1.0]])]),
        S=np.array([np.eye(2)]),
        r=np.array([[0.5, -0.7]]),
        z=np.array([0.1]),
    )
    rng = np.random.default_rng(41)
    count = 400_000
    xs = x0.sample(rng, count)
    noise = GaussianSpec(np.zeros(1), plant.M).sample(rng, count)
    y0 = xs @ plant.C.T + noise

    mu = x0.mean()
    gain = kalman_gain(x0.cov(), plant)
    cov0 = initial_posterior_cov(x0, plant)
    means = mu + (y0 - mu @ plant.C.T) @ gain.T
    sampled = np.mean(
        [evaluate_value(sol, np.zeros(0), BeliefState(m, cov0)) for m in means]
    )
    got = _exact_value(sol, np.zeros(0), x0, plant)
    assert got == pytest.approx(sampled, rel=5e-3)


def _certificate(sys, cost, nominal, scenario, theta, lam):
    """:func:`performance_ratio` at ``theta`` of both controllers, the
    robust one synthesized at ``lam``."""
    p0 = initial_posterior_cov(scenario.initial_state, sys)
    return performance_ratio(
        synthesize_wdrc(sys, cost, nominal, lam, p0),
        lqg_gains(sys, cost, nominal, p0),
        sys,
        cost,
        scenario.initial_state,
        theta,
    )


def test_certificate_collapses_at_huge_penalty(
    plant, short_cost, short_nominal, short_scenario
):
    cert = _certificate(plant, short_cost, short_nominal, short_scenario, 0.0, 1e8)
    assert cert.guaranteed_bound == pytest.approx(cert.j_lambda)
    assert cert.j_lambda == pytest.approx(cert.j_lq, rel=1e-4)
    assert cert.rho == pytest.approx(1.0, abs=2e-4)


def test_degenerate_baseline_is_rejected(plant, short_cost):
    zero_nominal = NominalDistribution(
        (MomentPair(np.zeros(2), np.zeros((2, 2))),) * short_cost.horizon
    )
    scenario = ScenarioSpec(
        true_disturbance=GaussianSpec(np.zeros(2), np.zeros((2, 2))),
        initial_state=GaussianSpec(np.zeros(2), np.zeros((2, 2))),
        sample_count=5,
        seed=0,
    )
    with pytest.raises(DegenerateLQ):
        _certificate(
            plant,
            short_cost,
            zero_nominal,
            scenario,
            theta=0.1,
            lam=100.0,
        )


def test_certificate_rejects_controllers_of_another_nominal(
    plant, short_cost, short_nominal, short_scenario
):
    p0 = initial_posterior_cov(short_scenario.initial_state, plant)
    other = estimate_nominal(draw_nominal_samples(short_scenario, short_cost.horizon))
    with pytest.raises(ValueError, match="nominal"):
        performance_ratio(
            synthesize_wdrc(plant, short_cost, short_nominal, 5.0, p0),
            lqg_gains(plant, short_cost, other, p0),
            plant,
            short_cost,
            short_scenario.initial_state,
            theta=0.1,
        )


def test_certificate_rejects_a_negative_radius(
    plant, short_cost, short_nominal, short_scenario
):
    with pytest.raises(ValueError, match="theta"):
        _certificate(plant, short_cost, short_nominal, short_scenario, -0.1, 5.0)


def test_lqg_value_terms_are_nonnegative(plant, short_cost, short_nominal, short_scenario):
    p0 = initial_posterior_cov(short_scenario.initial_state, plant)
    ctrl = lqg_gains(plant, short_cost, short_nominal, p0)
    path = lqg_value_terms(ctrl)
    assert path.shape == (short_cost.horizon,)
    assert (path >= 0.0).all()
    assert ctrl.horizon == short_cost.horizon


@pytest.fixture(scope="module")
def calibration(plant, short_cost, short_nominal, short_scenario):
    return calibrate_lambda(
        plant, short_cost, short_nominal, short_scenario, theta=0.1
    )


def test_calibration_returns_interior_minimum(calibration):
    finite = [(l, v) for l, v in calibration.evaluations if np.isfinite(v)]
    assert finite
    assert not calibration.hit_upper
    assert calibration.objective <= min(v for _, v in finite) + 1e-12


def test_calibration_objective_matches_certificate(
    calibration, plant, short_cost, short_nominal, short_scenario
):
    """The calibrated objective is exactly the guaranteed bound the
    certificate reports at the same penalty."""
    cert = _certificate(
        plant,
        short_cost,
        short_nominal,
        short_scenario,
        theta=0.1,
        lam=calibration.lam,
    )
    assert cert.guaranteed_bound == pytest.approx(calibration.objective, rel=1e-10)


def test_certificate_reports_its_dual_ingredients(
    calibration, plant, short_cost, short_nominal, short_scenario
):
    """The bound is recomputable from the reported multiplier and value,
    and calibration's objective is the very same number."""
    cert = _certificate(
        plant,
        short_cost,
        short_nominal,
        short_scenario,
        theta=0.1,
        lam=calibration.lam,
    )
    assert cert.guaranteed_bound == calibration.objective
    assert cert.guaranteed_bound == (
        cert.kappa * short_cost.horizon * 0.1 * 0.1 + cert.w_kappa
    )
    assert cert.kappa > 0.0 and np.isfinite(cert.w_kappa)


def test_calibration_zero_radius_pushes_to_cap(
    plant, short_cost, short_nominal, short_scenario
):
    cal = calibrate_lambda(plant, short_cost, short_nominal, short_scenario, theta=0.0)
    assert cal.hit_upper
    assert cal.lam == pytest.approx(wdrc.bounds.LAMBDA_CAP, rel=1e-3)


def test_no_feasible_penalty_raises(short_scenario, monkeypatch):
    wild = LinearSystem(
        A=3.0 * np.eye(1), B=np.ones((1, 1)), C=np.ones((1, 1)), M=np.eye(1)
    )
    cost = CostSpec(Q=np.eye(1), R=np.eye(1), Q_f=np.eye(1), horizon=8)
    nominal = NominalDistribution(
        (MomentPair(np.zeros(1), 0.01 * np.eye(1)),) * 8
    )
    scenario = ScenarioSpec(
        true_disturbance=GaussianSpec(np.zeros(1), 0.01 * np.eye(1)),
        initial_state=GaussianSpec(np.zeros(1), 0.01 * np.eye(1)),
        sample_count=5,
        seed=0,
    )
    monkeypatch.setattr(wdrc.bounds, "LAMBDA_CAP", 5.0)
    with pytest.raises(NoFeasibleLambda):
        calibrate_lambda(wild, cost, nominal, scenario, theta=0.1)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _bundled(name: str, seed: int | None):
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    if name == "uniform":
        cfg = cfg._replace(per_stage_nominal=True)
    scenario, nominal, p0 = prepare(cfg, seed)
    return cfg, scenario, nominal, p0


def _bound_at(cfg, scenario, nominal, p0, lam: float) -> float:
    """The calibration objective at ``lam``, one penalty at a time."""
    try:
        ctrl = synthesize_wdrc(cfg.sys, cfg.cost, nominal, lam, p0)
    except (PenaltyTooSmall, Diverged):
        return math.inf
    (dual,) = certified_bounds(
        [ctrl], cfg.sys, cfg.cost, scenario.initial_state, cfg.theta
    )
    return dual.bound


@pytest.mark.parametrize("name", ["gaussian", "uniform"])
@pytest.mark.parametrize("seed", [None, 12])
def test_stacked_scan_equals_objective_per_penalty(name, seed):
    """Calibration is the nested-zoom search one penalty at a time, bit
    for bit: its evaluations are the objective from ``synthesize_wdrc``
    and ``certified_bounds`` on a stack of one at the scan's points (``lam_min`` first, and
    finite), then at each zoom scan's, 15 points strictly inside each
    side of the best point evaluated before it, so never on an
    evaluated point.  Its objective is the least evaluation, and its
    penalty, certificate and controller (its worst-case mean map ``H``,
    ``h`` included) are that point's."""
    cfg, scenario, nominal, p0 = _bundled(name, seed)
    cal = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    lam_min = min_feasible_lambda(cfg.sys, cfg.cost, 1e-3, 1e6)
    points = np.linspace(math.log(lam_min), math.log(1e6), 33)
    tried, values, brackets = [], [], []
    for _ in range(3):
        if brackets:
            a, b = brackets[-1]
            assert a < points.min() and points.max() < b
        tried.extend(points)
        values += [_bound_at(cfg, scenario, nominal, p0, math.exp(s)) for s in points]
        s_star = tried[int(np.argmin(values))]
        a = max((s for s in tried if s < s_star), default=s_star)
        b = min((s for s in tried if s > s_star), default=s_star)
        brackets.append((a, b))
        sides = [side for side in ((a, s_star), (s_star, b)) if side[0] < side[1]]
        points = np.concatenate([np.linspace(*side, 17)[1:-1] for side in sides])

    assert math.isfinite(values[0])
    assert len(set(tried)) == len(tried)
    assert brackets[0][0] <= brackets[1][0] < brackets[1][1] <= brackets[0][1]
    assert cal.evaluations == tuple(zip(map(math.exp, tried), values))
    assert cal.objective == cal.dual.bound == min(values)
    assert cal.lam == math.exp(tried[int(np.argmin(values))])
    fresh = synthesize_wdrc(cfg.sys, cfg.cost, nominal, cal.lam, p0)
    assert np.array_equal(cal.controller.solution.K, fresh.solution.K)
    assert np.array_equal(cal.controller.schedule.gains, fresh.schedule.gains)
    assert np.array_equal(cal.controller.H, fresh.H)
    assert np.array_equal(cal.controller.h, fresh.h)


@pytest.mark.parametrize("name, seed", [("gaussian", 2813), ("uniform", None)])
def test_stacked_certificates_equal_stacks_of_one(name, seed, monkeypatch):
    """``certified_bounds`` gives each controller of the scan's stack the
    ``DualBound`` of its stack of one, bit for bit, at the config's
    radius and at ``theta = 0``.  The stack holds the scan's feasible
    controllers; below it ``lam_min / 2`` is infeasible and ``lam_min`` is
    made to diverge, and both have an error for a controller and score
    infinity in calibration, whose other scan values are the stacked
    bounds.  Gaussian at scenario seed 2813 holds the controller whose
    multiplier search takes the longest; uniform has a per-stage
    nominal."""
    import wdrc.worstcase

    cfg, scenario, nominal, p0 = _bundled(name, seed)
    x0_dist = scenario.initial_state
    lam_min = min_feasible_lambda(cfg.sys, cfg.cost, 1e-3, 1e6)
    grid = [math.exp(s) for s in np.linspace(math.log(lam_min), math.log(1e6), 33)]
    settle = wdrc.worstcase._settle

    def refuse_lam_min(st, init):
        return [
            Diverged("refused") if lam == grid[0] else solve
            for lam, solve in zip(st.lam, settle(st, init))
        ]

    monkeypatch.setattr(wdrc.worstcase, "_settle", refuse_lam_min)
    ctrls = synthesize_wdrcs(cfg.sys, cfg.cost, nominal, [0.5 * lam_min, *grid], p0)
    assert isinstance(ctrls[0], PenaltyTooSmall) and isinstance(ctrls[1], Diverged)
    feasible = ctrls[2:]
    assert all(isinstance(ctrl, WdrcController) for ctrl in feasible)
    for theta in (cfg.theta, 0.0):
        stacked = certified_bounds(feasible, cfg.sys, cfg.cost, x0_dist, theta)
        alone = [
            certified_bounds([ctrl], cfg.sys, cfg.cost, x0_dist, theta)[0]
            for ctrl in feasible
        ]
        assert stacked == alone
        if theta:
            bounds = [dual.bound for dual in stacked]
    cal = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    assert cal.evaluations[:33] == tuple(zip(grid, [math.inf, *bounds]))


@pytest.mark.parametrize("horizon", [1, 2])
def test_two_input_certificates_equal_stacks_of_one(horizon, gaussian_scenario):
    """With two inputs and a horizon of one or two stages, the stacked
    certificates still equal stacks of one, bit for bit: the loop's
    input-offset cost ``L' R L`` keeps its summation order on every
    stack size."""
    sys = LinearSystem(
        A=np.array([[0.518, 0.266], [0.405, 0.806]]),
        B=np.array([[-2.972, 0.4], [-2.271, 1.3]]),
        C=np.array([[1.023, 1.955]]),
        M=np.array([[0.2]]),
    )
    R = np.array([[1.0, 0.3], [0.3, 0.7]])
    cost = CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=R, horizon=horizon)
    cov = np.array([[0.02, 0.004], [0.004, 0.01]])
    nominal = NominalDistribution((MomentPair(np.array([0.93, -0.51]), cov),) * horizon)
    x0_dist = gaussian_scenario.initial_state
    p0 = initial_posterior_cov(x0_dist, sys)
    lam_min = min_feasible_lambda(sys, cost, 1e-3, 1e6)
    lams = [lam_min * 1.5**j for j in range(1, 17)]
    ctrls = synthesize_wdrcs(sys, cost, nominal, lams, p0)
    assert all(isinstance(ctrl, WdrcController) for ctrl in ctrls)
    for theta in (0.1, 0.0):
        stacked = certified_bounds(ctrls, sys, cost, x0_dist, theta)
        alone = [certified_bounds([ctrl], sys, cost, x0_dist, theta)[0] for ctrl in ctrls]
        assert stacked == alone


@pytest.mark.parametrize(
    "name, lam",
    [("gaussian", None), ("uniform", None), ("gaussian", 4.0)],
    ids=["gaussian", "uniform", "gaussian-pinned"],
)
def test_calibration_schedules_converge_and_memoize_stationary_stages(
    name, lam, monkeypatch
):
    """Every schedule the stacked forward passes of synthesis return has
    only converged stages, whether calibration scans the penalties or
    the penalty is pinned (at 4.0, as in the rollout benchmark); with
    the stationary gaussian nominal the stages that reach steady state
    share a memoized solve, and with the per-stage uniform nominal no
    two stages share one."""
    import wdrc.controller

    stacked, schedules = wdrc.controller.forward_schedules, []

    def recording(*args, **kwargs):
        out = stacked(*args, **kwargs)
        schedules.extend(s for s in out if not isinstance(s, Diverged))
        return out

    monkeypatch.setattr(wdrc.controller, "forward_schedules", recording)
    cfg, scenario, nominal, p0 = _bundled(name, None)
    ctrl, cal = robust_policy(cfg, scenario, nominal, p0, override=lam)
    assert (cal is None) == (lam is not None)
    assert any(s is ctrl.schedule for s in schedules)
    stages = sum(len(s.solves) for s in schedules)
    unique = sum(len({id(x) for x in s.solves}) for s in schedules)
    assert all(x.converged for s in schedules for x in s.solves)
    assert stages == cfg.cost.horizon * len(schedules)
    if name == "gaussian":
        assert unique < stages
    else:
        assert unique == stages


@pytest.mark.parametrize("seed", [2803, 2821])
def test_calibration_converges_every_stage_at_slow_scenario_seeds(seed, monkeypatch):
    """On uniform with a per-stage nominal at these scenario seeds a stage
    of ``lam_min`` ran the projected-gradient fallback for 5,000 steps
    without converging, so ``lam_min`` scored infinity.  With Newton
    steps every stage of every calibration schedule converges, and every
    scanned penalty scores a finite bound."""
    import wdrc.controller

    stacked, schedules = wdrc.controller.forward_schedules, []

    def recording(*args, **kwargs):
        out = stacked(*args, **kwargs)
        schedules.extend(out)
        return out

    monkeypatch.setattr(wdrc.controller, "forward_schedules", recording)
    cfg, scenario, nominal, _ = _bundled("uniform", seed)
    cal = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    assert not any(isinstance(s, Diverged) for s in schedules)
    assert all(x.converged for s in schedules for x in s.solves)
    assert all(math.isfinite(value) for _, value in cal.evaluations)


def test_scan_scores_a_diverging_penalty_infinite(monkeypatch):
    """A penalty whose stage raises ``Diverged`` in the stacked scan
    scores infinity; every other scanned penalty keeps its value."""
    import wdrc.worstcase

    cfg, scenario, nominal, _ = _bundled("gaussian", None)
    before = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    lam_min = before.evaluations[0][0]
    targets = {lam_min, before.evaluations[16][0]}
    refused = set()
    settle = wdrc.worstcase._settle

    def refuse(st, init):
        out = settle(st, init)
        for q, lam in enumerate(st.lam):
            if lam in targets:
                refused.add(lam)
                out[q] = Diverged("refused")
        return out

    monkeypatch.setattr(wdrc.worstcase, "_settle", refuse)
    after = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    assert lam_min in refused
    for (lam, old), (lam_after, new) in zip(
        before.evaluations[:33], after.evaluations[:33]
    ):
        assert lam == lam_after
        assert new == (math.inf if lam in refused else old)
