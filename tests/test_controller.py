"""Policy synthesis and the reference single-run closed-loop simulator."""

import json

import numpy as np
import pytest

from wdrc.controller import lqg_gains, synthesize_wdrc
from wdrc.estimator import BeliefState, covariance_path, initial_posterior_cov
from wdrc.harness import trace_run, write_trace
from wdrc.model import (
    GaussianSpec,
    NominalDistribution,
    draw_nominal_samples,
    draw_realization,
    estimate_nominal,
)
from wdrc.oracles import (
    ScheduleMismatch,
    control_input,
    lqr_gains,
    run_closed_loop,
    trace_cost,
)
from wdrc.psdmath import MomentPair


@pytest.fixture(scope="module")
def nominal(gaussian_scenario, quad_cost):
    return estimate_nominal(
        draw_nominal_samples(gaussian_scenario, quad_cost.horizon)
    )


@pytest.fixture(scope="module")
def wdrc_ctrl(plant, quad_cost, nominal, gaussian_scenario):
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    return synthesize_wdrc(plant, quad_cost, nominal, 4.0, p0)


@pytest.fixture(scope="module")
def lqg_ctrl(plant, quad_cost, nominal, gaussian_scenario):
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    return lqg_gains(plant, quad_cost, nominal, p0)


def test_lqg_zero_mean_matches_regulator(plant, quad_cost):
    zero = NominalDistribution(
        (MomentPair(np.zeros(2), 0.01 * np.eye(2)),) * quad_cost.horizon
    )
    ctrl = lqg_gains(plant, quad_cost, zero, np.eye(2))
    P_ref, K_ref = lqr_gains(plant, quad_cost)
    assert np.allclose(ctrl.P, P_ref, atol=1e-12)
    assert np.allclose(ctrl.K, K_ref, atol=1e-12)
    assert np.allclose(ctrl.r, 0.0)
    assert np.allclose(ctrl.L, 0.0)
    assert np.allclose(ctrl.z, 0.0)


def test_lqg_carries_nominal_filter_path(
    plant, quad_cost, nominal, gaussian_scenario, lqg_ctrl
):
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    feed = np.stack([nominal.cov(t) for t in range(quad_cost.horizon)])
    _, post_covs, gains = covariance_path(p0, feed, plant)
    assert np.array_equal(lqg_ctrl.post_covs, post_covs)
    assert np.array_equal(lqg_ctrl.gains, gains)


def test_lqg_value_satisfies_one_step_recursion(plant, quad_cost, lqg_ctrl):
    """With deterministic dynamics x+ = A x + B u + w_hat the affine
    value x' P x + 2 r' x + z must equal stage cost plus its own
    continuation at the synthesized input."""
    rng = np.random.default_rng(31)

    def value(t, x):
        return float(
            x @ lqg_ctrl.P[t] @ x + 2.0 * lqg_ctrl.r[t] @ x + lqg_ctrl.z[t]
        )

    for t in (0, 7, quad_cost.horizon - 1):
        for _ in range(5):
            x = rng.standard_normal(2)
            u = lqg_ctrl.K[t] @ x + lqg_ctrl.L[t]
            x_next = plant.A @ x + plant.B @ u + lqg_ctrl.nominal.mean(t)
            bellman = (
                float(x @ quad_cost.Q @ x)
                + float(u @ quad_cost.R @ u)
                + value(t + 1, x_next)
            )
            assert value(t, x) == pytest.approx(bellman, rel=1e-10, abs=1e-10)
            # No input perturbation may do better.
            for _ in range(4):
                u_alt = u + rng.standard_normal(1) * 0.3
                alt = (
                    float(x @ quad_cost.Q @ x)
                    + float(u_alt @ quad_cost.R @ u_alt)
                    + value(t + 1, plant.A @ x + plant.B @ u_alt + lqg_ctrl.nominal.mean(t))
                )
                assert alt >= value(t, x) - 1e-10


def test_control_input_is_affine():
    K = np.array([[1.0, -2.0]])
    L = np.array([0.5])
    belief = BeliefState(mean=np.array([3.0, 1.0]), cov=np.eye(2))
    assert np.allclose(control_input(K, L, belief), [1.5])


@pytest.mark.parametrize("mode_name", ["wdrc", "lqg"])
def test_trace_cost_recomputes_realized(
    mode_name, wdrc_ctrl, lqg_ctrl, plant, quad_cost, gaussian_scenario
):
    mode = wdrc_ctrl if mode_name == "wdrc" else lqg_ctrl
    trace = run_closed_loop(mode, gaussian_scenario, plant, quad_cost, run=3)
    assert trace_cost(trace, quad_cost) == pytest.approx(
        trace.realized_cost, rel=1e-12
    )
    assert trace.states.shape == (quad_cost.horizon + 1, 2)
    assert trace.inputs.shape == (quad_cost.horizon, 1)
    assert trace.run == 3
    assert trace.seed == gaussian_scenario.seed


def test_runs_are_deterministic(wdrc_ctrl, plant, quad_cost, gaussian_scenario):
    a = run_closed_loop(wdrc_ctrl, gaussian_scenario, plant, quad_cost, run=5)
    b = run_closed_loop(wdrc_ctrl, gaussian_scenario, plant, quad_cost, run=5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert a.realized_cost == b.realized_cost
    c = run_closed_loop(wdrc_ctrl, gaussian_scenario, plant, quad_cost, run=6)
    assert not np.array_equal(a.states, c.states)


def test_explicit_realization_matches_default(
    lqg_ctrl, plant, quad_cost, gaussian_scenario
):
    real = draw_realization(gaussian_scenario, plant, quad_cost.horizon, run=2)
    via_arg = run_closed_loop(
        lqg_ctrl, gaussian_scenario, plant, quad_cost, run=2, realization=real
    )
    via_seed = run_closed_loop(lqg_ctrl, gaussian_scenario, plant, quad_cost, run=2)
    assert np.array_equal(via_arg.states, via_seed.states)
    assert via_arg.realized_cost == via_seed.realized_cost


def test_huge_penalty_reduces_to_lqg(
    plant, quad_cost, nominal, gaussian_scenario, lqg_ctrl
):
    p0 = initial_posterior_cov(gaussian_scenario.initial_state, plant)
    robust = synthesize_wdrc(plant, quad_cost, nominal, 1e8, p0)
    assert np.allclose(robust.K, lqg_ctrl.K, atol=1e-6)
    assert np.allclose(robust.L, lqg_ctrl.L, atol=1e-6)
    for run in range(3):
        real = draw_realization(gaussian_scenario, plant, quad_cost.horizon, run)
        tr_r = run_closed_loop(
            robust, gaussian_scenario, plant, quad_cost, run, realization=real
        )
        tr_b = run_closed_loop(
            lqg_ctrl, gaussian_scenario, plant, quad_cost, run, realization=real
        )
        assert np.allclose(tr_r.inputs, tr_b.inputs, atol=1e-5)
        assert tr_r.realized_cost == pytest.approx(tr_b.realized_cost, rel=1e-5)


def test_worst_case_stages_follow_schedule(
    wdrc_ctrl, plant, quad_cost, gaussian_scenario
):
    trace = run_closed_loop(wdrc_ctrl, gaussian_scenario, plant, quad_cost, run=0)
    assert trace.worst_case is not None
    assert len(trace.worst_case) == quad_cost.horizon
    for t, stage in enumerate(trace.worst_case):
        assert np.array_equal(stage.cov, wdrc_ctrl.schedule.solves[t].cov)
        assert stage.converged


def test_schedule_mismatch_is_detected(plant, quad_cost, nominal, gaussian_scenario):
    other_x0 = GaussianSpec(np.array([-1.0, -1.0]), 0.5 * np.eye(2))
    p0_other = initial_posterior_cov(other_x0, plant)
    ctrl = synthesize_wdrc(plant, quad_cost, nominal, 4.0, p0_other)
    with pytest.raises(ScheduleMismatch):
        run_closed_loop(ctrl, gaussian_scenario, plant, quad_cost, run=0)


def test_horizon_mismatch_is_rejected(
    wdrc_ctrl, plant, quad_cost, gaussian_scenario
):
    short = quad_cost._replace(horizon=10)
    with pytest.raises(ValueError):
        run_closed_loop(wdrc_ctrl, gaussian_scenario, plant, short, run=0)


def test_write_trace_round_trips(
    tmp_path, wdrc_ctrl, plant, quad_cost, gaussian_scenario
):
    trace = trace_run(wdrc_ctrl, gaussian_scenario, plant, quad_cost, run=1)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == quad_cost.horizon + 1
    first = json.loads(lines[0])
    assert set(first) == {
        "t",
        "state",
        "observation",
        "belief_mean",
        "belief_cov",
        "input",
        "worst_case_mean",
        "worst_case_cov",
    }
    assert np.allclose(first["state"], trace["state"][0])
    last = json.loads(lines[-1])
    assert "input" not in last
    assert np.allclose(last["state"], trace["state"][-1])
