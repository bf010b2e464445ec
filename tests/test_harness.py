"""Campaign configuration, batched rollouts, statistics, and reports."""

import concurrent.futures
import copy
import json
import os
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as hs

from wdrc.bounds import calibrate_lambda, certified_bounds
from wdrc.controller import WdrcController, lqg_gains, synthesize_wdrc
from wdrc.errors import ConfigError
from wdrc.estimator import initial_posterior_cov, kalman_gain
from wdrc.harness import (
    _BLOCK,
    CostStatistics,
    _draw_block,
    _quad_form,
    _roll_batch,
    _simulate_chunk,
    build_histogram,
    config_from_dict,
    emit_reports,
    load_config,
    paired_mean_z,
    paired_std_z,
    prepare,
    run_campaign,
    simulate_paired,
    trace_run,
)
from wdrc.model import draw_nominal_samples, estimate_nominal, matmul_rows
from wdrc.oracles import run_closed_loop


def base_config() -> dict:
    return {
        "plant": {
            "A": [[0.518, 0.266], [0.405, 0.806]],
            "B": [[-2.972], [-2.271]],
            "C": [[1.023, 1.955]],
            "M": [[0.2]],
        },
        "cost": {
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "Q_f": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "horizon": 12,
        },
        "robustness": {"theta": 0.1, "lam": 4.0},
        "scenario": {
            "true_disturbance": {
                "type": "gaussian",
                "mean": [0.01, 0.02],
                "cov": [[0.01, 0.005], [0.005, 0.01]],
            },
            "initial_state": {
                "type": "gaussian",
                "mean": [-1.0, -1.0],
                "cov": [[0.001, 0.0], [0.0, 0.001]],
            },
            "sample_count": 5,
            "seed": 3,
        },
        "runs": 8,
        "histogram_bins": 5,
    }


def put(raw: dict, value, *path: str) -> dict:
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def drop(raw: dict, *path: str) -> dict:
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return raw


def test_valid_config_parses():
    cfg = config_from_dict(base_config())
    assert cfg.sys.n_x == 2 and cfg.sys.n_u == 1 and cfg.sys.n_y == 1
    assert cfg.cost.horizon == 12
    assert cfg.lam == 4.0
    assert cfg.runs == 8
    assert cfg.echo == base_config()


def test_lam_auto_maps_to_none():
    raw = base_config()
    raw["robustness"]["lam"] = "auto"
    assert config_from_dict(raw).lam is None
    del raw["robustness"]["lam"]
    assert config_from_dict(raw).lam is None


@pytest.mark.parametrize(
    "text, value",
    [("4e0", 4.0), ("1e1", 10.0), ("abc", None), (".inf", None), ("0e0", None)],
)
def test_lam_accepts_yaml_exponent_forms(text, value):
    """YAML 1.1 reads ``4e0`` as a string; it is still a number."""
    raw = base_config()
    raw["robustness"] = yaml.safe_load(f"{{theta: 0.1, lam: {text}}}")
    if value is not None:
        assert config_from_dict(raw).lam == value
        return
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "robustness.lam"


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda r: drop(r, "plant"), "plant"),
        (lambda r: drop(r, "cost", "horizon"), "cost.horizon"),
        (lambda r: drop(r, "scenario", "true_disturbance"), "scenario.true_disturbance"),
        (
            lambda r: {**r, "robustness": {**r["robustness"], "lam": "tiny"}},
            "robustness.lam",
        ),
        (
            lambda r: {**r, "robustness": {**r["robustness"], "lam": -2.0}},
            "robustness.lam",
        ),
        (
            lambda r: {**r, "robustness": {**r["robustness"], "theta": -0.1}},
            "robustness.theta",
        ),
        (lambda r: {**r, "runs": 0}, "runs"),
        (lambda r: {**r, "histogram_bins": 0}, "histogram_bins"),
        (lambda r: {**r, "output_dir": 5}, "output_dir"),
        (lambda r: {**r, "output_dir": ["reports"]}, "output_dir"),
        (lambda r: {**r, "per_stage_nominal": "false"}, "per_stage_nominal"),
        (lambda r: {**r, "per_stage_nomimal": True}, "per_stage_nomimal"),
        (lambda r: {**r, "plant": {**r["plant"], "D": [[0.0]]}}, "plant.D"),
        (lambda r: {**r, "cost": {**r["cost"], "Qf": [[1.0]]}}, "cost.Qf"),
        (
            lambda r: {**r, "robustness": {**r["robustness"], "thetta": 0.5}},
            "robustness.thetta",
        ),
        (
            lambda r: {**r, "scenario": {**r["scenario"], "samples": 5}},
            "scenario.samples",
        ),
        (
            lambda r: {
                **r,
                "scenario": {
                    **r["scenario"],
                    "initial_state": {
                        **r["scenario"]["initial_state"], "sigma": [[1.0]]
                    },
                },
            },
            "scenario.initial_state.sigma",
        ),
        (
            lambda r: {
                **r,
                "scenario": {
                    **r["scenario"],
                    "true_disturbance": {"type": "uniform", "lo": [0, 0], "high": [1, 1]},
                },
            },
            "scenario.true_disturbance.high",
        ),
        # A vector entry is one flat list, never flattened from a column,
        # a row or a number.
        *[
            (
                lambda r, mean=mean: put(r, mean, "scenario", "initial_state", "mean"),
                "scenario.initial_state.mean",
            )
            for mean in ([[-1.0], [-1.0]], [[-1.0, -1.0]], -1.0)
        ],
    ],
)
def test_config_errors_carry_field_paths(mutate, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(mutate(base_config()))
    assert err.value.field == field


@pytest.mark.parametrize(
    "path, value",
    [
        (("cost", "horizon"), 2.7),
        (("cost", "horizon"), 0),
        (("scenario", "sample_count"), False),
        (("scenario", "sample_count"), 0),
        (("scenario", "seed"), 3.5),
        (("scenario", "seed"), -3),
        (("scenario", "seed"), None),
        (("runs",), True),
        (("runs",), 8.0),
        (("histogram_bins",), "5"),
    ],
)
def test_config_integers_reject_other_types_and_out_of_range(path, value):
    raw = base_config()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == ".".join(path)


def test_unknown_distribution_type_is_rejected():
    raw = base_config()
    raw["scenario"]["true_disturbance"] = {"type": "poisson", "rate": 2.0}
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "scenario.true_disturbance.type"


def test_dimension_cross_checks():
    raw = base_config()
    raw["scenario"]["initial_state"] = {
        "type": "gaussian",
        "mean": [0.0, 0.0, 0.0],
        "cov": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "scenario.initial_state"


@pytest.mark.parametrize(
    "noise_cov", [[[0.2, 0.0], [0.0, 0.2]], [[0.2, 0.1]], [0.2], [[0.2]], [[1.0]]]
)
def test_noise_cov_must_match_plant_outputs(noise_cov):
    """Simulation and certificate both draw the measurement noise from
    the plant's ``M``; the scenario has no noise of its own, so any
    ``noise_cov``, of whatever shape, is rejected as an unknown key."""
    raw = base_config()
    raw["scenario"]["noise_cov"] = noise_cov
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "scenario.noise_cov"


@pytest.mark.parametrize(
    "entries, field",
    [
        ({"Q": np.eye(3).tolist(), "Q_f": np.eye(3).tolist()}, "cost.Q"),
        ({"R": np.eye(2).tolist()}, "cost.R"),
    ],
    ids=["Q", "R"],
)
def test_cost_weights_must_match_plant_dimensions(entries, field):
    raw = base_config()
    raw["cost"].update(entries)
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == field


def test_non_numeric_matrix_is_rejected():
    raw = base_config()
    raw["plant"]["A"] = [["x", 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == "plant.A"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("robustness", "theta", "big"),
        ("robustness", "theta", float("nan")),
        ("robustness", "lam", True),
        ("robustness", "lam", float("inf")),
    ],
)
def test_non_numeric_entries_are_rejected(section, key, value):
    raw = base_config()
    raw[section][key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.field == f"{section}.{key}"


def test_load_config_round_trip(tmp_path):
    import yaml

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(base_config()))
    cfg = load_config(str(path))
    assert cfg.cost.horizon == 12

    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigError):
        load_config(str(missing))

    bad = tmp_path / "bad.yaml"
    bad.write_text("plant: [unbalanced\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_cost_statistics_hand_case():
    stats = CostStatistics.from_costs(np.array([1.0, 2.0, 3.0, 4.0]))
    assert stats.mean == pytest.approx(2.5)
    assert stats.std_dev == pytest.approx(np.sqrt(5.0 / 3.0))
    assert stats.minimum == 1.0
    assert stats.maximum == 4.0
    assert stats.count == 4
    single = CostStatistics.from_costs(np.array([7.0]))
    assert single.std_dev == 0.0


def test_paired_mean_z_hand_case():
    baseline = np.array([2.0, 4.0, 6.0])
    candidate = np.array([1.0, 2.0, 3.0])
    # Differences [1, 2, 3]: mean 2, sample std 1, se 1/sqrt(3).
    assert paired_mean_z(baseline, candidate) == pytest.approx(2.0 * np.sqrt(3.0))
    assert paired_mean_z(candidate, baseline) == pytest.approx(-2.0 * np.sqrt(3.0))


def test_paired_std_z_detects_variance_ordering():
    rng = np.random.default_rng(50)
    shared = rng.standard_normal(4000)
    wide = 2.0 * shared + 0.1 * rng.standard_normal(4000)
    narrow = shared + 0.1 * rng.standard_normal(4000)
    assert paired_std_z(wide, narrow) > 10.0
    assert paired_std_z(narrow, wide) < -10.0


def test_paired_std_z_uses_variance_gap_identity():
    rng = np.random.default_rng(51)
    a = rng.standard_normal(500) * 1.7 + 0.3
    b = a * 0.4 + rng.standard_normal(500) * 0.2
    u = (a + b) - (a + b).mean()
    w = (a - b) - (a - b).mean()
    assert np.isclose((u * w).mean(), a.var() - b.var())


def test_build_histogram_hand_case():
    edges, counts = build_histogram(2, np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(edges, [0.0, 1.5, 3.0])
    assert counts[0].tolist() == [2, 2]


def test_build_histogram_pools_ranges_and_conserves_counts():
    a = np.array([0.0, 2.0, 4.0])
    b = np.array([10.0, 12.0])
    edges, counts = build_histogram(4, a, b)
    assert edges[0] == 0.0 and edges[-1] == 12.0
    assert counts[0].sum() == a.size
    assert counts[1].sum() == b.size


def test_build_histogram_degenerate_range():
    edges, counts = build_histogram(3, np.array([5.0, 5.0, 5.0]))
    assert edges[0] == 5.0 and edges[-1] == 6.0
    assert counts[0].sum() == 3


@pytest.fixture(scope="module")
def small_setup():
    cfg = config_from_dict(base_config())
    nominal = estimate_nominal(
        draw_nominal_samples(cfg.scenario, cfg.cost.horizon)
    )
    p0 = initial_posterior_cov(cfg.scenario.initial_state, cfg.sys)
    wdrc_ctrl = synthesize_wdrc(cfg.sys, cfg.cost, nominal, 4.0, p0)
    lqg_ctrl = lqg_gains(cfg.sys, cfg.cost, nominal, p0)
    return cfg, wdrc_ctrl, lqg_ctrl


def test_batched_rollouts_match_single_runs(small_setup):
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    wdrc_costs, lqg_costs = simulate_paired(
        [wdrc_ctrl, lqg_ctrl], cfg.scenario, cfg.sys, cfg.cost, runs=6
    )
    for run in range(6):
        for ctrl, costs in ((wdrc_ctrl, wdrc_costs), (lqg_ctrl, lqg_costs)):
            ref = run_closed_loop(ctrl, cfg.scenario, cfg.sys, cfg.cost, run)
            assert costs[run] == pytest.approx(ref.realized_cost, rel=1e-10)
            # The stage record of the same loop on a batch of one.
            got = trace_run(ctrl, cfg.scenario, cfg.sys, cfg.cost, run)
            assert got["state"] == pytest.approx(ref.states, rel=1e-10)
            assert got["input"] == pytest.approx(ref.inputs, rel=1e-10)
            assert got["belief_mean"] == pytest.approx(ref.belief_means, rel=1e-10)
            assert got["belief_cov"] == pytest.approx(ref.belief_covs, rel=1e-10)
            if ctrl is wdrc_ctrl:
                wc_means = np.stack([stage.mean for stage in ref.worst_case])
                assert got["worst_case_mean"] == pytest.approx(wc_means, rel=1e-10)
            else:
                assert "worst_case_mean" not in got
                assert np.array_equal(ref.belief_covs, lqg_ctrl.post_covs)


def _assert_split_keeps_costs(cfg, ctrls, runs, jobs_options):
    serial = simulate_paired(ctrls, cfg.scenario, cfg.sys, cfg.cost, runs, jobs=1)
    for jobs in jobs_options:
        parallel = simulate_paired(ctrls, cfg.scenario, cfg.sys, cfg.cost, runs, jobs)
        for a, b in zip(serial, parallel):
            assert a.tobytes() == b.tobytes(), f"jobs={jobs}"


def test_worker_count_does_not_change_results(small_setup):
    """Chunks of 4/4/2 and of 3/3/3/1 runs: a one-run chunk rounds like
    every other batch."""
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    _assert_split_keeps_costs(cfg, [wdrc_ctrl, lqg_ctrl], 10, (3, 4))


def test_jobs_is_a_ceiling_on_worker_processes(small_setup, monkeypatch):
    """A pool starts all its workers at once, so ``jobs`` far above the
    runs and CPUs starts no more than those, and each worker gets one
    chunk; the stand-in pool records its size and its tasks and maps
    serially, so no process starts."""
    sizes, task_counts = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            task_counts.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    ctrls = [wdrc_ctrl, lqg_ctrl]
    serial = simulate_paired(ctrls, cfg.scenario, cfg.sys, cfg.cost, 8, jobs=1)
    clamped = simulate_paired(ctrls, cfg.scenario, cfg.sys, cfg.cost, 8, jobs=10**6)
    workers = min(8, os.cpu_count() or 1)
    assert sizes == [workers]
    assert task_counts == [workers]
    for a, b in zip(serial, clamped):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(("runs", "jobs"), [(0, 1), (0, 2), (4, 0)])
def test_simulate_paired_rejects_no_runs_or_no_jobs(small_setup, runs, jobs):
    cfg, _, lqg_ctrl = small_setup
    name = "runs" if runs < 1 else "jobs"
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        simulate_paired([lqg_ctrl], cfg.scenario, cfg.sys, cfg.cost, runs, jobs=jobs)


@pytest.mark.parametrize("runs", [_BLOCK + 1, 2 * _BLOCK + 1], ids=["B+1", "2B+1"])
def test_runs_across_block_edges_do_not_depend_on_the_split(small_setup, runs):
    """Serial blocks end in a one-run block; two and three workers cut
    the runs elsewhere, inside and at block edges."""
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    _assert_split_keeps_costs(cfg, [wdrc_ctrl, lqg_ctrl], runs, (2, 3))


def test_a_chunk_holds_one_block_of_draws_at_a_time(small_setup):
    """A chunk of three blocks peaks where a chunk of one does: each
    block's draws are dropped before the next block is drawn."""
    cfg, _, lqg_ctrl = small_setup
    init_gain = kalman_gain(cfg.scenario.initial_state.cov(), cfg.sys)
    block = _draw_block(cfg.scenario, cfg.sys, cfg.cost.horizon, 0, _BLOCK)
    block_bytes = sum(a.nbytes for a in block)

    def peak(blocks):
        count = blocks * _BLOCK
        args = (0, count, [lqg_ctrl], init_gain, cfg.scenario, cfg.sys, cfg.cost)
        tracemalloc.start()
        try:
            _simulate_chunk(args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # Outside the comparison: a first call's one-time allocations.
    growth = peak(3) - peak(1)
    assert growth < 0.1 * block_bytes, (growth, block_bytes)


def test_trace_run_is_the_campaign_row_bit_for_bit(small_setup):
    """The traced run of a batch of one is that run's row of a larger
    batch, bit for bit."""
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    x0_dist = cfg.scenario.initial_state
    init_gain = kalman_gain(x0_dist.cov(), cfg.sys)
    block = _draw_block(cfg.scenario, cfg.sys, cfg.cost.horizon, 0, 10)
    fields = ("state", "observation", "belief_mean", "input", "worst_case_mean")
    for ctrl in (wdrc_ctrl, lqg_ctrl):
        stages: list = []
        _roll_batch(ctrl, init_gain, cfg.sys, cfg.cost, x0_dist, *block, stages)
        for run in (0, 7):
            trace = trace_run(ctrl, cfg.scenario, cfg.sys, cfg.cost, run)
            for k, key in enumerate(fields):
                if key not in trace:
                    continue
                want = np.stack([row[k][run] for row in stages if k < len(row)])
                assert trace[key].tobytes() == want.tobytes(), key


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=hs.integers(1, 3),
    batch=hs.integers(1, 5000),
    seed=hs.integers(0, 2**32 - 1),
)
def test_quad_form_is_einsum_bit_for_bit(n, batch, seed):
    """The helper gives every row the bits einsum gives it in a batch of
    three rows or more, also for exact zeros, whose signs einsum's sum
    from zero fixes.  On one or two rows of 2-vectors einsum itself
    sums the two ``k`` terms of each ``j`` first, in another order."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((batch, n)) * 10.0 ** rng.integers(-3, 4, (batch, n))
    X[rng.random((batch, n)) < 0.05] = 0.0
    M = rng.standard_normal((n, n))
    tripled = np.concatenate([X, X, X])
    want = np.einsum("ij,jk,ik->i", tripled, M, tripled)[:batch]
    assert _quad_form(X, M).tobytes() == want.tobytes()
    if batch >= 3:
        assert want.tobytes() == np.einsum("ij,jk,ik->i", X, M, X).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    batch=hs.integers(2, 5000),
    stage_rows=hs.sampled_from([None, 1, 2, 51]),
    inner=hs.integers(1, 3),
    width=hs.integers(1, 3),
    transposed=hs.booleans(),
    seed=hs.integers(0, 2**32 - 1),
)
def test_matmul_rows_is_matmul_bit_for_bit(
    batch, stage_rows, inner, width, transposed, seed
):
    """The helper has the bits of ``X @ M`` on rows and on stacks of
    rows, for a contiguous ``M`` or a transposed view: the
    column-by-column product of inner dimension one also for zero
    products of either sign, which gemm adds into +0.0, and a wider
    product also for stacks of one-row products."""
    rng = np.random.default_rng(seed)
    shape = (batch, inner) if stage_rows is None else (batch, stage_rows, inner)
    X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    zeros = rng.random(shape) < 0.05
    X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    M = rng.standard_normal((width, inner)) * 10.0 ** rng.uniform(-3, 3, (width, inner))
    M[rng.random(M.shape) < 0.3] = 0.0
    M[rng.random(M.shape) < 0.3] = -0.0
    M = M.T if transposed else np.ascontiguousarray(M.T)
    want = X @ M
    assert matmul_rows(X, M).tobytes() == want.tobytes()
    out = np.moveaxis(np.empty((width, *shape[:-1])), 0, -1)
    assert matmul_rows(X, M, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_single_policy_simulation(small_setup):
    """A one-controller list returns that controller's array of the
    two-controller call: every controller sees the same draws."""
    cfg, wdrc_ctrl, lqg_ctrl = small_setup
    both = simulate_paired(
        [wdrc_ctrl, lqg_ctrl], cfg.scenario, cfg.sys, cfg.cost, runs=4
    )
    for ctrl, paired in zip((wdrc_ctrl, lqg_ctrl), both):
        (alone,) = simulate_paired([ctrl], cfg.scenario, cfg.sys, cfg.cost, runs=4)
        assert alone.shape == (4,)
        assert np.array_equal(alone, paired)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(config_from_dict(base_config()))


def test_campaign_populates_result(campaign):
    assert campaign.mode == "both"
    assert campaign.runs == 8
    assert campaign.lam == 4.0
    assert campaign.calibration is None
    assert campaign.certificate is not None
    assert campaign.certificate.lam == 4.0
    assert list(campaign.stats) == ["wdrc", "lqg"]
    assert campaign.stats["wdrc"].count == 8 and campaign.stats["lqg"].count == 8
    assert list(campaign.policies) == ["wdrc", "lqg"]
    assert campaign.policies["wdrc"].solution.lam == 4.0


@pytest.mark.parametrize("mode", ["wdrc", "lqg"])
def test_single_policy_campaign_reuses_the_paired_draws(campaign, mode):
    """A one-policy campaign simulates that policy on the draws of the
    paired campaign: its costs equal the paired ones bit for bit."""
    result = run_campaign(config_from_dict(base_config()), mode=mode)
    assert list(result.stats) == list(result.policies) == [mode]
    assert np.array_equal(result.stats[mode].costs, campaign.stats[mode].costs)


def test_calibrated_campaign_synthesizes_only_in_stacks(monkeypatch):
    """With ``lam: auto`` the robust controller comes from calibration,
    which synthesizes every penalty in stacked passes (``wdrc.bounds``
    does not import ``synthesize_wdrc``); the campaign reuses the
    controller at the calibrated penalty, bitwise equal to a fresh
    synthesis."""
    import wdrc.bounds
    import wdrc.harness

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return synthesize_wdrc(*args, **kwargs)

    assert not hasattr(wdrc.bounds, "synthesize_wdrc")
    monkeypatch.setattr(wdrc.harness, "synthesize_wdrc", counted)
    raw = base_config()
    raw["robustness"]["lam"] = "auto"
    cfg = config_from_dict(raw)
    result = run_campaign(cfg, runs=4)
    assert calls == []

    _, nominal, p0 = prepare(cfg)
    fresh = synthesize_wdrc(cfg.sys, cfg.cost, nominal, result.lam, p0)
    ctrl = result.policies["wdrc"]
    assert ctrl is result.calibration.controller
    assert result.lam == result.calibration.lam
    for field in ("P", "S", "r", "z", "K", "L"):
        assert np.array_equal(
            getattr(ctrl.solution, field), getattr(fresh.solution, field)
        )
    for field in ("post_covs", "gains"):
        assert np.array_equal(
            getattr(ctrl.schedule, field), getattr(fresh.schedule, field)
        )
    for mine, theirs in zip(ctrl.schedule.solves, fresh.schedule.solves):
        assert np.array_equal(mine.cov, theirs.cov)
        assert mine.z_tilde == theirs.z_tilde


def test_calibrated_campaign_certifies_only_in_calibration(monkeypatch):
    """Every certificate is computed in calibration: each synthesis pass
    certifies its feasible controllers in one stacked call, no penalty
    twice, every evaluation the search consumed is among them, and the
    campaign certifies nothing after calibration."""
    import wdrc.bounds
    import wdrc.harness

    calls, synthesized = [], []
    stacked = wdrc.bounds.synthesize_wdrcs

    def synthesizing(*args, **kwargs):
        ctrls = stacked(*args, **kwargs)
        synthesized.append(
            [ctrl.solution.lam for ctrl in ctrls if isinstance(ctrl, WdrcController)]
        )
        return ctrls

    def certifying(ctrls, *args, **kwargs):
        calls.append([ctrl.solution.lam for ctrl in ctrls])
        return certified_bounds(ctrls, *args, **kwargs)

    def calibrating(*args, **kwargs):
        result = calibrate_lambda(*args, **kwargs)
        calls.append("calibrated")
        return result

    # Every certificate goes through ``bounds.certified_bounds``.
    monkeypatch.setattr(wdrc.bounds, "synthesize_wdrcs", synthesizing)
    monkeypatch.setattr(wdrc.bounds, "certified_bounds", certifying)
    monkeypatch.setattr(wdrc.harness, "calibrate_lambda", calibrating)
    raw = base_config()
    raw["robustness"]["lam"] = "auto"
    result = run_campaign(config_from_dict(raw), runs=4)
    evaluations = result.calibration.evaluations
    assert all(np.isfinite(value) for _, value in evaluations)
    assert calls == [*synthesized, "calibrated"]
    certified = [lam for batch in synthesized for lam in batch]
    assert len(set(certified)) == len(certified)
    assert {lam for lam, _ in evaluations} <= set(certified)
    assert result.certificate.guaranteed_bound == result.calibration.objective
    assert result.certificate.kappa == result.calibration.dual.kappa


def test_campaign_seed_and_run_overrides():
    result = run_campaign(config_from_dict(base_config()), seed=11, runs=3)
    assert result.seed == 11
    assert result.runs == 3
    assert result.stats["wdrc"].count == 3


def test_campaign_rejects_bad_mode():
    with pytest.raises(ValueError):
        run_campaign(config_from_dict(base_config()), mode="fastest")


def test_campaign_lqg_only_mode():
    result = run_campaign(config_from_dict(base_config()), mode="lqg", runs=4)
    assert result.lam is None
    assert result.certificate is None
    assert list(result.stats) == list(result.policies) == ["lqg"]
    assert result.stats["lqg"].count == 4


def test_emit_reports_schema(campaign, tmp_path):
    out = tmp_path / "reports"
    paths = emit_reports(campaign, str(out))
    costs_lines = open(paths["costs"]).read().splitlines()
    assert costs_lines[0] == "run,wdrc_cost,lqg_cost"
    assert len(costs_lines) == campaign.runs + 1
    first = costs_lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == campaign.stats["wdrc"].costs[0]
    assert float(first[2]) == campaign.stats["lqg"].costs[0]

    hist_lines = open(paths["histogram"]).read().splitlines()
    assert hist_lines[0] == "bin_lo,bin_hi,wdrc_count,lqg_count"
    assert len(hist_lines) == campaign.config.histogram_bins + 1
    wdrc_total = sum(int(line.split(",")[2]) for line in hist_lines[1:])
    assert wdrc_total == campaign.runs

    summary = json.loads(open(paths["summary"]).read())
    assert summary["mode"] == "both"
    assert summary["runs"] == campaign.runs
    assert summary["lam"] == campaign.lam
    assert summary["config"] == base_config()
    assert summary["statistics"]["wdrc"]["mean"] == campaign.stats["wdrc"].mean
    assert summary["certificate"]["rho"] == campaign.certificate.rho
    assert "mean_z" in summary["paired_tests"]
    assert "calibration" not in summary


def test_summary_reports_bound_ingredients(campaign, tmp_path):
    cert = campaign.certificate
    paths = emit_reports(campaign, str(tmp_path / "reports"))
    reported = json.loads(open(paths["summary"]).read())["certificate"]
    assert reported["kappa"] == cert.kappa
    assert reported["w_kappa"] == cert.w_kappa
    assert reported["guaranteed_bound"] == cert.guaranteed_bound


def test_emit_reports_single_mode(tmp_path):
    result = run_campaign(config_from_dict(base_config()), mode="lqg", runs=4)
    paths = emit_reports(result, str(tmp_path / "lqg_reports"))
    costs_lines = open(paths["costs"]).read().splitlines()
    assert costs_lines[0] == "run,lqg_cost"
    summary = json.loads(open(paths["summary"]).read())
    assert "paired_tests" not in summary
    assert "certificate" not in summary
    assert list(summary["statistics"]) == ["lqg"]


def test_single_run_summary_is_strict_json(tmp_path):
    """One run has no paired standard error: the z-scores are null, not
    the NaN literal that strict JSON parsers reject."""
    result = run_campaign(config_from_dict(base_config()), runs=1)
    paths = emit_reports(result, str(tmp_path / "one"))

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = open(paths["summary"]).read()
    summary = json.loads(text, parse_constant=reject)
    assert summary["runs"] == 1
    assert summary["paired_tests"] == {"mean_z": None, "std_z": None}


def test_emit_reports_are_deterministic(campaign, tmp_path):
    first = emit_reports(campaign, str(tmp_path / "a"))
    second = emit_reports(campaign, str(tmp_path / "b"))
    for name in ("costs", "histogram", "summary"):
        assert (
            open(first[name], "rb").read() == open(second[name], "rb").read()
        )
