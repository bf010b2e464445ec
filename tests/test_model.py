"""Problem data types, sampling streams, and nominal estimation."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wdrc.errors import DimMismatch, EmptySamples, NotPD, NotPSD
from wdrc.harness import _BLOCK, load_config
from wdrc.model import (
    STREAM_RUN,
    CostSpec,
    GaussianSpec,
    LinearSystem,
    ScenarioSpec,
    UniformSpec,
    draw_nominal_samples,
    draw_realization,
    draw_realizations,
    estimate_nominal,
    split_stream,
)
from wdrc.model import _run_keys
from wdrc.psdmath import psd_sqrt


def test_linear_system_dims(plant):
    assert (plant.n_x, plant.n_u, plant.n_y) == (2, 1, 1)
    assert not plant.A.flags.writeable


def test_linear_system_rejects_bad_shapes():
    with pytest.raises(DimMismatch):
        LinearSystem(A=0.5, B=np.ones((1, 1)), C=np.ones((1, 1)), M=np.eye(1))
    with pytest.raises(DimMismatch):
        LinearSystem(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)), M=np.eye(1))
    with pytest.raises(DimMismatch):
        LinearSystem(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)), M=np.eye(1))
    with pytest.raises(NotPSD):
        LinearSystem(
            A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)), M=-np.eye(1)
        )


def test_cost_spec_validation():
    with pytest.raises(NotPSD):
        CostSpec(Q=-np.eye(2), Q_f=np.eye(2), R=np.eye(1), horizon=3)
    with pytest.raises(NotPD):
        CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=np.zeros((1, 1)), horizon=3)
    with pytest.raises(DimMismatch):
        CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=np.eye(2)[None], horizon=3)
    with pytest.raises(ValueError):
        CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=np.eye(1), horizon=0)


def test_gaussian_spec_sampling_moments():
    spec = GaussianSpec(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    rng = np.random.default_rng(7)
    draws = spec.sample(rng, 200_000)
    assert np.allclose(draws.mean(axis=0), spec.mean(), atol=0.02)
    centered = draws - draws.mean(axis=0)
    cov = centered.T @ centered / draws.shape[0]
    assert np.allclose(cov, spec.cov(), atol=0.03)


def test_uniform_spec_moments_match_samples():
    spec = UniformSpec(np.array([-1.0, 2.0]), np.array([3.0, 2.5]))
    assert np.allclose(spec.mean(), [1.0, 2.25])
    assert np.allclose(spec.cov(), np.diag([16.0 / 12.0, 0.25 / 12.0]))
    rng = np.random.default_rng(8)
    draws = spec.sample(rng, 200_000)
    assert np.allclose(draws.mean(axis=0), spec.mean(), atol=0.02)
    assert np.all(draws.min(axis=0) >= spec.lo)
    assert np.all(draws.max(axis=0) <= spec.hi)


def test_uniform_spec_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        UniformSpec(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize(
    "lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (-1e308, 1e308)]
)
def test_uniform_spec_rejects_unbounded_boxes(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        UniformSpec(np.array([0.0, lo]), np.array([1.0, hi]))


def test_estimate_nominal_small_sample_exact():
    samples = np.array([[1.0, 0.0], [3.0, 4.0]])
    nominal = estimate_nominal([samples])
    assert np.allclose(nominal.mean(0), [2.0, 2.0])
    # Second central moment normalized by N, not N - 1.
    assert np.allclose(nominal.cov(0), [[1.0, 2.0], [2.0, 4.0]])


def test_estimate_nominal_single_sample_zero_cov():
    nominal = estimate_nominal([np.array([[0.5, -0.5]])])
    assert np.allclose(nominal.cov(0), np.zeros((2, 2)))


def test_estimate_nominal_rejects_empty():
    with pytest.raises(EmptySamples):
        estimate_nominal([np.zeros((0, 2))])
    with pytest.raises(EmptySamples):
        estimate_nominal([])


def test_split_stream_reproducible_and_keyed():
    a1 = split_stream(42, 1, 7).standard_normal(4)
    a2 = split_stream(42, 1, 7).standard_normal(4)
    b = split_stream(42, 1, 8).standard_normal(4)
    c = split_stream(43, 1, 7).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_draw_realization_reproducible(plant, gaussian_scenario):
    r1 = draw_realization(gaussian_scenario, plant, 10, run=3)
    r2 = draw_realization(gaussian_scenario, plant, 10, run=3)
    r3 = draw_realization(gaussian_scenario, plant, 10, run=4)
    assert np.array_equal(r1.x0, r2.x0)
    assert np.array_equal(r1.w, r2.w)
    assert np.array_equal(r1.v, r2.v)
    assert not np.array_equal(r1.w, r3.w)
    assert r1.w.shape == (10, 2)
    assert r1.v.shape == (11, 1)


def test_draws_use_factors_computed_once(plant, gaussian_scenario):
    """Gaussian draws go through the factor computed on construction,
    and a run's noise through the scenario's noise law; both give the
    draws of a factor and a noise law built afresh for every draw."""
    spec = gaussian_scenario.true_disturbance
    assert np.array_equal(spec.factor, psd_sqrt(spec.cov_mat))
    rng, ref = split_stream(5, 1), split_stream(5, 1)
    z = ref.standard_normal((4, 2))
    assert np.array_equal(
        spec.sample(rng, 4), spec.mean_vec + z @ psd_sqrt(spec.cov_mat).T
    )

    real = draw_realization(gaussian_scenario, plant, 10, run=3)
    rng = split_stream(gaussian_scenario.seed, STREAM_RUN, 3)
    gaussian_scenario.initial_state.sample(rng, 1)
    gaussian_scenario.true_disturbance.sample(rng, 10)
    noise = GaussianSpec(np.zeros(plant.n_y), plant.M)
    assert np.array_equal(real.v, noise.sample(rng, 11))


def _per_run_reference(scenario, sys, horizon, start, count):
    """Each run's stream from ``split_stream``, then each law's ``sample``
    in draw order, the noise's from the plant's ``M``, stacked."""
    noise = GaussianSpec(np.zeros(sys.n_y), sys.M)
    x0s, ws, vs = [], [], []
    for run in range(start, start + count):
        rng = split_stream(scenario.seed, STREAM_RUN, run)
        x0s.append(scenario.initial_state.sample(rng, 1)[0])
        ws.append(scenario.true_disturbance.sample(rng, horizon))
        vs.append(noise.sample(rng, horizon + 1))
    return np.stack(x0s), np.stack(ws), np.stack(vs)


def _uniform_scenario(seed):
    return ScenarioSpec(
        true_disturbance=UniformSpec(np.array([-0.05, -0.1]), np.array([0.05, 0.3])),
        initial_state=UniformSpec(np.array([0.1, 0.2]), np.array([0.3, 0.5])),
        sample_count=5,
        seed=seed,
    )


def test_uniform_sample_is_generator_uniform():
    """A uniform law's draws are those of ``Generator.uniform``."""
    spec = _uniform_scenario(0).true_disturbance
    rng, ref = split_stream(5, 1), split_stream(5, 1)
    assert np.array_equal(spec.sample(rng, 7), ref.uniform(spec.lo, spec.hi, (7, 2)))


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
@pytest.mark.parametrize(
    "start, count",
    [(0, 1), (0, 1100), (1000, 1100), (255, 514), (2**32 - 700, 1300)],
    ids=[
        "one",
        "crosses-block",
        "unaligned-start",
        "inside-sub-blocks",
        "crosses-2**32",
    ],
)
def test_draw_realizations_equal_per_run_streams(
    plant, gaussian_scenario, law, start, count
):
    scenario = gaussian_scenario if law == "gaussian" else _uniform_scenario(7)
    got = draw_realizations(scenario, plant, 3, start, count)
    want = _per_run_reference(scenario, plant, 3, start, count)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    real = draw_realization(scenario, plant, 3, start + count - 1)
    assert np.array_equal(real.x0, want[0][-1])
    assert np.array_equal(real.w, want[1][-1])
    assert np.array_equal(real.v, want[2][-1])


def test_draw_realizations_with_non_diagonal_factors(plant):
    """Every law with a non-diagonal factor, the initial state's one-row
    products and a two-output plant's noise included, draws each run's
    ``z @ factor.T + mean`` from its stream's standard normals, across a
    sub-block edge."""
    sys = replace(
        plant,
        C=np.array([[1.023, 1.955], [0.5, -0.3]]),
        M=np.array([[0.2, 0.05], [0.05, 0.1]]),
    )
    scenario = ScenarioSpec(
        true_disturbance=GaussianSpec(
            np.array([0.01, -0.02]), np.array([[0.02, -0.007], [-0.007, 0.01]])
        ),
        initial_state=GaussianSpec(
            np.array([-1.0, 0.5]), np.array([[0.3, 0.12], [0.12, 0.1]])
        ),
        sample_count=5,
        seed=9,
    )
    noise = GaussianSpec(np.zeros(sys.n_y), sys.M)
    laws = (scenario.initial_state, scenario.true_disturbance, noise)
    for law in laws:
        assert np.count_nonzero(law.factor - np.diag(np.diag(law.factor)))
    horizon, start, count = 4, 250, 12
    got = draw_realizations(scenario, sys, horizon, start, count)
    for i, run in enumerate(range(start, start + count)):
        rng = split_stream(scenario.seed, STREAM_RUN, run)
        for law, rows, draws in zip(laws, (1, horizon, horizon + 1), got):
            want = rng.standard_normal((rows, law.dim)) @ law.factor.T + law.mean_vec
            assert np.array_equal(draws[i].reshape(rows, law.dim), want)


@pytest.mark.parametrize("law", ["gaussian", "uniform"])
def test_draw_realizations_of_no_runs_are_empty(plant, gaussian_scenario, law):
    scenario = gaussian_scenario if law == "gaussian" else _uniform_scenario(7)
    x0s, w, v = draw_realizations(scenario, plant, 3, 5, 0)
    assert (x0s.shape, w.shape, v.shape) == ((0, 2), (0, 3, 2), (0, 4, 1))


def test_draw_realizations_hold_little_beyond_their_outputs():
    """Drawing one campaign block of ``gaussian.yaml`` allocates less than
    a fifth of its outputs' bytes beyond them: the standardized numbers
    are buffered one sub-block of runs at a time, not for the block."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "gaussian.yaml")
    horizon = cfg.cost.horizon
    draw_realizations(cfg.scenario, cfg.sys, horizon, 0, 2)  # one-time allocations
    tracemalloc.start()
    try:
        draws = draw_realizations(cfg.scenario, cfg.sys, horizon, 0, _BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.size for a in draws) * 8
    assert outputs == _BLOCK * (2 + horizon * 2 + (horizon + 1) * 1) * 8
    assert peak - outputs < outputs / 5, (peak, outputs)


def test_one_dimensional_gaussian_from_unit_is_matmul_bit_for_bit():
    """A one-dimensional law maps its numbers column by column, with the
    bits of ``matmul`` plus the mean, also for zero products of either
    sign and a mean of -0.0."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((300, 51, 1))
    z[rng.random(z.shape) < 0.05] = 0.0
    z[rng.random(z.shape) < 0.05] = -0.0
    for mean, cov in (([0.0], [[0.2]]), ([-0.0], [[0.2]]), ([0.3], [[0.0]])):
        law = GaussianSpec(np.array(mean), np.array(cov))
        out = np.swapaxes(np.empty((51, 300, 1)), 0, 1)
        want = np.matmul(z, law.factor.T, out=np.empty_like(z)) + law.mean_vec
        assert law.from_unit(z, out=out).tobytes() == want.tobytes()
        assert law.from_unit(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**130 + 7])
def test_run_keys_equal_seed_sequence_states(seed):
    """The vectorized key derivation is numpy's SeedSequence mixing, also
    for a seed with more 32-bit words than the four-word pool and for
    run indices that take a second word."""
    runs = [0, 1, 1023, 1024, 99_999, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
    keys = _run_keys(seed, np.array(runs, dtype=np.uint64))
    for run, key in zip(runs, keys):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_RUN, run))
        assert np.array_equal(key, ss.generate_state(2, np.uint64))


def test_draw_realizations_rejects_runs_outside_uint64(plant, gaussian_scenario):
    with pytest.raises(ValueError, match="2\\*\\*64"):
        draw_realizations(gaussian_scenario, plant, 3, -1, 2)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        draw_realizations(gaussian_scenario, plant, 3, 2**64 - 1, 2)


def test_nominal_samples_shared_by_default(gaussian_scenario):
    sets = draw_nominal_samples(gaussian_scenario, horizon=4)
    assert len(sets) == 4
    assert all(s is sets[0] for s in sets)
    per_stage = draw_nominal_samples(gaussian_scenario, horizon=4, per_stage=True)
    assert not np.array_equal(per_stage[0], per_stage[1])


def test_scenario_validation(gaussian_scenario):
    with pytest.raises(ValueError):
        ScenarioSpec(
            true_disturbance=gaussian_scenario.true_disturbance,
            initial_state=gaussian_scenario.initial_state,
            sample_count=0,
        )
    with pytest.raises(ValueError, match="seed"):
        replace(gaussian_scenario, seed=-1)
