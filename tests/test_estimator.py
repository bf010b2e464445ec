"""Belief propagation: hand values, Joseph form, and PSD preservation."""

import numpy as np
import pytest

from conftest import random_psd
from wdrc.estimator import (
    BeliefState,
    covariance_path,
    init_belief,
    initial_posterior_cov,
    kalman_gain,
    kalman_update,
    predict,
    update,
)
from wdrc.model import GaussianSpec, LinearSystem, UniformSpec

SCALAR_SYS = LinearSystem(
    A=np.array([[1.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]), M=np.array([[1.0]])
)


def test_scalar_update_hand_values():
    """Prior (0, 1), C = M = 1, y = 2: gain 1/2, mean 1, cov 1/2."""
    prior = BeliefState(mean=np.array([0.0]), cov=np.array([[1.0]]))
    assert kalman_gain(prior.cov, SCALAR_SYS)[0, 0] == pytest.approx(0.5)
    post = update(prior, np.array([2.0]), SCALAR_SYS)
    assert post.mean[0] == pytest.approx(1.0)
    assert post.cov[0, 0] == pytest.approx(0.5)


def test_predict_propagates_moments():
    sys = LinearSystem(
        A=np.array([[2.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        M=np.array([[1.0]]),
    )
    belief = BeliefState(mean=np.array([1.0]), cov=np.array([[0.5]]))
    prior = predict(
        belief, np.array([3.0]), np.array([0.25]), np.array([[0.1]]), sys
    )
    assert prior.mean[0] == pytest.approx(2.0 + 3.0 + 0.25)
    assert prior.cov[0, 0] == pytest.approx(4.0 * 0.5 + 0.1)


def test_update_joseph_equals_direct(plant):
    rng = np.random.default_rng(11)
    for _ in range(50):
        cov = random_psd(rng, 2, jitter=1e-4)
        prior = BeliefState(mean=rng.standard_normal(2), cov=cov)
        post = update(prior, rng.standard_normal(1), plant)
        gain = kalman_gain(cov, plant)
        direct = cov - gain @ plant.C @ cov
        assert np.allclose(post.cov, direct, atol=1e-9)


def test_update_never_inflates_covariance(plant):
    rng = np.random.default_rng(12)
    for _ in range(50):
        cov = random_psd(rng, 2, jitter=1e-4)
        post = update(BeliefState(rng.standard_normal(2), cov), np.zeros(1), plant)
        gap_eigs = np.linalg.eigvalsh(cov - post.cov)
        assert gap_eigs.min() >= -1e-10


def test_init_belief_uniform_moments(plant):
    x0 = UniformSpec(np.array([0.1, 0.2]), np.array([0.3, 0.5]))
    belief = init_belief(x0, np.array([0.6]), plant)
    prior_cov = x0.cov()
    gain = kalman_gain(prior_cov, plant)
    innovation = 0.6 - float((plant.C @ x0.mean())[0])
    assert np.allclose(belief.mean, x0.mean() + gain[:, 0] * innovation)
    assert np.allclose(belief.cov, initial_posterior_cov(x0, plant), atol=1e-12)


def test_initial_posterior_cov_is_measurement_independent(plant):
    x0 = GaussianSpec(np.array([-1.0, -1.0]), 0.001 * np.eye(2))
    b1 = init_belief(x0, np.array([5.0]), plant)
    b2 = init_belief(x0, np.array([-5.0]), plant)
    assert np.allclose(b1.cov, b2.cov)
    assert not np.allclose(b1.mean, b2.mean)


def test_covariance_path_matches_stepwise(plant):
    rng = np.random.default_rng(13)
    T = 12
    feed = np.stack([random_psd(rng, 2, jitter=1e-3) for _ in range(T)])
    p0 = random_psd(rng, 2, jitter=1e-3)
    priors, posts, gains = covariance_path(p0, feed, plant)

    belief = BeliefState(mean=np.zeros(2), cov=p0)
    for t in range(T):
        belief = predict(belief, np.zeros(1), np.zeros(2), feed[t], plant)
        assert np.allclose(priors[t], belief.cov, atol=1e-12)
        assert np.allclose(gains[t], kalman_gain(belief.cov, plant), atol=1e-12)
        belief = update(belief, np.zeros(1), plant)
        assert np.allclose(posts[t + 1], belief.cov, atol=1e-12)


def test_stacked_kalman_step_gives_each_member_its_call_alone(plant):
    """``kalman_gain`` and ``kalman_update`` on a ``(k, n, n)`` stack give
    every member the bits of the call on it alone."""
    rng = np.random.default_rng(15)
    wide = LinearSystem(
        A=np.eye(3),
        B=np.ones((3, 1)),
        C=rng.standard_normal((2, 3)),
        M=random_psd(rng, 2, jitter=1e-2),
    )
    for sys in (plant, wide):
        priors = np.stack([random_psd(rng, sys.n_x, jitter=1e-3) for _ in range(7)])
        gains, posts = kalman_update(priors, sys)
        assert np.array_equal(kalman_gain(priors, sys), gains)
        for prior, gain, post in zip(priors, gains, posts):
            alone = kalman_update(prior, sys)
            assert np.array_equal(kalman_gain(prior, sys), gain)
            assert np.array_equal(alone[0], gain)
            assert np.array_equal(alone[1], post)


def test_long_chain_stays_psd(plant):
    rng = np.random.default_rng(14)
    belief = BeliefState(mean=np.zeros(2), cov=0.001 * np.eye(2))
    w_cov = 0.01 * np.eye(2)
    for _ in range(2000):
        belief = predict(
            belief, rng.standard_normal(1), np.zeros(2), w_cov, plant
        )
        belief = update(belief, rng.standard_normal(1), plant)
        assert np.linalg.eigvalsh(belief.cov).min() >= -1e-10
