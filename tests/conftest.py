"""Shared fixtures: the two-state benchmark plant and helpers."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wdrc import CostSpec, GaussianSpec, LinearSystem, ScenarioSpec
from wdrc.psdmath import MomentPair, symmetrize


@pytest.fixture(scope="session")
def plant() -> LinearSystem:
    return LinearSystem(
        A=np.array([[0.518, 0.266], [0.405, 0.806]]),
        B=np.array([[-2.972], [-2.271]]),
        C=np.array([[1.023, 1.955]]),
        M=np.array([[0.2]]),
    )


@pytest.fixture(scope="session")
def quad_cost() -> CostSpec:
    return CostSpec(Q=np.eye(2), Q_f=np.eye(2), R=np.eye(1), horizon=50)


@pytest.fixture(scope="session")
def gaussian_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        true_disturbance=GaussianSpec(
            np.array([0.01, 0.02]), np.array([[0.01, 0.005], [0.005, 0.01]])
        ),
        initial_state=GaussianSpec(np.array([-1.0, -1.0]), 0.001 * np.eye(2)),
        noise_cov=np.array([[0.2]]),
        sample_count=5,
        seed=2,
    )


def random_psd(rng: np.random.Generator, n: int, jitter: float = 1e-3) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return symmetrize(m @ m.T / n + jitter * np.eye(n))


def random_moments(rng: np.random.Generator, n: int) -> MomentPair:
    return MomentPair(rng.standard_normal(n), random_psd(rng, n))


# ``tools/compare_reports.py``, loaded once.  Its solver suite draws the
# random bounded stage problems that the worst-case tests solve too.
_TOOL = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
)
compare_reports = importlib.util.module_from_spec(_TOOL)
_TOOL.loader.exec_module(compare_reports)
random_problem = compare_reports.random_problem
