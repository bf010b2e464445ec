"""Distributionally robust LQ control with transport-penalized adversaries.

The package synthesizes output-feedback controllers for linear systems
whose disturbance distribution is only known through samples: a
backward Riccati-style recursion prices in the worst distribution
within a quadratic transport budget, a forward schedule of Newton
solves computes the adversary's covariances, and a simulation harness benchmarks the
result against the nominal LQG policy on paired Monte-Carlo runs.
"""

from .bounds import certified_bound, evaluate_value, guaranteed_cost
from .controller import lqg_gains, synthesize_wdrc
from .estimator import BeliefState, initial_posterior_cov, kalman_gain, predict, update
from .harness import (
    emit_reports,
    load_config,
    paired_mean_z,
    paired_std_z,
    run_campaign,
    simulate_paired,
)
from .model import (
    CostSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    estimate_nominal,
)
from .psdmath import gelbrich_dist_sq
from .riccati import min_feasible_lambda
from .worstcase import mean_affine, solve_worst_case_cov

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "LinearSystem",
    "CostSpec",
    "GaussianSpec",
    "NominalDistribution",
    "ScenarioSpec",
    "estimate_nominal",
    # psd math
    "gelbrich_dist_sq",
    # riccati
    "min_feasible_lambda",
    # estimator
    "BeliefState",
    "initial_posterior_cov",
    "predict",
    "update",
    "kalman_gain",
    # worst case
    "solve_worst_case_cov",
    "mean_affine",
    # controller
    "lqg_gains",
    "synthesize_wdrc",
    # bounds
    "evaluate_value",
    "guaranteed_cost",
    "certified_bound",
    # harness
    "load_config",
    "run_campaign",
    "simulate_paired",
    "emit_reports",
    "paired_mean_z",
    "paired_std_z",
]
