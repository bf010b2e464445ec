"""Distributionally robust LQ control with transport-penalized adversaries.

The package synthesizes output-feedback controllers for linear systems
whose disturbance distribution is only known through samples: a
backward Riccati-style recursion prices in the worst distribution
within a quadratic transport budget, a fixed-point schedule computes
the adversary's covariances, and a simulation harness benchmarks the
result against the nominal LQG policy on paired Monte-Carlo runs.
"""

from .bounds import (
    CalibrationResult,
    CostCertificate,
    calibrate_lambda,
    certified_bound,
    evaluate_value,
    expected_value,
    guaranteed_cost,
    performance_ratio,
)
from .controller import (
    LqgController,
    WdrcController,
    lqg_gains,
    synthesize_wdrc,
)
from .errors import (
    ConfigError,
    DegenerateLQ,
    DimMismatch,
    Diverged,
    EmptySamples,
    NoFeasibleLambda,
    NotPD,
    NotPSD,
    PenaltyTooSmall,
    ScheduleMismatch,
    SingularInnovation,
    SingularMatrix,
    WdrcError,
)
from .estimator import (
    BeliefState,
    covariance_path,
    init_belief,
    initial_posterior_cov,
    kalman_gain,
    predict,
    update,
)
from .harness import (
    CampaignResult,
    CostStatistics,
    ExperimentConfig,
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
    RobustnessParams,
    ScenarioSpec,
    UniformSpec,
    draw_nominal_samples,
    draw_realization,
    estimate_nominal,
    split_stream,
    stationary_nominal,
)
from .psdmath import MomentPair, bures_sq, gelbrich_dist_sq, psd_sqrt, transport_map
from .riccati import (
    PenaltyFeasibility,
    RiccatiSolution,
    backward_pass,
    check_penalty,
    min_feasible_lambda,
)
from .worstcase import (
    CovObjectiveContext,
    CovSolve,
    SolverOptions,
    WorstCaseSchedule,
    cov_gradient,
    cov_objective,
    forward_schedule,
    mean_affine,
    solve_worst_case_cov,
    worst_case_mean,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "LinearSystem",
    "CostSpec",
    "RobustnessParams",
    "GaussianSpec",
    "UniformSpec",
    "NominalDistribution",
    "ScenarioSpec",
    "estimate_nominal",
    "stationary_nominal",
    "draw_nominal_samples",
    "draw_realization",
    "split_stream",
    # psd math
    "MomentPair",
    "psd_sqrt",
    "bures_sq",
    "gelbrich_dist_sq",
    "transport_map",
    # riccati
    "RiccatiSolution",
    "PenaltyFeasibility",
    "backward_pass",
    "check_penalty",
    "min_feasible_lambda",
    # estimator
    "BeliefState",
    "init_belief",
    "initial_posterior_cov",
    "predict",
    "update",
    "kalman_gain",
    "covariance_path",
    # worst case
    "CovObjectiveContext",
    "SolverOptions",
    "CovSolve",
    "WorstCaseSchedule",
    "cov_objective",
    "cov_gradient",
    "solve_worst_case_cov",
    "forward_schedule",
    "worst_case_mean",
    "mean_affine",
    # controller
    "LqgController",
    "WdrcController",
    "lqg_gains",
    "synthesize_wdrc",
    # bounds
    "CostCertificate",
    "CalibrationResult",
    "evaluate_value",
    "expected_value",
    "guaranteed_cost",
    "certified_bound",
    "performance_ratio",
    "calibrate_lambda",
    # harness
    "ExperimentConfig",
    "CostStatistics",
    "CampaignResult",
    "load_config",
    "run_campaign",
    "simulate_paired",
    "emit_reports",
    "paired_mean_z",
    "paired_std_z",
    # errors
    "WdrcError",
    "ConfigError",
    "DimMismatch",
    "NotPSD",
    "NotPD",
    "EmptySamples",
    "SingularMatrix",
    "SingularInnovation",
    "PenaltyTooSmall",
    "NoFeasibleLambda",
    "Diverged",
    "DegenerateLQ",
    "ScheduleMismatch",
]
