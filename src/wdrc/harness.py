"""Benchmark campaigns: config files, paired rollouts, and reports.

Every command starts from :func:`prepare` (seed override, nominal
estimate, initial posterior covariance) and :func:`resolve_lam`.  A
campaign synthesizes the robust and baseline policies, simulates paired
Monte-Carlo runs (both policies see identical draws), and writes
deterministic reports: per-run costs as CSV, a shared-bin histogram,
and a JSON summary embedding the full configuration.

Rollouts are vectorized across runs by :func:`_roll_batch`, the one
closed-loop simulator; :func:`trace_run` runs it on a batch of one.
Every per-run quantity depends only on that run's substream, so results
are identical for any worker count or chunking.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import yaml

from .bounds import (
    CalibrationResult,
    CostCertificate,
    calibrate_lambda,
    performance_ratio,
)
from .closedloop import PolicyFeed, policy_feed
from .controller import (
    LqgController,
    WdrcController,
    lqg_gains,
    synthesize_wdrc,
)
from .errors import ConfigError
from .estimator import initial_posterior_cov
from .model import (
    CostSpec,
    DistributionSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    RobustnessParams,
    ScenarioSpec,
    UniformSpec,
    draw_nominal_samples,
    draw_realization,
    estimate_nominal,
)

__all__ = [
    "ExperimentConfig",
    "CostStatistics",
    "CampaignResult",
    "load_config",
    "config_from_dict",
    "prepare",
    "resolve_lam",
    "run_campaign",
    "trace_run",
    "write_trace",
    "emit_reports",
    "build_histogram",
    "paired_mean_z",
    "paired_std_z",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated campaign configuration plus its raw echo."""

    sys: LinearSystem
    cost: CostSpec
    scenario: ScenarioSpec
    theta: float
    lam: float | None
    runs: int
    histogram_bins: int
    per_stage_nominal: bool
    output_dir: str | None
    echo: dict


@dataclass(frozen=True)
class CostStatistics:
    """Summary statistics over the retained per-run costs."""

    mean: float
    std_dev: float
    minimum: float
    maximum: float
    count: int
    costs: np.ndarray

    @classmethod
    def from_costs(cls, costs: np.ndarray) -> "CostStatistics":
        costs = np.asarray(costs, dtype=float)
        std = float(costs.std(ddof=1)) if costs.size > 1 else 0.0
        return cls(
            mean=float(costs.mean()),
            std_dev=std,
            minimum=float(costs.min()),
            maximum=float(costs.max()),
            count=int(costs.size),
            costs=costs,
        )


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced, ready for report emission."""

    config: ExperimentConfig
    mode: str
    runs: int
    seed: int
    lam: float | None
    calibration: CalibrationResult | None
    certificate: CostCertificate | None
    wdrc: CostStatistics | None
    lqg: CostStatistics | None
    wdrc_ctrl: WdrcController | None = None
    lqg_ctrl: LqgController | None = None
    scenario: ScenarioSpec | None = None


def _section(raw: dict, key: str, path: str = "") -> dict:
    full = f"{path}.{key}" if path else key
    if key not in raw:
        raise ConfigError("missing section", full)
    if not isinstance(raw[key], dict):
        raise ConfigError("expected a mapping", full)
    return raw[key]


def _entry(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError("missing entry", f"{path}.{key}")
    return raw[key]


def _integer(
    raw: dict, key: str, path: str, minimum: int, default: int | None = None
) -> int:
    """An integer entry of at least ``minimum``; floats and bools are rejected."""
    full = f"{path}.{key}" if path else key
    if key not in raw and default is None:
        raise ConfigError("missing entry", full)
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", full)
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}", full)
    return value


def _real(value: Any, field: str) -> float:
    """A finite real number; bools and non-numeric strings are rejected."""
    if isinstance(value, bool):
        raise ConfigError(f"expected a number, got {value!r}", field)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}", field) from None
    if not math.isfinite(number):
        raise ConfigError(f"must be finite, got {value!r}", field)
    return number


def _matrix(raw: dict, key: str, path: str) -> np.ndarray:
    try:
        return np.array(_entry(raw, key, path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric array: {exc}", f"{path}.{key}")


def _distribution(raw: Any, path: str) -> DistributionSpec:
    if not isinstance(raw, dict):
        raise ConfigError("expected a mapping", path)
    kind = raw.get("type")
    if kind == "gaussian":
        return GaussianSpec(
            mean_vec=_matrix(raw, "mean", path), cov_mat=_matrix(raw, "cov", path)
        )
    if kind == "uniform":
        return UniformSpec(lo=_matrix(raw, "lo", path), hi=_matrix(raw, "hi", path))
    raise ConfigError(
        f"unknown distribution type {kind!r} (expected gaussian or uniform)",
        f"{path}.type",
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed configuration mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    plant = _section(raw, "plant")
    sys = LinearSystem(
        A=_matrix(plant, "A", "plant"),
        B=_matrix(plant, "B", "plant"),
        C=_matrix(plant, "C", "plant"),
        M=_matrix(plant, "M", "plant"),
    )
    cost_raw = _section(raw, "cost")
    cost = CostSpec(
        Q=_matrix(cost_raw, "Q", "cost"),
        Q_f=_matrix(cost_raw, "Q_f", "cost"),
        R=_matrix(cost_raw, "R", "cost"),
        horizon=_integer(cost_raw, "horizon", "cost", minimum=1),
    )
    robust = _section(raw, "robustness")
    theta = _real(_entry(robust, "theta", "robustness"), "robustness.theta")
    if theta < 0.0:
        raise ConfigError("theta must be >= 0", "robustness.theta")
    # YAML 1.1 reads exponent forms without a dot (``4e0``) as strings,
    # so any string other than "auto" goes through ``float`` as well.
    lam_raw = robust.get("lam", "auto")
    if lam_raw == "auto":
        lam = None
    else:
        lam = _real(lam_raw, "robustness.lam")
        if lam <= 0.0:
            raise ConfigError("lam must be positive", "robustness.lam")

    scen = _section(raw, "scenario")
    noise_cov = (
        _matrix(scen, "noise_cov", "scenario")
        if "noise_cov" in scen
        else np.array(sys.M)
    )
    if noise_cov.shape != (sys.n_y, sys.n_y):
        raise ConfigError(
            f"noise_cov has shape {noise_cov.shape}, plant has {sys.n_y} outputs",
            "scenario.noise_cov",
        )
    scenario = ScenarioSpec(
        true_disturbance=_distribution(
            _entry(scen, "true_disturbance", "scenario"),
            "scenario.true_disturbance",
        ),
        initial_state=_distribution(
            _entry(scen, "initial_state", "scenario"), "scenario.initial_state"
        ),
        noise_cov=noise_cov,
        sample_count=_integer(scen, "sample_count", "scenario", minimum=1),
        seed=_integer(scen, "seed", "scenario", minimum=0, default=0),
    )
    if scenario.true_disturbance.dim != sys.n_x:
        raise ConfigError(
            f"disturbance dim {scenario.true_disturbance.dim} != state dim {sys.n_x}",
            "scenario.true_disturbance",
        )
    if scenario.initial_state.dim != sys.n_x:
        raise ConfigError(
            f"initial state dim {scenario.initial_state.dim} != state dim {sys.n_x}",
            "scenario.initial_state",
        )

    runs = _integer(raw, "runs", "", minimum=1, default=1000)
    bins = _integer(raw, "histogram_bins", "", minimum=1, default=40)

    return ExperimentConfig(
        sys=sys,
        cost=cost,
        scenario=scenario,
        theta=theta,
        lam=lam,
        runs=runs,
        histogram_bins=bins,
        per_stage_nominal=bool(raw.get("per_stage_nominal", False)),
        output_dir=raw.get("output_dir"),
        echo=raw,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML campaign configuration file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}")
    return config_from_dict(raw)


def prepare(
    cfg: ExperimentConfig, seed: int | None = None
) -> tuple[ScenarioSpec, NominalDistribution, np.ndarray]:
    """The scenario with the seed override applied, the nominal law
    estimated from its samples, and the initial posterior covariance."""
    scenario = cfg.scenario if seed is None else replace(cfg.scenario, seed=seed)
    samples = draw_nominal_samples(
        scenario, cfg.cost.horizon, per_stage=cfg.per_stage_nominal
    )
    p0 = initial_posterior_cov(scenario.initial_state, cfg.sys)
    return scenario, estimate_nominal(samples), p0


def resolve_lam(
    cfg: ExperimentConfig,
    scenario: ScenarioSpec,
    nominal: NominalDistribution,
    override: float | None = None,
) -> tuple[float, CalibrationResult | None]:
    """The penalty (``override``, else the config's, else calibrated)
    and the calibration that chose it, if one ran; the calibration
    carries the controller at that penalty and its certificate."""
    if override is not None:
        return float(override), None
    if cfg.lam is not None:
        return cfg.lam, None
    calibration = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    return calibration.lam, calibration


def _roll_batch(
    feed: PolicyFeed,
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    x0s: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    record: list | None = None,
) -> np.ndarray:
    """Vectorized closed loop over the run axis; returns per-run costs.

    This is the loop :mod:`wdrc.closedloop` evaluates exactly.  With
    ``record``, the batch's ``(state, observation, belief mean, input,
    filter disturbance mean)`` arrays are appended to it for every stage
    ``t < T``, then ``(state, observation, belief mean)`` at ``T``.
    """
    A, B, C = sys.A, sys.B, sys.C
    T = cost.horizon
    X = x0s
    Y = X @ C.T + v[:, 0]
    mu0 = x0_dist.mean()
    Xb = mu0 + (Y - mu0 @ C.T) @ feed.init_gain.T
    costs = np.zeros(X.shape[0])
    for t in range(T):
        U = Xb @ feed.K[t].T + feed.L[t]
        costs += np.einsum("ij,jk,ik->i", X, cost.Q, X)
        costs += np.einsum("ij,jk,ik->i", U, cost.R, U)
        if feed.w_affine is not None:
            H, h = feed.w_affine
            Wm = Xb @ H[t].T + h[t]
        else:
            Wm = feed.w_const[t]
        if record is not None:
            record.append((X, Y, Xb, U, Wm))
        X = X @ A.T + U @ B.T + w[:, t]
        Y = X @ C.T + v[:, t + 1]
        prior = Xb @ A.T + U @ B.T + Wm
        Xb = prior + (Y - prior @ C.T) @ feed.filter_gains[t].T
    costs += np.einsum("ij,jk,ik->i", X, cost.Q_f, X)
    if record is not None:
        record.append((X, Y, Xb))
    return costs


def trace_run(
    ctrl: WdrcController | LqgController,
    scenario: ScenarioSpec,
    sys: LinearSystem,
    cost: CostSpec,
    run: int,
) -> dict[str, np.ndarray]:
    """Per-stage arrays of run ``run``: :func:`_roll_batch` on a batch of one.

    Keys are the ``--dump-trace`` record fields; ``input`` and the
    worst-case moments (robust policy only) have one row fewer.  The
    covariances come from the controller, as no measurement moves them.
    """
    real = draw_realization(scenario, sys, cost.horizon, run)
    x0_dist = scenario.initial_state
    stages: list = []
    feed = policy_feed(ctrl, sys, x0_dist)
    _roll_batch(
        feed, sys, cost, x0_dist, real.x0[None], real.w[None], real.v[None], stages
    )

    def column(k: int) -> np.ndarray:
        return np.stack([row[k][0] for row in stages if k < len(row)])

    robust = isinstance(ctrl, WdrcController)
    trace = {
        "state": column(0),
        "observation": column(1),
        "belief_mean": column(2),
        "belief_cov": ctrl.schedule.post_covs if robust else ctrl.post_covs,
        "input": column(3),
    }
    if robust:
        trace["worst_case_mean"] = column(4)
        trace["worst_case_cov"] = np.stack([s.cov for s in ctrl.schedule.solves])
    return trace


def write_trace(trace: dict[str, np.ndarray], path) -> None:
    """Serialize a trace as JSON lines, one record per stage."""
    with open(path, "w") as fh:
        for t in range(len(trace["state"])):
            record = {"t": t}
            record.update((k, v[t].tolist()) for k, v in trace.items() if t < len(v))
            fh.write(json.dumps(record) + "\n")


def _simulate_chunk(args) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Worker: paired rollouts for a contiguous block of run indices."""
    (start, count, wdrc_feed, lqg_feed, scenario, sys, cost) = args
    T = cost.horizon
    n, n_y = sys.n_x, sys.n_y
    x0s = np.zeros((count, n))
    w = np.zeros((count, T, n))
    v = np.zeros((count, T + 1, n_y))
    for i in range(count):
        real = draw_realization(scenario, sys, T, start + i)
        x0s[i], w[i], v[i] = real.x0, real.w, real.v
    x0_dist = scenario.initial_state
    wdrc_costs = (
        _roll_batch(wdrc_feed, sys, cost, x0_dist, x0s, w, v)
        if wdrc_feed is not None
        else None
    )
    lqg_costs = (
        _roll_batch(lqg_feed, sys, cost, x0_dist, x0s, w, v)
        if lqg_feed is not None
        else None
    )
    return start, wdrc_costs, lqg_costs


def simulate_paired(
    wdrc_ctrl: WdrcController | None,
    lqg_ctrl: LqgController | None,
    scenario: ScenarioSpec,
    sys: LinearSystem,
    cost: CostSpec,
    runs: int,
    jobs: int = 1,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Simulate ``runs`` paired rollouts, optionally across processes.

    Both policies consume identical realizations per run index.  The
    result arrays are ordered by run index and do not depend on
    ``jobs``.
    """
    x0_dist = scenario.initial_state
    wdrc_feed = policy_feed(wdrc_ctrl, sys, x0_dist) if wdrc_ctrl else None
    lqg_feed = policy_feed(lqg_ctrl, sys, x0_dist) if lqg_ctrl else None
    jobs = max(1, jobs)
    chunk = runs if jobs == 1 else max(1, math.ceil(runs / jobs))
    tasks = [
        (start, min(chunk, runs - start), wdrc_feed, lqg_feed, scenario, sys, cost)
        for start in range(0, runs, chunk)
    ]
    if jobs == 1 or len(tasks) == 1:
        outputs = [_simulate_chunk(t) for t in tasks]
    else:
        # Imported on first use: the process machinery adds about a tenth
        # to the package's import time and serial runs never need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_simulate_chunk, tasks))

    wdrc_costs = np.zeros(runs) if wdrc_feed is not None else None
    lqg_costs = np.zeros(runs) if lqg_feed is not None else None
    for start, wc, lc in outputs:
        if wc is not None:
            wdrc_costs[start : start + wc.size] = wc
        if lc is not None:
            lqg_costs[start : start + lc.size] = lc
    return wdrc_costs, lqg_costs


def run_campaign(
    cfg: ExperimentConfig,
    mode: str = "both",
    seed: int | None = None,
    runs: int | None = None,
    jobs: int = 1,
) -> CampaignResult:
    """Execute a full campaign: estimate, calibrate, synthesize, simulate.

    Args:
        cfg: Validated configuration.
        mode: ``wdrc``, ``lqg``, or ``both``.
        seed: Overrides the scenario seed.
        runs: Overrides the configured run count.
        jobs: Worker processes for the simulation phase.

    Returns:
        Statistics, certificate, and provenance for report emission.
    """
    if mode not in ("wdrc", "lqg", "both"):
        raise ValueError(f"mode must be wdrc, lqg, or both; got {mode!r}")
    scenario, nominal, p0 = prepare(cfg, seed)
    n_runs = cfg.runs if runs is None else runs

    # The certificate needs the baseline even when it is not simulated.
    lqg_ctrl = lqg_gains(cfg.sys, cfg.cost, nominal, p0)
    lam = None
    calibration = None
    certificate = None
    wdrc_ctrl = None
    if mode in ("wdrc", "both"):
        lam, calibration = resolve_lam(cfg, scenario, nominal)
        wdrc_ctrl = (
            calibration.controller
            if calibration is not None
            else synthesize_wdrc(cfg.sys, cfg.cost, nominal, lam, p0)
        )
        certificate = performance_ratio(
            cfg.sys,
            cfg.cost,
            nominal,
            scenario,
            RobustnessParams(lam=lam, theta=cfg.theta),
            wdrc_ctrl=wdrc_ctrl,
            lqg_ctrl=lqg_ctrl,
            dual=calibration.dual if calibration is not None else None,
        )
    if mode == "wdrc":
        lqg_ctrl = None

    wdrc_costs, lqg_costs = simulate_paired(
        wdrc_ctrl, lqg_ctrl, scenario, cfg.sys, cfg.cost, n_runs, jobs
    )
    return CampaignResult(
        config=cfg,
        mode=mode,
        runs=n_runs,
        seed=scenario.seed,
        lam=lam,
        calibration=calibration,
        certificate=certificate,
        wdrc=CostStatistics.from_costs(wdrc_costs) if wdrc_costs is not None else None,
        lqg=CostStatistics.from_costs(lqg_costs) if lqg_costs is not None else None,
        wdrc_ctrl=wdrc_ctrl,
        lqg_ctrl=lqg_ctrl,
        scenario=scenario,
    )


def paired_mean_z(baseline: np.ndarray, candidate: np.ndarray) -> float:
    """z-score for ``mean(baseline) > mean(candidate)`` on paired runs.

    NaN for fewer than two runs, which have no standard error.
    """
    d = np.asarray(baseline, dtype=float) - np.asarray(candidate, dtype=float)
    if d.size < 2:
        return math.nan
    se = d.std(ddof=1) / math.sqrt(d.size)
    return float(d.mean() / se)


def paired_std_z(baseline: np.ndarray, candidate: np.ndarray) -> float:
    """z-score for ``var(baseline) > var(candidate)`` on paired runs.

    Uses the identity ``cov(a + b, a - b) = var(a) - var(b)``: the
    mean of the centered cross products estimates the variance gap and
    its standard error comes from the same products.  NaN for fewer
    than two runs.
    """
    a = np.asarray(baseline, dtype=float)
    b = np.asarray(candidate, dtype=float)
    if a.size < 2:
        return math.nan
    u = (a + b) - (a + b).mean()
    w = (a - b) - (a - b).mean()
    p = u * w
    se = p.std(ddof=1) / math.sqrt(p.size)
    return float(p.mean() / se)


def build_histogram(
    bins: int, *cost_arrays: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Equal-width histogram over the pooled range of all cost arrays."""
    pooled = np.concatenate([np.asarray(c, dtype=float) for c in cost_arrays])
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    return edges, [np.histogram(c, bins=edges)[0] for c in cost_arrays]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))


def _finite_or_none(x: float) -> float | None:
    """JSON has no NaN or infinity; such values are reported as null."""
    return x if math.isfinite(x) else None


def _stats_dict(stats: CostStatistics) -> dict:
    return {
        "mean": stats.mean,
        "std_dev": stats.std_dev,
        "min": stats.minimum,
        "max": stats.maximum,
        "count": stats.count,
    }


def emit_reports(result: CampaignResult, out_dir: str) -> dict[str, str]:
    """Write the cost CSV, histogram CSV, and summary JSON.

    All three files are byte-deterministic functions of the campaign
    result: no timestamps, no environment-dependent content.

    Returns:
        Mapping from report name to the written path.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}

    named = [
        (label, stats)
        for label, stats in (("wdrc", result.wdrc), ("lqg", result.lqg))
        if stats is not None
    ]

    costs_path = os.path.join(out_dir, "costs.csv")
    with open(costs_path, "w", newline="\n") as fh:
        fh.write("run," + ",".join(f"{label}_cost" for label, _ in named) + "\n")
        for i in range(result.runs):
            row = ",".join(_fmt(stats.costs[i]) for _, stats in named)
            fh.write(f"{i},{row}\n")
    paths["costs"] = costs_path

    hist_path = os.path.join(out_dir, "histogram.csv")
    edges, counts = build_histogram(
        result.config.histogram_bins, *[s.costs for _, s in named]
    )
    with open(hist_path, "w", newline="\n") as fh:
        fh.write(
            "bin_lo,bin_hi,"
            + ",".join(f"{label}_count" for label, _ in named)
            + "\n"
        )
        for k in range(edges.size - 1):
            row = ",".join(str(int(c[k])) for c in counts)
            fh.write(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{row}\n")
    paths["histogram"] = hist_path

    summary: dict[str, Any] = {
        "mode": result.mode,
        "runs": result.runs,
        "seed": result.seed,
        "histogram_bins": result.config.histogram_bins,
        "lam": result.lam,
        "statistics": {label: _stats_dict(s) for label, s in named},
        "config": result.config.echo,
    }
    if result.calibration is not None:
        summary["calibration"] = {
            "lam": result.calibration.lam,
            "objective": result.calibration.objective,
            "hit_upper": result.calibration.hit_upper,
            "evaluations": len(result.calibration.evaluations),
        }
    if result.certificate is not None:
        cert = result.certificate
        summary["certificate"] = {
            "lam": cert.lam,
            "theta": cert.theta,
            "j_lambda": cert.j_lambda,
            "j_lambda_ref": cert.j_lambda_ref,
            "kappa": _finite_or_none(cert.kappa),
            "w_kappa": cert.w_kappa,
            "guaranteed_bound": cert.guaranteed_bound,
            "j_lq": cert.j_lq,
            "j_lq_ref": cert.j_lq_ref,
            "rho": cert.rho,
        }
    if result.wdrc is not None and result.lqg is not None:
        summary["paired_tests"] = {
            "mean_z": _finite_or_none(
                paired_mean_z(result.lqg.costs, result.wdrc.costs)
            ),
            "std_z": _finite_or_none(
                paired_std_z(result.lqg.costs, result.wdrc.costs)
            ),
        }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    paths["summary"] = summary_path
    return paths
