"""Benchmark campaigns: config files, paired rollouts, and reports.

Every command starts from :func:`prepare` (seed override, nominal
estimate, initial posterior covariance); the robust controller comes
from :func:`robust_policy` (pinned penalty or calibration).  A campaign
holds its policies as labelled controllers, simulates paired
Monte-Carlo runs (every policy sees identical draws), and writes
deterministic reports: per-run costs as CSV, a shared-bin histogram,
and a JSON summary embedding the full configuration.

Rollouts are vectorized across runs by :func:`_roll_batch`, the one
closed-loop simulator, which runs a controller of :mod:`wdrc.controller`
as it stands (its gains and the disturbance mean its filter predicts
with); :func:`trace_run` runs it on a batch of one.
Campaigns draw and roll their runs in blocks.  Every per-run quantity
depends only on that run's substream, so results are identical for any
worker count, chunking or block.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import Any, NamedTuple

import numpy as np
import yaml

from .bounds import (
    CalibrationResult,
    CostCertificate,
    calibrate_lambda,
    performance_ratio,
)
from .controller import (
    LqgController,
    WdrcController,
    lqg_gains,
    synthesize_wdrc,
)
from .errors import ConfigError, WdrcError
from .estimator import initial_posterior_cov, kalman_gain
from .model import (
    CostSpec,
    DistributionSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    UniformSpec,
    draw_nominal_samples,
    draw_realizations,
    estimate_nominal,
    matmul_rows,
)

__all__ = [
    "ExperimentConfig",
    "CostStatistics",
    "CampaignResult",
    "load_config",
    "config_from_dict",
    "prepare",
    "robust_policy",
    "run_campaign",
    "trace_run",
    "write_trace",
    "emit_reports",
    "build_histogram",
    "paired_mean_z",
    "paired_std_z",
]


class ExperimentConfig(NamedTuple):
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


class CostStatistics(NamedTuple):
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


class CampaignResult(NamedTuple):
    """Everything a campaign produced, ready for report emission.

    ``policies`` maps each simulated policy's label (``wdrc``, ``lqg``)
    to its controller and ``stats`` maps it to its costs, both in
    report order.
    """

    config: ExperimentConfig
    mode: str
    runs: int
    seed: int
    scenario: ScenarioSpec
    calibration: CalibrationResult | None
    certificate: CostCertificate | None
    policies: dict[str, WdrcController | LqgController]
    stats: dict[str, CostStatistics]

    @property
    def lam(self) -> float | None:
        """The robust policy's penalty; None when it is not simulated."""
        ctrl = self.policies.get("wdrc")
        return None if ctrl is None else ctrl.solution.lam


def _known_keys(raw: dict, keys: tuple[str, ...], path: str = "") -> None:
    """Reject any key of ``raw`` outside ``keys``: a misspelt key would
    otherwise load silently and leave its entry at the default."""
    for key in raw:
        if key not in keys:
            full = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown key (expected one of {', '.join(keys)})", full)


def _section(raw: dict, key: str, keys: tuple[str, ...]) -> dict:
    """The mapping at ``raw[key]``, holding no key outside ``keys``."""
    if key not in raw:
        raise ConfigError("missing section", key)
    if not isinstance(raw[key], dict):
        raise ConfigError("expected a mapping", key)
    _known_keys(raw[key], keys, key)
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
        make, keys = GaussianSpec, ("mean", "cov")
    elif kind == "uniform":
        make, keys = UniformSpec, ("lo", "hi")
    else:
        raise ConfigError(
            f"unknown distribution type {kind!r} (expected gaussian or uniform)",
            f"{path}.type",
        )
    _known_keys(raw, ("type", *keys), path)
    args = [_matrix(raw, key, path) for key in keys]
    # A covariance is a matrix; every other entry is one flat list.
    for key, value in zip(keys, args):
        if key != "cov" and value.ndim != 1:
            raise ConfigError(
                f"expected a flat list, got shape {value.shape}", f"{path}.{key}"
            )
    return _built(path, make, *args)


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a rejected value reported as a
    :class:`ConfigError` at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, WdrcError) as exc:
        raise ConfigError(str(exc), path) from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed configuration mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    _known_keys(
        raw,
        ("plant", "cost", "robustness", "scenario", "runs", "histogram_bins",
         "per_stage_nominal", "output_dir"),
    )
    plant_keys = ("A", "B", "C", "M")
    plant = _section(raw, "plant", plant_keys)
    sys = _built(
        "plant",
        LinearSystem,
        **{key: _matrix(plant, key, "plant") for key in plant_keys},
    )
    cost_raw = _section(raw, "cost", ("Q", "Q_f", "R", "horizon"))
    cost = _built(
        "cost",
        CostSpec,
        Q=_matrix(cost_raw, "Q", "cost"),
        Q_f=_matrix(cost_raw, "Q_f", "cost"),
        R=_matrix(cost_raw, "R", "cost"),
        horizon=_integer(cost_raw, "horizon", "cost", minimum=1),
    )
    for key, dim in (("Q", sys.n_x), ("R", sys.n_u)):
        n = getattr(cost, key).shape[0]
        if n != dim:
            raise ConfigError(f"is {n}x{n}, plant needs {dim}x{dim}", f"cost.{key}")
    robust = _section(raw, "robustness", ("theta", "lam"))
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

    scen = _section(
        raw,
        "scenario",
        ("true_disturbance", "initial_state", "sample_count", "seed"),
    )
    scenario = _built(
        "scenario",
        ScenarioSpec,
        true_disturbance=_distribution(
            _entry(scen, "true_disturbance", "scenario"),
            "scenario.true_disturbance",
        ),
        initial_state=_distribution(
            _entry(scen, "initial_state", "scenario"), "scenario.initial_state"
        ),
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
    per_stage = raw.get("per_stage_nominal", False)
    if not isinstance(per_stage, bool):
        raise ConfigError(
            f"expected true or false, got {per_stage!r}", "per_stage_nominal"
        )
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"expected a path string, got {output_dir!r}", "output_dir")

    return ExperimentConfig(
        sys=sys,
        cost=cost,
        scenario=scenario,
        theta=theta,
        lam=lam,
        runs=runs,
        histogram_bins=bins,
        per_stage_nominal=per_stage,
        output_dir=output_dir,
        echo=raw,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML campaign configuration file.

    libyaml parses it when PyYAML has it, else PyYAML's own reader; both
    build values with the same Python code, so only error wording differs.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=loader)
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


def robust_policy(
    cfg: ExperimentConfig,
    scenario: ScenarioSpec,
    nominal: NominalDistribution,
    p0: np.ndarray,
    override: float | None = None,
) -> tuple[WdrcController, CalibrationResult | None]:
    """The robust controller at the penalty ``override``, else the
    config's, else the calibrated one, and the calibration if one ran;
    a calibrated controller comes from the calibration, which also
    carries its certificate."""
    lam = cfg.lam if override is None else float(override)
    if lam is not None:
        return synthesize_wdrc(cfg.sys, cfg.cost, nominal, lam, p0), None
    calibration = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    return calibration.controller, calibration


# Runs per block of a campaign's draws and rollouts.  Each numpy call
# of a rollout covers a block, so smaller blocks pay more per-call
# overhead: 1024 took 20,000 paired gaussian runs from 0.37 to 0.40 s.
# Drawing a block of gaussian.yaml peaks at 5.3 MiB of allocations,
# 4.8 MiB of them the draws themselves.
_BLOCK = 4096


def _quad_form(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise ``x' M x``, bit for bit ``np.einsum("ij,jk,ik->i", X, M, X)``
    on batches of three rows or more.

    einsum adds the products ``(x_j * M[j, k]) * x_k`` into a zero, one
    after the other in row-major ``(j, k)`` order; this does the same
    on contiguous columns, with a few whole-batch operations.
    """
    cols = _transposed(X)
    terms = cols[:, None, :] * M[:, :, None]
    terms *= cols[None, :, :]
    terms = terms.reshape(-1, len(X))
    acc = terms[0] + 0.0
    for term in terms[1:]:
        acc += term
    return acc


def _transposed(M: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``M`` with its last two axes swapped.

    A product with it is bit for bit the product with the transposed
    view on every batch of two rows or more, and faster.
    """
    return np.ascontiguousarray(np.swapaxes(M, -1, -2))


def _roll_batch(
    ctrl: WdrcController | LqgController,
    init_gain: np.ndarray,
    sys: LinearSystem,
    cost: CostSpec,
    x0_dist: DistributionSpec,
    x0s: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    record: list | None = None,
) -> np.ndarray:
    """Vectorized closed loop over the run axis; returns per-run costs.

    This is the loop :mod:`wdrc.closedloop` evaluates exactly, run with
    the controller's ``K``, ``L``, ``gains``, ``H`` and ``h``;
    ``init_gain`` is the Kalman gain of the initial-state law.  The
    disturbances ``w`` (``(T, runs, n_x)``) and noises ``v``
    (``(T + 1, runs, n_y)``) are time-major, so each stage reads
    contiguous rows.  Products go through contiguous transposes
    (:func:`_transposed`), those with inner dimension one (a single
    input or output) through :func:`~wdrc.model.matmul_rows`, and
    quadratic forms through :func:`_quad_form`, so a run's cost does
    not depend on the batch that holds it.  A batch of one is rolled
    as two copies of itself: numpy multiplies a one-row matrix by its
    matrix-vector route, which rounds differently.  With ``record``,
    the batch's ``(state, observation, belief mean, input, filter
    disturbance mean)`` arrays are appended to it for every stage
    ``t < T``, then ``(state, observation, belief mean)`` at ``T``; a
    batch of one records both copies.
    """
    if len(x0s) == 1:
        x0s, w, v = np.repeat(x0s, 2, 0), np.repeat(w, 2, 1), np.repeat(v, 2, 1)
        return _roll_batch(ctrl, init_gain, sys, cost, x0_dist, x0s, w, v, record)[:1]
    A_t, B_t, C_t = _transposed(sys.A), _transposed(sys.B), _transposed(sys.C)
    K_t, G_t = _transposed(ctrl.K), _transposed(ctrl.gains)
    H_t = None if ctrl.H is None else _transposed(ctrl.H)
    L, h = ctrl.L, ctrl.h
    X = x0s
    Y = X @ C_t + v[0]
    # A single mean row takes the matrix-vector route in every batch.
    mu0 = x0_dist.mean()
    Xb = mu0 + matmul_rows(Y - mu0 @ sys.C.T, _transposed(init_gain))
    costs = np.zeros(len(X))
    for t in range(cost.horizon):
        U = Xb @ K_t[t] + L[t]
        costs += _quad_form(X, cost.Q)
        costs += _quad_form(U, cost.R)
        # A predicted mean that does not depend on the belief is added
        # as one row, not as a zero product per run.
        Wm = h[t] if H_t is None else Xb @ H_t[t] + h[t]
        if record is not None:
            record.append((X, Y, Xb, U, Wm))
        UB = matmul_rows(U, B_t)
        X = X @ A_t + UB + w[t]
        Y = X @ C_t + v[t + 1]
        prior = Xb @ A_t + UB + Wm
        Xb = prior + matmul_rows(Y - prior @ C_t, G_t[t])
    costs += _quad_form(X, cost.Q_f)
    if record is not None:
        record.append((X, Y, Xb))
    return costs


def _draw_block(
    scenario: ScenarioSpec, sys: LinearSystem, horizon: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`draw_realizations` of the runs, with ``w`` and ``v``
    time-major for :func:`_roll_batch`."""
    x0s, w, v = draw_realizations(scenario, sys, horizon, start, count)
    return x0s, np.swapaxes(w, 0, 1), np.swapaxes(v, 0, 1)


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
    x0_dist = scenario.initial_state
    stages: list = []
    init_gain = kalman_gain(x0_dist.cov(), sys)
    block = _draw_block(scenario, sys, cost.horizon, run, 1)
    _roll_batch(ctrl, init_gain, sys, cost, x0_dist, *block, stages)

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


def _simulate_chunk(args) -> list[np.ndarray]:
    """Worker: paired rollouts of runs ``start .. start + count - 1``,
    one cost array per controller.

    The runs go in blocks of ``_BLOCK``: a block is drawn once, every
    controller rolls it, and each writes the block's costs into its
    slice of its output.  Memory thus grows with the block, not with
    the chunk: a block's draws are dropped before the next are drawn.
    """
    (start, count, ctrls, init_gain, scenario, sys, cost) = args
    x0_dist = scenario.initial_state
    outputs = [np.empty(count) for _ in ctrls]
    for lo in range(0, count, _BLOCK):
        n = min(_BLOCK, count - lo)
        block = None  # So that the last block's draws are freed before these.
        block = _draw_block(scenario, sys, cost.horizon, start + lo, n)
        for ctrl, out in zip(ctrls, outputs):
            out[lo : lo + n] = _roll_batch(ctrl, init_gain, sys, cost, x0_dist, *block)
    return outputs


def simulate_paired(
    ctrls: list[WdrcController | LqgController],
    scenario: ScenarioSpec,
    sys: LinearSystem,
    cost: CostSpec,
    runs: int,
    jobs: int = 1,
) -> list[np.ndarray]:
    """Simulate ``runs`` paired rollouts, optionally across processes.

    Every controller consumes identical realizations per run index.
    Returns one cost array per controller, in the order given; each is
    ordered by run index and does not depend on ``jobs``, which must be
    at least 1 and caps the worker processes at the chunks and CPUs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    init_gain = kalman_gain(scenario.initial_state.cov(), sys)
    chunk = runs if jobs == 1 else max(1, math.ceil(runs / jobs))
    tasks = [
        (start, min(chunk, runs - start), ctrls, init_gain, scenario, sys, cost)
        for start in range(0, runs, chunk)
    ]
    if jobs == 1 or len(tasks) == 1:
        outputs = [_simulate_chunk(t) for t in tasks]
    else:
        # Imported on first use: the process machinery adds about a tenth
        # to the package's import time and serial runs never need it.
        from concurrent.futures import ProcessPoolExecutor

        # ``jobs`` is a ceiling: the pool starts all its workers at once.
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_simulate_chunk, tasks))

    return [np.concatenate(chunks) for chunks in zip(*outputs)]


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
    policies: dict[str, WdrcController | LqgController] = {}
    calibration = None
    certificate = None
    if mode in ("wdrc", "both"):
        wdrc_ctrl, calibration = robust_policy(cfg, scenario, nominal, p0)
        certificate = performance_ratio(
            wdrc_ctrl,
            lqg_ctrl,
            cfg.sys,
            cfg.cost,
            scenario.initial_state,
            cfg.theta,
            dual=calibration.dual if calibration is not None else None,
        )
        policies["wdrc"] = wdrc_ctrl
    if mode in ("lqg", "both"):
        policies["lqg"] = lqg_ctrl

    costs = simulate_paired(
        list(policies.values()), scenario, cfg.sys, cfg.cost, n_runs, jobs
    )
    return CampaignResult(
        config=cfg,
        mode=mode,
        runs=n_runs,
        seed=scenario.seed,
        scenario=scenario,
        calibration=calibration,
        certificate=certificate,
        policies=policies,
        stats={
            label: CostStatistics.from_costs(c) for label, c in zip(policies, costs)
        },
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

    named = list(result.stats.items())

    costs_path = os.path.join(out_dir, "costs.csv")
    with open(costs_path, "w", newline="\n") as fh:
        fh.write("run," + ",".join(f"{label}_cost" for label, _ in named) + "\n")
        # repr of a Python float is _fmt's shortest round-trip form.
        columns = [map(repr, stats.costs.tolist()) for _, stats in named]
        fh.writelines(
            f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*columns))
        )
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
            "kappa": _finite_or_none(cert.kappa),
            "w_kappa": cert.w_kappa,
            "guaranteed_bound": cert.guaranteed_bound,
            "j_lq": cert.j_lq,
            "rho": cert.rho,
        }
    if result.stats.keys() == {"wdrc", "lqg"}:
        wdrc, lqg = result.stats["wdrc"].costs, result.stats["lqg"].costs
        summary["paired_tests"] = {
            "mean_z": _finite_or_none(paired_mean_z(lqg, wdrc)),
            "std_z": _finite_or_none(paired_std_z(lqg, wdrc)),
        }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    paths["summary"] = summary_path
    return paths
