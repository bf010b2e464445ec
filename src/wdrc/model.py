"""Problem data: plant, cost, scenario, and nominal-distribution types.

A scenario bundles the true (data-generating) distributions used by the
simulator with the sample budget used to estimate the nominal
disturbance moments that the controller sees.  Randomness is organized
as one master seed split into independent substreams keyed by purpose
and run index, so every draw is reproducible regardless of execution
order or worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimMismatch, EmptySamples, NotPD
from .psdmath import MomentPair, psd_sqrt, require_psd, symmetrize

__all__ = [
    "LinearSystem",
    "CostSpec",
    "RobustnessParams",
    "GaussianSpec",
    "UniformSpec",
    "DistributionSpec",
    "NominalDistribution",
    "ScenarioSpec",
    "Realization",
    "estimate_nominal",
    "stationary_nominal",
    "split_stream",
    "draw_nominal_samples",
    "draw_realization",
    "STREAM_NOMINAL",
    "STREAM_RUN",
    "STREAM_VALUE_MC",
]

# Substream purposes for the master-seed split.
STREAM_NOMINAL = 0
STREAM_RUN = 1
STREAM_VALUE_MC = 2


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LinearSystem:
    """Time-invariant linear dynamics with linear observations.

    State transition ``x+ = A x + B u + w`` and measurement
    ``y = C x + v`` with ``v`` zero-mean Gaussian of covariance ``M``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        A = _frozen(self.A)
        B = _frozen(self.B)
        C = _frozen(self.C)
        M = require_psd(np.asarray(self.M, dtype=float), "M")
        n = A.shape[0]
        if A.ndim != 2 or A.shape[1] != n:
            raise DimMismatch(f"A must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != n:
            raise DimMismatch(f"B must have {n} rows, got {B.shape}")
        if C.ndim != 2 or C.shape[1] != n:
            raise DimMismatch(f"C must have {n} columns, got {C.shape}")
        if M.shape[0] != C.shape[0]:
            raise DimMismatch(
                f"M must be {C.shape[0]}x{C.shape[0]}, got {M.shape}"
            )
        M.flags.writeable = False
        for name, val in (("A", A), ("B", B), ("C", C), ("M", M)):
            object.__setattr__(self, name, val)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class CostSpec:
    """Finite-horizon quadratic cost ``sum(x'Qx + u'Ru) + x_T'Qf x_T``."""

    Q: np.ndarray
    Q_f: np.ndarray
    R: np.ndarray
    horizon: int

    def __post_init__(self):
        Q = require_psd(np.asarray(self.Q, dtype=float), "Q")
        Q_f = require_psd(np.asarray(self.Q_f, dtype=float), "Q_f")
        R = symmetrize(np.asarray(self.R, dtype=float))
        if Q.shape != Q_f.shape:
            raise DimMismatch(f"Q is {Q.shape} but Q_f is {Q_f.shape}")
        if float(np.linalg.eigvalsh(R)[0]) <= 0.0:
            raise NotPD("R must be positive definite")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        for m in (Q, Q_f, R):
            m.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Q_f", Q_f)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class RobustnessParams:
    """Ambiguity radius ``theta`` and penalty parameter ``lam``."""

    lam: float
    theta: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.theta < 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")


@dataclass(frozen=True)
class GaussianSpec:
    """Gaussian distribution descriptor with possibly singular covariance.

    ``factor`` is the PSD square root of the covariance, computed once
    on construction and used by every draw.
    """

    mean_vec: np.ndarray
    cov_mat: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pair = MomentPair(self.mean_vec, self.cov_mat)
        factor = psd_sqrt(pair.cov)
        factor.flags.writeable = False
        object.__setattr__(self, "mean_vec", pair.mean)
        object.__setattr__(self, "cov_mat", pair.cov)
        object.__setattr__(self, "factor", factor)

    @property
    def dim(self) -> int:
        return self.mean_vec.shape[0]

    def mean(self) -> np.ndarray:
        return self.mean_vec

    def cov(self) -> np.ndarray:
        return self.cov_mat

    def moments(self) -> MomentPair:
        return MomentPair(self.mean_vec, self.cov_mat)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` vectors as rows, via the PSD factor of the covariance."""
        z = rng.standard_normal((size, self.dim))
        return self.mean_vec + z @ self.factor.T


@dataclass(frozen=True)
class UniformSpec:
    """Axis-aligned uniform box with componentwise bounds ``lo <= hi``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _frozen(np.asarray(self.lo, dtype=float).reshape(-1))
        hi = _frozen(np.asarray(self.hi, dtype=float).reshape(-1))
        if lo.shape != hi.shape:
            raise DimMismatch(f"lo has shape {lo.shape}, hi {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("uniform bounds require lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def mean(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def cov(self) -> np.ndarray:
        return np.diag((self.hi - self.lo) ** 2 / 12.0)

    def moments(self) -> MomentPair:
        return MomentPair(self.mean(), self.cov())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(size, self.dim))


DistributionSpec = Union[GaussianSpec, UniformSpec]


@dataclass(frozen=True)
class NominalDistribution:
    """Per-stage nominal disturbance moments seen by the controller."""

    stages: tuple[MomentPair, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise EmptySamples("nominal distribution needs at least one stage")
        dim = stages[0].dim
        for k, pair in enumerate(stages):
            if pair.dim != dim:
                raise DimMismatch(f"stage {k} has dim {pair.dim}, expected {dim}")
        object.__setattr__(self, "stages", stages)

    @property
    def horizon(self) -> int:
        return len(self.stages)

    @property
    def dim(self) -> int:
        return self.stages[0].dim

    def mean(self, t: int) -> np.ndarray:
        return self.stages[t].mean

    def cov(self, t: int) -> np.ndarray:
        return self.stages[t].cov


def estimate_nominal(stage_samples: Sequence[np.ndarray]) -> NominalDistribution:
    """Estimate per-stage moments from raw disturbance samples.

    Args:
        stage_samples: One ``(N, n)`` array per stage; each row is a
            sample of the stage disturbance.

    Returns:
        Nominal distribution whose stage ``t`` mean is the sample mean
        and whose covariance is the second central moment normalized by
        ``N`` (not ``N - 1``), so a single sample yields a zero
        covariance.

    Raises:
        EmptySamples: If any stage has no samples.
    """
    stages = []
    for t, raw in enumerate(stage_samples):
        samples = np.atleast_2d(np.asarray(raw, dtype=float))
        if samples.size == 0:
            raise EmptySamples(f"stage {t} has no samples")
        mean = samples.mean(axis=0)
        centered = samples - mean
        cov = symmetrize(centered.T @ centered / samples.shape[0])
        stages.append(MomentPair(mean, cov))
    if not stages:
        raise EmptySamples("no stage sample sets given")
    return NominalDistribution(tuple(stages))


def stationary_nominal(samples: np.ndarray, horizon: int) -> NominalDistribution:
    """Estimate one moment pair from ``samples`` and repeat it every stage."""
    pair = estimate_nominal([samples]).stages[0]
    return NominalDistribution((pair,) * horizon)


@dataclass(frozen=True)
class ScenarioSpec:
    """True data-generating laws plus the nominal sample budget.

    Attributes:
        true_disturbance: Law of the process disturbance at every stage.
        initial_state: Law of the initial state.
        noise_cov: True measurement-noise covariance used when sampling
            observations; the filter always uses the plant's ``M``.
        sample_count: Number of disturbance samples used to estimate
            the nominal moments.
        seed: Master seed for all randomness derived from the scenario.
        noise: Zero-mean Gaussian law of the measurement noise with
            covariance ``noise_cov``, built once for every run's draw.
    """

    true_disturbance: DistributionSpec
    initial_state: DistributionSpec
    noise_cov: np.ndarray
    sample_count: int
    seed: int = 0
    noise: GaussianSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        noise = require_psd(np.asarray(self.noise_cov, dtype=float), "noise_cov")
        noise.flags.writeable = False
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(
            self, "noise", GaussianSpec(np.zeros(noise.shape[0]), noise)
        )


def split_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the substream identified by ``key``.

    Streams with distinct keys are statistically independent and each
    one is fully determined by ``(seed, key)``, so any draw can be
    reproduced in isolation on any process.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Realization:
    """All randomness of one closed-loop run.

    Attributes:
        x0: Initial state, ``(n_x,)``.
        w: Process disturbances, ``(T, n_x)``.
        v: Measurement noises for stages ``0..T``, ``(T + 1, n_y)``.
    """

    x0: np.ndarray
    w: np.ndarray
    v: np.ndarray


def draw_nominal_samples(
    scenario: ScenarioSpec, horizon: int, per_stage: bool = False
) -> list[np.ndarray]:
    """Draw the disturbance samples that feed nominal estimation.

    By default one shared sample set is drawn and reused at every stage
    (the disturbance law is stage-invariant).  With ``per_stage`` a
    fresh set is drawn for each stage.
    """
    rng = split_stream(scenario.seed, STREAM_NOMINAL)
    if not per_stage:
        shared = scenario.true_disturbance.sample(rng, scenario.sample_count)
        return [shared] * horizon
    return [
        scenario.true_disturbance.sample(rng, scenario.sample_count)
        for _ in range(horizon)
    ]


def draw_realization(
    scenario: ScenarioSpec, sys: LinearSystem, horizon: int, run: int
) -> Realization:
    """Draw the run's initial state, disturbances, and measurement noises.

    The draw order within the run substream is fixed (initial state,
    then all disturbances, then all noises), so a realization is fully
    determined by ``(scenario.seed, run)``.
    """
    if scenario.noise.dim != sys.n_y:
        raise DimMismatch(
            f"noise_cov is {scenario.noise.dim}x{scenario.noise.dim}, "
            f"plant has {sys.n_y} outputs"
        )
    rng = split_stream(scenario.seed, STREAM_RUN, run)
    x0 = scenario.initial_state.sample(rng, 1)[0]
    w = scenario.true_disturbance.sample(rng, horizon)
    v = scenario.noise.sample(rng, horizon + 1)
    return Realization(x0=x0, w=w, v=v)
