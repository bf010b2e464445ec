"""Problem data: plant, cost, scenario, and nominal-distribution types.

A scenario bundles the true (data-generating) distributions used by the
simulator with the sample budget used to estimate the nominal
disturbance moments that the controller sees.  Randomness is organized
as one master seed split into independent substreams keyed by purpose
and run index, so every draw is reproducible regardless of execution
order or worker layout.

Each law draws in two steps: its generator method fills standardized
numbers (standard normals or unit-interval draws) and its affine map
turns them into draws.  A campaign draws each block of runs with
:func:`draw_realizations`, which keys one run stream after the other
and maps the numbers of each sub-block of runs in one call per law,
bit for bit the per-run draws of :func:`draw_realization`.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import DimMismatch, EmptySamples, NotPD
from .psdmath import MomentPair, ValueType, psd_sqrt, require_psd, symmetrize

__all__ = [
    "LinearSystem",
    "CostSpec",
    "GaussianSpec",
    "UniformSpec",
    "DistributionSpec",
    "NominalDistribution",
    "ScenarioSpec",
    "Realization",
    "estimate_nominal",
    "split_stream",
    "draw_nominal_samples",
    "draw_realization",
    "draw_realizations",
    "matmul_rows",
    "STREAM_NOMINAL",
    "STREAM_RUN",
]

# Substream purposes for the master-seed split.
STREAM_NOMINAL = 0
STREAM_RUN = 1


def matmul_rows(
    X: np.ndarray, M: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``X @ M`` bit for bit, for rows ``X`` of shape ``(..., k)`` and a
    matrix ``M`` of shape ``(k, m)``, written into ``out`` if given.

    With ``k == 1`` it multiplies column by column and then adds
    ``0.0``, two to four times faster than ``matmul`` on a block of
    runs: gemm adds each product into +0.0, so the added ``0.0`` gives
    a zero product its sign.  Wider products go through ``matmul``, with a
    contiguous copy of ``M`` (such as a transposed view) when every
    product has two rows or more; a one-row product takes numpy's
    matrix-vector route, whose rounding depends on the layout of ``M``.
    """
    if M.shape[0] != 1:
        if X.ndim >= 2 and X.shape[-2] >= 2:
            M = np.ascontiguousarray(M)
        return np.matmul(X, M, out=out)
    if out is None:
        out = np.empty(X.shape[:-1] + M.shape[1:])
    x = X[..., 0]
    for j, m in enumerate(M[0]):
        np.multiply(x, m, out=out[..., j])
    out += 0.0
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class LinearSystem(ValueType):
    """Time-invariant linear dynamics with linear observations.

    State transition ``x+ = A x + B u + w`` and measurement
    ``y = C x + v`` with ``v`` zero-mean Gaussian of covariance ``M``.
    """

    __slots__ = _fields = ("A", "B", "C", "M")
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    M: np.ndarray

    def __init__(self, A: np.ndarray, B: np.ndarray, C: np.ndarray, M: np.ndarray):
        A = _frozen(A)
        B = _frozen(B)
        C = _frozen(C)
        M = require_psd(np.asarray(M, dtype=float), "M")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimMismatch(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise DimMismatch(f"B must have {n} rows, got {B.shape}")
        if C.ndim != 2 or C.shape[1] != n:
            raise DimMismatch(f"C must have {n} columns, got {C.shape}")
        if M.shape[0] != C.shape[0]:
            raise DimMismatch(f"M must be {C.shape[0]}x{C.shape[0]}, got {M.shape}")
        M.flags.writeable = False
        self._set(A=A, B=B, C=C, M=M)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


class CostSpec(ValueType):
    """Finite-horizon quadratic cost ``sum(x'Qx + u'Ru) + x_T'Qf x_T``."""

    __slots__ = _fields = ("Q", "Q_f", "R", "horizon")
    Q: np.ndarray
    Q_f: np.ndarray
    R: np.ndarray
    horizon: int

    def __init__(self, Q: np.ndarray, Q_f: np.ndarray, R: np.ndarray, horizon: int):
        Q = require_psd(np.asarray(Q, dtype=float), "Q")
        Q_f = require_psd(np.asarray(Q_f, dtype=float), "Q_f")
        R = require_psd(np.asarray(R, dtype=float), "R")
        if Q.shape != Q_f.shape:
            raise DimMismatch(f"Q is {Q.shape} but Q_f is {Q_f.shape}")
        if float(np.linalg.eigvalsh(R)[0]) <= 0.0:
            raise NotPD("R must be positive definite")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        for m in (Q, Q_f, R):
            m.flags.writeable = False
        self._set(Q=Q, Q_f=Q_f, R=R, horizon=horizon)


class GaussianSpec(ValueType):
    """Gaussian distribution descriptor with possibly singular covariance.

    ``factor`` is the PSD square root of the covariance, computed once
    on construction and used by every draw.
    """

    _fields = ("mean_vec", "cov_mat")
    __slots__ = _fields + ("factor",)
    mean_vec: np.ndarray
    cov_mat: np.ndarray
    factor: np.ndarray

    def __init__(self, mean_vec: np.ndarray, cov_mat: np.ndarray):
        pair = MomentPair(mean_vec, cov_mat)
        factor = psd_sqrt(pair.cov)
        factor.flags.writeable = False
        self._set(mean_vec=pair.mean, cov_mat=pair.cov, factor=factor)

    @property
    def dim(self) -> int:
        return self.mean_vec.shape[0]

    def mean(self) -> np.ndarray:
        return self.mean_vec

    def cov(self) -> np.ndarray:
        return self.cov_mat

    def moments(self) -> MomentPair:
        return MomentPair(self.mean_vec, self.cov_mat)

    def unit_draws(self, rng: np.random.Generator):
        """The generator method drawing this law's standard normals."""
        return rng.standard_normal

    def from_unit(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map standard normal rows to draws: ``mean + z @ factor.T``."""
        out = matmul_rows(z, self.factor.T, out=out)
        out += self.mean_vec
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` vectors as rows, via the PSD factor of the covariance."""
        return self.from_unit(rng.standard_normal((size, self.dim)))


class UniformSpec(ValueType):
    """Axis-aligned uniform box with componentwise bounds ``lo <= hi``."""

    __slots__ = _fields = ("lo", "hi")
    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        lo = _frozen(np.asarray(lo, dtype=float).reshape(-1))
        hi = _frozen(np.asarray(hi, dtype=float).reshape(-1))
        if lo.shape != hi.shape:
            raise DimMismatch(f"lo has shape {lo.shape}, hi {hi.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if not np.isfinite(width).all():
            raise ValueError("uniform bounds must be finite, with a finite width")
        if np.any(lo > hi):
            raise ValueError("uniform bounds require lo <= hi componentwise")
        self._set(lo=lo, hi=hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def mean(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def cov(self) -> np.ndarray:
        return np.diag((self.hi - self.lo) ** 2 / 12.0)

    def moments(self) -> MomentPair:
        return MomentPair(self.mean(), self.cov())

    def unit_draws(self, rng: np.random.Generator):
        """The generator method drawing this law's unit-interval numbers."""
        return rng.random

    def from_unit(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map unit-interval draws into the box: ``lo + (hi - lo) * u``,
        the arithmetic of ``Generator.uniform``."""
        out = np.multiply(u, self.hi - self.lo, out=out)
        out += self.lo
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.from_unit(rng.random((size, self.dim)))


DistributionSpec = Union[GaussianSpec, UniformSpec]


class NominalDistribution(ValueType):
    """Per-stage nominal disturbance moments seen by the controller.

    ``means`` (``(T, n)``) and ``covs`` (``(T, n, n)``) are the stages'
    moments stacked once, read-only, for the stacked layers.
    """

    _fields = ("stages",)
    __slots__ = _fields + ("means", "covs")
    stages: tuple[MomentPair, ...]
    means: np.ndarray
    covs: np.ndarray

    def __init__(self, stages: Sequence[MomentPair]):
        stages = tuple(stages)
        if not stages:
            raise EmptySamples("nominal distribution needs at least one stage")
        dim = stages[0].dim
        for k, pair in enumerate(stages):
            if pair.dim != dim:
                raise DimMismatch(f"stage {k} has dim {pair.dim}, expected {dim}")
        means = np.stack([pair.mean for pair in stages])
        covs = np.stack([pair.cov for pair in stages])
        means.flags.writeable = covs.flags.writeable = False
        self._set(stages=stages, means=means, covs=covs)

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


class ScenarioSpec(ValueType):
    """True data-generating laws plus the nominal sample budget; the
    measurement noise is the plant's, Gaussian with covariance ``M``.

    Attributes:
        true_disturbance: Law of the process disturbance at every stage.
        initial_state: Law of the initial state.
        sample_count: Number of disturbance samples used to estimate
            the nominal moments.
        seed: Master seed for all randomness derived from the scenario.
    """

    __slots__ = _fields = ("true_disturbance", "initial_state", "sample_count", "seed")
    true_disturbance: DistributionSpec
    initial_state: DistributionSpec
    sample_count: int
    seed: int

    def __init__(
        self,
        true_disturbance: DistributionSpec,
        initial_state: DistributionSpec,
        sample_count: int,
        seed: int = 0,
    ):
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._set(
            true_disturbance=true_disturbance,
            initial_state=initial_state,
            sample_count=sample_count,
            seed=seed,
        )


def split_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the substream identified by ``key``.

    Streams with distinct keys are statistically independent and each
    one is fully determined by ``(seed, key)``, so any draw can be
    reproduced in isolation on any process.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


class Realization(NamedTuple):
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

    The run's stream is ``split_stream(scenario.seed, STREAM_RUN, run)``
    and its draw order is fixed (initial state, then all disturbances,
    then all noises), so a realization is fully determined by
    ``(scenario.seed, run)``.  This is :func:`draw_realizations` on a
    batch of one.
    """
    x0s, w, v = draw_realizations(scenario, sys, horizon, run, 1)
    return Realization(x0=x0s[0], w=w[0], v=v[0])


_MASK32 = 0xFFFFFFFF


def _run_keys(seed: int, runs: np.ndarray) -> np.ndarray:
    """Philox keys of the run streams, ``(len(runs), 2)`` uint64.

    Row ``i`` is ``SeedSequence(seed, spawn_key=(STREAM_RUN, runs[i]))
    .generate_state(2, np.uint64)``, the key :func:`split_stream` gives
    its Philox: numpy's entropy mixing and state generation, with its
    constants, run once for all ``runs`` (uint64, below 2**64).  The
    seed's words are shared; a run index adds one 32-bit word, and a
    second one from 2**32 on.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [STREAM_RUN, runs & _MASK32]
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    high = runs >> 32
    if high.any():
        pool = [np.where(high > 0, mix(p, hashmix(high)), p) for p in pool]
    hash_const = 0x8B51F9DD
    state = []
    for p in pool:
        p = p ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        p = p * hash_const & _MASK32
        state.append(p ^ p >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


# Runs per sub-block of a block's draws: their numbers are filled into
# one buffer and mapped in one call per law.  Sub-blocks start at
# multiples of this run index.
_SUB_BLOCK = 256


def draw_realizations(
    scenario: ScenarioSpec, sys: LinearSystem, horizon: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked draws of runs ``start .. start + count - 1``.

    Returns ``(x0s, w, v)`` of shapes ``(count, n_x)``,
    ``(count, horizon, n_x)`` and ``(count, horizon + 1, n_y)``; row
    ``i`` is bitwise the realization :func:`draw_realization` gives run
    ``start + i``.  ``w`` and ``v`` are views of time-major arrays:
    swapping their first two axes gives contiguous arrays whose stage
    ``t`` holds the rows of every run.

    The noises are drawn with covariance ``sys.M``, factored once per
    call.  One vectorized pass derives the runs' stream keys.  The runs then
    go in sub-blocks of at most ``_SUB_BLOCK`` runs: one Philox
    generator is re-keyed per run through its ``state`` setter, from a
    state dict whose counter and buffer are Python lists (the setter
    reads them faster than arrays), and fills the run's row of the
    sub-block's buffer.  Consecutive laws that draw with the same
    generator method share one fill call per run: numpy's generator
    carries nothing between draws of one method, so one call of
    ``k + m`` numbers gives the numbers of a call of ``k`` followed by
    one of ``m``.  Each law then maps its slice of the sub-block's
    numbers in one call, straight into the outputs.  A run's draw thus
    costs its stream and its samples only, and beyond the outputs the
    draws hold the keys and one sub-block's numbers.

    Raises:
        ValueError: If a run index lies outside ``[0, 2**64)``.
    """
    if start < 0 or start + count > 2**64:
        raise ValueError(f"run indices {start}..{start + count - 1} leave [0, 2**64)")
    bitgen = np.random.Philox(0)
    state = bitgen.state  # counter and buffer of a fresh stream
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    rng = np.random.Generator(bitgen)
    laws = (
        (scenario.initial_state, 1),
        (scenario.true_disturbance, horizon),
        (GaussianSpec(np.zeros(sys.n_y), sys.M), horizon + 1),
    )
    keys = _run_keys(scenario.seed, np.arange(start, start + count, dtype=np.uint64))
    # One buffer per stretch of laws drawing with one method, filled by
    # it; maps: (buffer, first column, law, rows, output) per law.
    fills, maps = [], []
    for fill, stretch in groupby(laws, key=lambda lr: lr[0].unit_draws(rng)):
        members = list(stretch)
        width = sum(rows * law.dim for law, rows in members)
        raw = np.empty((min(count, _SUB_BLOCK), width))
        fills.append((fill, raw))
        offset = 0
        for law, rows in members:
            out = np.swapaxes(np.empty((rows, count, law.dim)), 0, 1)
            maps.append((raw, offset, law, rows, out))
            offset += rows * law.dim
    lo, stop = start, start + count
    while lo < stop:
        hi = min(lo - lo % _SUB_BLOCK + _SUB_BLOCK, stop)
        for i, key in enumerate(keys[lo - start : hi - start].tolist()):
            state["state"]["key"] = key
            bitgen.state = state
            for fill, raw in fills:
                fill(out=raw[i])
        size = hi - lo
        for raw, offset, law, rows, out in maps:
            unit = raw[:size, offset : offset + rows * law.dim]
            law.from_unit(
                unit.reshape(size, rows, law.dim), out=out[lo - start : hi - start]
            )
        lo = hi
    x0s, w, v = (out for *_, out in maps)
    return x0s[:, 0], w, v
