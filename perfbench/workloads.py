"""Benchmark workloads: the inputs each one hands to the ``wdrc`` CLI.

A campaign workload is one bundled config plus a few overrides, written
as YAML into the run's work directory with a program seed derived from
the benchmark seed (``program_seeds``) as the scenario seed.  The program sees only that file and the CLI flags.
Every workload is closed loop: one operation at a time, one process,
``--jobs 1``.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field

import yaml

# The scenario seed feeds numpy's SeedSequence, which needs a
# non-negative integer; any benchmark seed maps onto one.
SEED_MODULUS = 2**32


def program_seeds(seed: int, count: int) -> list[int]:
    """``count`` program seeds for benchmark ``seed``, distinct across seeds."""
    return [(seed * count + k) % SEED_MODULUS for k in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_config: str | None = None
    overrides: dict = field(default_factory=dict)
    # Also time simulate_paired at jobs=1 against jobs=2 in the traced run.
    probe_jobs2: bool = False

    @property
    def is_campaign(self) -> bool:
        return self.base_config is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gaussian-calibrate",
            why=(
                "gaussian.yaml as bundled (lam auto, T=50, 1000 runs): "
                "calibration is ~90% of the time, so batched calibration "
                "and solver work show here"
            ),
            base_config="configs/gaussian.yaml",
        ),
        Workload(
            name="uniform-stagewise",
            why=(
                "uniform.yaml with per_stage_nominal: every stage problem "
                "is distinct, the memo never hits, per-solve cost dominates "
                "and uniform sampling runs"
            ),
            base_config="configs/uniform.yaml",
            overrides={"per_stage_nominal": True},
        ),
        Workload(
            name="gaussian-rollout-20k",
            why=(
                "gaussian.yaml with lam 4.0 pinned and 20000 runs: "
                "calibration is bypassed and sampling, batched rollouts "
                "and report writing are ~95% of the time"
            ),
            base_config="configs/gaussian.yaml",
            overrides={"robustness": {"lam": 4.0}, "runs": 20000},
            probe_jobs2=True,
        ),
        Workload(
            name="oracle-selfcheck",
            why=(
                "wdrc oracle: the 8 brute-force self-checks, the only "
                "workload that runs the oracles module"
            ),
        ),
    )
}


def _merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def write_config(
    workload: Workload, root: str, seed: int, work_dir: str
) -> tuple[str, dict]:
    """Write the workload's YAML config for ``seed``; return path and content."""
    with open(os.path.join(root, workload.base_config)) as fh:
        raw = yaml.safe_load(fh)
    raw = _merge(raw, workload.overrides)
    raw["scenario"]["seed"] = seed
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"{workload.name}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=True)
    return path, raw


def cli_argv(
    workload: Workload, config_path: str | None, seed: int, out_dir: str
) -> list[str]:
    """Arguments for ``wdrc.cli.main`` for one operation of ``workload``."""
    if not workload.is_campaign:
        return ["oracle", "--seed", str(seed)]
    return ["simulate", "--config", config_path, "--jobs", "1", "--out", out_dir]
