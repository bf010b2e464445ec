"""Correctness checks on the output of one benchmark operation.

Each check returns a list of problems; an operation with any problem
counts as failed.  Report digests let the caller require that repeated
operations on one seed write byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

REPORTS = ("costs.csv", "histogram.csv", "summary.json")

# Summary statistics are recomputed from the CSV; a reordered summation
# in the program may change the last digits, nothing more.
STAT_RTOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in REPORTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=STAT_RTOL, abs_tol=STAT_RTOL)


def _check_stats(label: str, stats: dict, costs: np.ndarray) -> list[str]:
    problems = []
    expect = {
        "count": costs.size,
        "mean": float(costs.mean()),
        "std_dev": float(costs.std(ddof=1)) if costs.size > 1 else 0.0,
        "min": float(costs.min()),
        "max": float(costs.max()),
    }
    for key, want in expect.items():
        got = stats.get(key)
        if not isinstance(got, (int, float)) or not _close(float(got), want):
            problems.append(f"{label}.{key} is {got!r}, costs.csv gives {want!r}")
    return problems


def check_campaign(out_dir: str, expected_runs: int) -> tuple[list[str], dict]:
    """Check the three reports of one ``wdrc simulate`` call.

    Returns:
        ``(problems, info)`` where ``info`` holds the values reviewers
        compare by eye: penalty, bound, mean costs and paired z-scores.
    """
    with open(os.path.join(out_dir, "summary.json")) as fh:
        try:
            summary = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"summary.json is not strict JSON: {exc}"], {}

    with open(os.path.join(out_dir, "costs.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = np.array([[float(x) for x in row] for row in body])
    problems = []
    if len(body) != expected_runs:
        problems.append(f"costs.csv has {len(body)} rows, expected {expected_runs}")
    if body and not np.array_equal(table[:, 0], np.arange(len(body))):
        problems.append("costs.csv run column is not 0..runs-1")

    stats = summary.get("statistics", {})
    for col, name in enumerate(header[1:], start=1):
        label = name.removesuffix("_cost")
        costs = table[:, col]
        if not np.isfinite(costs).all():
            problems.append(f"{label} costs are not all finite")
            continue
        if label not in stats:
            problems.append(f"summary.json has no statistics for {label}")
            continue
        problems += _check_stats(label, stats[label], costs)

    with open(os.path.join(out_dir, "histogram.csv"), newline="") as fh:
        hist = list(csv.reader(fh))
    for col in range(2, len(hist[0])):
        total = sum(int(row[col]) for row in hist[1:])
        if total != expected_runs:
            problems.append(f"histogram column {hist[0][col]} sums to {total}")

    calibration = summary.get("calibration")
    certificate = summary.get("certificate")
    if certificate is None or not math.isfinite(certificate["guaranteed_bound"]):
        problems.append("summary.json has no finite certificate")
    elif calibration is not None and (
        calibration["objective"] != certificate["guaranteed_bound"]
    ):
        problems.append(
            f"calibration objective {calibration['objective']!r} != "
            f"certified bound {certificate['guaranteed_bound']!r}"
        )

    paired = summary.get("paired_tests", {})
    info = {
        "lam": summary.get("lam"),
        "bound": certificate["guaranteed_bound"] if certificate else None,
        "wdrc_mean": stats.get("wdrc", {}).get("mean"),
        "lqg_mean": stats.get("lqg", {}).get("mean"),
        "mean_z": paired.get("mean_z"),
        "std_z": paired.get("std_z"),
    }
    return problems, info


def check_oracle(stdout: str) -> list[str]:
    """Every check line of ``wdrc oracle`` must read ``ok``."""
    lines = [line for line in stdout.splitlines() if ": " in line]
    if not lines:
        return ["wdrc oracle printed no check lines"]
    return [f"oracle check failed: {line}" for line in lines if not line.startswith("ok")]
