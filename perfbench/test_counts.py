"""Count checks on traced benchmark operations.

Run from the repository root:

    python3 -m pytest perfbench/test_counts.py

Each workload's operation is traced twice at one seed; the work counts
must repeat exactly, and they must match what each workload was chosen
to exercise.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from tracing import (  # noqa: E402
    CALL_METRICS,
    COUNT_METRICS,
    TIME_METRICS,
    Tracer,
    installed,
    op_metrics,
)
from workloads import WORKLOADS  # noqa: E402

SEED = 3
CAMPAIGNS = [name for name, w in WORKLOADS.items() if w.is_campaign]
COUNT_KEYS = [*CALL_METRICS, *COUNT_METRICS, "worstcase.memo_hit_ratio"]


def _traced_op(name: str, work_dir: str) -> dict:
    runner = run.Runner(WORKLOADS[name], SEED, work_dir)
    tracer = Tracer()
    tracer.op = 0
    with installed(tracer):
        runner.run_for(0)
    assert runner.failures == []
    metrics = op_metrics(tracer)[0]
    return {k: metrics[k] for k in COUNT_KEYS}


@pytest.fixture(scope="module")
def counts(tmp_path_factory):
    cache: dict[str, list[dict]] = {}

    def get(name: str, repeat: int = 0) -> dict:
        runs = cache.setdefault(name, [])
        while len(runs) <= repeat:
            runs.append(_traced_op(name, str(tmp_path_factory.mktemp(name))))
        return runs[repeat]

    return get


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_repeated_traced_operations_give_identical_counts(counts, name):
    assert counts(name, 0) == counts(name, 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_no_unconverged_solves(counts, name):
    assert counts(name)["worstcase.unconverged"] == 0


def test_pinned_penalty_skips_calibration(counts):
    rollout = counts("gaussian-rollout-20k")
    assert rollout["bounds.objective_evals"] == 0
    assert rollout["riccati.penalty_checks"] == 0
    assert rollout["model.realizations"] == 20000


def test_memo_hits_only_on_stationary_nominal(counts):
    assert counts("gaussian-calibrate")["worstcase.memo_hit_ratio"] > 0
    assert counts("uniform-stagewise")["worstcase.memo_hit_ratio"] == 0


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_campaigns_never_run_oracles(counts, name):
    assert counts(name)["oracles.grid_max_calls"] == 0


def test_oracle_workload_runs_oracles(counts):
    assert counts("oracle-selfcheck")["oracles.grid_max_calls"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.op = 0
    tracer.spans = [
        ("harness.simulate_paired", 0.0, 10.0, None, 0),
        ("model.draw_realization", 1.0, 3.0, 0, 0),
        ("model.draw_realization", 4.0, 7.0, 0, 0),
    ]
    m = op_metrics(tracer)[0]
    assert m["harness.simulate_s"] == 10.0
    assert m["harness.simulate_self_s"] == 5.0
    assert m["model.realization_s"] == 5.0
    assert m["model.realizations"] == 2


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {
        *TIME_METRICS, *CALL_METRICS, *COUNT_METRICS,
        "worstcase.memo_hit_ratio", "trace.overhead_s", "harness.jobs2_speedup",
    }
    assert per_layer == {name: run._unit(name) for name in names}
