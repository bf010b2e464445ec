"""The identity gate of ``tools/compare_reports.py``, on stubbed runs."""

import subprocess
from pathlib import Path

import pytest

from conftest import compare_reports


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(
        compare_reports, "jobs", lambda: [("calibrate x", ["calibrate"], None)]
    )
    monkeypatch.setattr(compare_reports, "run_suite", lambda src: {})
    return compare_reports


def _stub(tool, monkeypatch, by_side):
    def run(src, work_dir, argv, out_dir):
        code, stdout = by_side[src]
        return {"exit": str(code).encode(), "stdout": stdout}

    monkeypatch.setattr(tool, "run", run)


@pytest.mark.parametrize(
    "base, head, status",
    [
        ((0, b"{}"), (0, b"{}"), 0),
        ((0, b"{}"), (0, b"{ }"), 1),
        ((3, b""), (3, b""), 1),  # failing alike is still a failure
        ((0, b"{}"), (2, b""), 1),
    ],
    ids=["identical", "differs", "both-fail", "head-fails"],
)
def test_gate_passes_only_identical_successful_runs(
    tool, monkeypatch, capsys, base, head, status
):
    _stub(tool, monkeypatch, {"base": base, "head": head})
    assert tool.main(["base", "head"]) == status
    out = capsys.readouterr().out
    assert ("FAILED" in out) == (base[0] != 0 or head[0] != 0)


def test_a_file_written_on_one_side_only_differs(tool, monkeypatch, capsys):
    outputs = {
        "base": {"exit": b"0", "stdout": b""},
        "head": {"exit": b"0", "stdout": b"", "trace_wdrc.jsonl": b"{}"},
    }
    monkeypatch.setattr(tool, "run", lambda src, work_dir, argv, out: outputs[src])
    assert tool.main(["base", "head"]) == 1
    assert "DIFFERS    calibrate x: trace_wdrc.jsonl" in capsys.readouterr().out


def test_run_reads_every_file_of_the_report_directory(tool, monkeypatch, tmp_path):
    def fake_run(cmd, cwd, **kwargs):
        out = Path(cwd) / "out"
        out.mkdir()
        (out / "costs.csv").write_bytes(b"c")
        (out / "trace_lqg.jsonl").write_bytes(b"t")
        return subprocess.CompletedProcess(cmd, 0, b"ok", b"")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run("src", str(tmp_path), ["simulate"], "out") == {
        "exit": b"0",
        "stdout": b"ok",
        "costs.csv": b"c",
        "trace_lqg.jsonl": b"t",
    }


def test_a_differing_output_shows_how_far_its_numbers_moved(tool, monkeypatch, capsys):
    outputs = {
        "base": {"exit": b"0", "stdout": b'{"lam": 2.5, "bound": 8.0, "runs": 1000}'},
        "head": {"exit": b"0", "stdout": b'{"lam": 2.5, "bound": 8.000004, "runs": 1000}'},
    }
    monkeypatch.setattr(tool, "run", lambda src, work_dir, argv, out: outputs[src])
    assert tool.main(["base", "head"]) == 1
    assert (
        "DIFFERS    calibrate x: stdout (numbers only, max rel diff 5e-07)"
        in capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "base, head, rel",
    [
        (b"a,b\n1.5,-2e-3\n", b"a,b\n1.5,-2e-3\n", 0.0),
        (b"a,b\n1.5,-2e-3\n", b"a,b\n1.5,-1e-3\n", 0.5),
        (b'{"x": 4, "y": inf}', b'{"x": 3, "y": inf}', 0.25),
        (b'{"x": NaN}', b'{"x": 1.0}', 1.0),
        (b"converged at stage 3", b"diverged at stage 3", None),
        (b"1 2", b"1 2 3", None),
    ],
    ids=["equal", "csv", "json-inf", "nan", "text", "count"],
)
def test_largest_rel_diff_compares_numbers_when_the_text_matches(tool, base, head, rel):
    assert tool.largest_rel_diff(base, head) == rel


def test_gate_line_reads_penalty_and_bound_moves_of_the_gate_calibrations(
    tool, monkeypatch, capsys
):
    """The gate line counts the calibrations whose penalty moved and
    gives the largest relative move of their penalties, the largest
    relative move of their bounds and the largest signed rise of their
    bounds, which a larger fall elsewhere does not hide."""
    gate = sorted(tool.GATE_LABELS)[:2]
    stdout = {
        ("base", gate[0]): b'{"lam": 2.5, "objective": 8.0}',
        ("head", gate[0]): b'{"lam": 2.5, "objective": 8.000000000008}',
        ("base", gate[1]): b'{"lam": 3.0, "objective": 1.0}',
        ("head", gate[1]): b'{"lam": 3.1, "objective": 0.99999999}',
    }
    monkeypatch.setattr(
        tool, "run",
        lambda src, work_dir, argv, out: {"exit": b"0", "stdout": stdout[src, argv[-1]]},
    )
    monkeypatch.setattr(tool, "jobs", lambda: [(label, ["calibrate", label], None) for label in gate])
    assert tool.main(["base", "head"]) == 1
    assert (
        "gate calibrations: lam moved in 1 of 2, lam max rel diff 0.0323, "
        "bound max rel diff 1e-08, bound max rel rise 1e-12"
    ) in capsys.readouterr().out


def test_solver_suite_line_reads_outcome_counts_and_value_gaps(tool, monkeypatch, capsys):
    """Per state dimension and nominal rank the suite line counts each
    side's outcomes, gives the largest relative value difference over
    the problems that converged on both sides only, and per side the
    largest relative gap between a converged value and its reference;
    a suite that did not finish is a failed run."""
    base = {
        "3,2": [["converged", 2.0, 2.0], ["unconverged", 5.0, 1.0], ["converged", 1.0, 1.001]]
    }
    head = {
        "3,2": [["converged", 2.000002, 2.000002], ["converged", 9.0, 9.0], ["raised", None, None]]
    }
    assert tool.suite_lines(base, head) == [
        "solver suite n=3 rank=2: converged 2 -> 2, unconverged 1 -> 0, "
        "raised 0 -> 1, value max rel diff 1e-06, reference max rel gap 0.000999 -> 0"
    ]
    _stub(tool, monkeypatch, {"base": (0, b"{}"), "head": (0, b"{}")})
    suites = {"base": base, "head": None}
    monkeypatch.setattr(tool, "run_suite", lambda src: suites[src])
    assert tool.main(["base", "head"]) == 1
    assert "FAILED     solver suite: head did not finish" in capsys.readouterr().out
