"""The identity gate of ``tools/compare_reports.py``, on stubbed runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "jobs", lambda: [("calibrate x", ["calibrate"], None)])
    return module


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
