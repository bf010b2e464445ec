"""Exit codes and output artifacts of the command-line interface."""

import json

import numpy as np
import pytest
import yaml

from test_harness import base_config
from wdrc.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "campaign.yaml"
    path.write_text(yaml.safe_dump(base_config()))
    return str(path)


def test_simulate_writes_reports(config_path, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(
        [
            "simulate",
            "-c",
            config_path,
            "--runs",
            "5",
            "--out",
            str(out),
            "--dump-trace",
        ]
    )
    assert code == EXIT_OK
    assert (out / "costs.csv").exists()
    assert (out / "histogram.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "trace_wdrc.jsonl").exists()
    assert (out / "trace_lqg.jsonl").exists()
    printed = capsys.readouterr().out
    assert "summary:" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 5


def test_simulate_seed_override_changes_costs(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "-c", config_path, "--out", str(out_a)]) == EXIT_OK
    assert (
        main(["simulate", "-c", config_path, "--seed", "99", "--out", str(out_b)])
        == EXIT_OK
    )
    costs_a = (out_a / "costs.csv").read_text()
    costs_b = (out_b / "costs.csv").read_text()
    assert costs_a != costs_b
    assert json.loads((out_b / "summary.json").read_text())["seed"] == 99


def test_synthesize_dumps_coefficients(config_path, tmp_path):
    out = tmp_path / "policy.json"
    code = main(
        ["synthesize", "-c", config_path, "--lam", "6.0", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["lam"] == 6.0
    T = payload["horizon"]
    assert np.asarray(payload["P"]).shape == (T + 1, 2, 2)
    assert np.asarray(payload["K"]).shape == (T, 1, 2)
    assert np.asarray(payload["worst_case_covs"]).shape == (T, 2, 2)
    assert np.asarray(payload["filter_gains"]).shape == (T, 2, 1)
    assert len(payload["z_tilde"]) == T


def test_calibrate_reports_penalty(tmp_path):
    raw = base_config()
    raw["robustness"]["lam"] = "auto"
    raw["cost"]["horizon"] = 8
    path = tmp_path / "auto.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "cal.json"
    assert main(["calibrate", "-c", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["lam"] > 0.0
    assert np.isfinite(payload["objective"])
    assert payload["evaluations"] >= 33


def test_missing_config_exits_with_config_code(tmp_path, capsys):
    code = main(["simulate", "-c", str(tmp_path / "absent.yaml")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_with_config_code(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    raw = base_config()
    del raw["plant"]["A"]
    path.write_text(yaml.safe_dump(raw))
    assert main(["simulate", "-c", str(path)]) == EXIT_CONFIG
    assert "plant.A" in capsys.readouterr().err


def test_infeasible_penalty_exits_with_solver_code(tmp_path, capsys):
    raw = base_config()
    raw["robustness"]["lam"] = 0.05
    path = tmp_path / "tiny_lam.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["simulate", "-c", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_unconverged_stage_exits_with_solver_code(
    config_path, tmp_path, capsys, monkeypatch
):
    import dataclasses

    import wdrc.worstcase

    solve = wdrc.worstcase.solve_worst_case_cov
    monkeypatch.setattr(
        wdrc.worstcase,
        "solve_worst_case_cov",
        lambda *a, **k: dataclasses.replace(solve(*a, **k), converged=False),
    )
    settle = wdrc.worstcase._settle

    def settle_nothing(st, init):
        settled, *rest = settle(st, init)
        return (np.zeros_like(settled), *rest)

    # The forward pass settles most stages without the single-problem
    # solver; leave every stage to the solver patched above.
    monkeypatch.setattr(wdrc.worstcase, "_settle", settle_nothing)
    code = main(["simulate", "-c", config_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "stage 0 did not converge" in capsys.readouterr().err


def test_unwritable_output_exits_with_io_code(config_path, capsys):
    code = main(
        ["simulate", "-c", config_path, "--runs", "2", "--out", "/dev/null/x"]
    )
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["simulate", "--seed", "-3"], "--seed"),
        (["simulate", "--runs", "0"], "--runs"),
        (["synthesize", "--lam", "0"], "--lam"),
        (["synthesize", "--lam", "-1"], "--lam"),
    ],
)
def test_out_of_range_overrides_exit_with_config_code(
    argv, field, config_path, tmp_path, capsys
):
    code = main(argv + ["-c", config_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert field in err
    assert not (tmp_path / "o").exists()
