"""Exit codes and output artifacts of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import wdrc
from test_harness import base_config
from wdrc.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from wdrc.harness import load_config


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


def test_single_policy_trace_dump_writes_only_that_policy(config_path, tmp_path):
    out = tmp_path / "reports"
    argv = ["simulate", "-c", config_path, "--runs", "3", "--out", str(out)]
    assert main([*argv, "--mode", "wdrc", "--dump-trace"]) == EXIT_OK
    traces = sorted(path.name for path in out.glob("trace_*"))
    assert traces == ["trace_wdrc.jsonl"]


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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML has no libyaml loader"
)


@needs_libyaml
@pytest.mark.parametrize("name", ["gaussian", "uniform"])
def test_both_yaml_loaders_read_configs_alike(name, monkeypatch):
    """libyaml and PyYAML's own reader give the same echo and the same
    bits in every plant, cost and scenario array."""
    path = str(CONFIG_DIR / f"{name}.yaml")
    fast = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader")
    pure = load_config(path)
    assert fast.echo == pure.echo

    def arrays(cfg):
        laws = (cfg.scenario.true_disturbance, cfg.scenario.initial_state)
        return [getattr(x, name) for x in (cfg.sys, cfg.cost, *laws)
                for name in x.__slots__]

    for a, b in zip(arrays(fast), arrays(pure), strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@needs_libyaml
@pytest.mark.parametrize("pure", [False, True], ids=["libyaml", "python"])
def test_truncated_yaml_exits_with_config_code(pure, tmp_path, capsys, monkeypatch):
    if pure:
        monkeypatch.delattr(yaml, "CSafeLoader")
    path = tmp_path / "truncated.yaml"
    path.write_text("plant:\n  A: [[0.518, 0.266], [0.405\n")
    assert main(["simulate", "-c", str(path)]) == EXIT_CONFIG
    assert "invalid YAML:" in capsys.readouterr().err


@needs_libyaml
@pytest.mark.parametrize("pure", [False, True], ids=["libyaml", "python"])
def test_non_utf8_config_exits_with_config_code(pure, tmp_path, capsys, monkeypatch):
    if pure:
        monkeypatch.delattr(yaml, "CSafeLoader")
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"a: \xff\xfe\n")
    assert main(["simulate", "-c", str(path)]) == EXIT_CONFIG
    assert "config is not UTF-8 text" in capsys.readouterr().err


def test_noise_cov_key_exits_with_config_code(tmp_path, capsys):
    """The measurement noise is the plant's ``M``: a scenario that sets
    its own noise covariance, even one of the right size, is an unknown
    key."""
    raw = base_config()
    raw["scenario"]["noise_cov"] = [[1.0]]
    path = tmp_path / "own_noise.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["simulate", "-c", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "scenario.noise_cov" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "law",
    [
        {"type": "uniform", "lo": [0.5, -0.05], "hi": [0.05, 0.05]},
        {"type": "uniform", "lo": [-0.05, -0.05], "hi": [float("inf"), 0.05]},
        {"type": "uniform", "lo": [-0.05, -0.05], "hi": [0.05, 0.05, 0.05]},
        {"type": "gaussian", "mean": [0.0, 0.0], "cov": [[0.01, 0.0], [0.0, -0.01]]},
        {"type": "gaussian", "mean": [[0.01], [0.02]], "cov": [[0.01, 0.0], [0.0, 0.01]]},
        {"type": "uniform", "lo": [[-0.05], [-0.05]], "hi": [0.05, 0.05]},
        {"type": "uniform", "lo": [-0.05, -0.05], "hi": [[0.05, 0.05]]},
    ],
    ids=["inverted", "infinite", "shapes", "not-psd", "nested-mean", "nested-lo",
         "nested-hi"],
)
def test_bad_law_parameters_exit_with_config_code(law, tmp_path, capsys):
    raw = base_config()
    raw["scenario"]["true_disturbance"] = law
    path = tmp_path / "bad_box.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["simulate", "-c", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "scenario.true_disturbance" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("plant", "M", [[-0.2]]),
        ("cost", "R", [[0.0]]),
        ("plant", "A", 0.5),
        ("cost", "Q_f", [[[1.0]]]),
        ("cost", "R", [[[1.0]]]),
    ],
    ids=[
        "plant-noise-not-psd",
        "cost-input-weight-not-pd",
        "plant-dynamics-scalar",
        "cost-terminal-weight-stacked",
        "cost-input-weight-stacked",
    ],
)
def test_bad_model_matrix_exits_with_config_code(
    section, key, value, tmp_path, capsys
):
    raw = base_config()
    raw[section][key] = value
    path = tmp_path / "bad_matrix.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["simulate", "-c", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"config error: {section}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_imports_leave_scipy_and_the_oracles_unloaded():
    """The CLI loads the oracles only when ``wdrc oracle`` runs, and no
    import or command loads scipy: the whole oracle suite, quadrature
    included, runs on numpy alone."""
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import wdrc.cli\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'wdrc.oracles' not in sys.modules\n"
        "import wdrc.oracles\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert wdrc.cli.main(['oracle', '--seed', '0']) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
    )
    src = str(Path(wdrc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_command_loads_no_campaign_code():
    """``wdrc oracle`` runs without the campaign harness, PyYAML or
    ``dataclasses``, and the package still resolves every name it
    exports, the harness's on first use."""
    code = (
        "import sys\n"
        "import wdrc.cli\n"
        "import wdrc.oracles\n"
        "assert wdrc.cli.main(['oracle', '--seed', '0']) == 0\n"
        "loaded = {'yaml', 'wdrc.harness', 'dataclasses'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "import wdrc\n"
        "for name in wdrc.__all__:\n"
        "    getattr(wdrc, name)\n"
        "from wdrc import run_campaign\n"
        "import wdrc.harness\n"
        "assert run_campaign is wdrc.harness.run_campaign\n"
    )
    src = str(Path(wdrc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


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
    import wdrc.worstcase

    settle = wdrc.worstcase._settle

    def settle_nothing(st, init):
        return [s._replace(converged=False) for s in settle(st, init)]

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
        (["simulate", "--jobs", "0"], "--jobs"),
        (["simulate", "--jobs", "-2"], "--jobs"),
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


def _recipe_config(n: int, sample_count: int) -> dict:
    """A random plant with ``n`` states, one input and one output: ``A``
    rescaled to spectral radius 0.95, and a Gaussian disturbance of mean 0.01 per entry and
    covariance ``L L' + 0.002 I``, all drawn from seed 0."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    A *= 0.95 / np.abs(np.linalg.eigvals(A)).max()
    B = rng.standard_normal((n, 1))
    C = rng.standard_normal((1, n))
    L = 0.05 * rng.standard_normal((n, n))
    eye = np.eye(n)
    return {
        "plant": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(), "M": [[0.2]]},
        "cost": {"Q": eye.tolist(), "Q_f": eye.tolist(), "R": [[1.0]], "horizon": 50},
        "robustness": {"theta": 0.1, "lam": "auto"},
        "scenario": {
            "true_disturbance": {
                "type": "gaussian",
                "mean": [0.01] * n,
                "cov": (L @ L.T + 0.002 * eye).tolist(),
            },
            "initial_state": {"type": "gaussian", "mean": [-1.0] * n, "cov": (0.001 * eye).tolist()},
            "sample_count": sample_count,
            "seed": 2,
        },
        "runs": 1000,
    }


@pytest.mark.parametrize("n, sample_count", [(3, 2), (4, 3)], ids=["n3-rank1", "n4-rank2"])
def test_calibrate_plants_with_rank_deficient_nominals(tmp_path, n, sample_count):
    """With fewer samples than states every nominal covariance is
    singular (rank ``sample_count - 1``); the calibration still certifies
    a finite bound over its full scan."""
    path = tmp_path / "recipe.yaml"
    path.write_text(yaml.safe_dump(_recipe_config(n, sample_count)))
    cfg = wdrc.load_config(str(path))
    nominal = wdrc.harness.prepare(cfg)[1]
    assert {int(np.linalg.matrix_rank(cov)) for cov in nominal.covs} == {sample_count - 1}
    out = tmp_path / "cal.json"
    assert main(["calibrate", "-c", str(path), "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert np.isfinite(payload["objective"])
    assert payload["evaluations"] == 93
