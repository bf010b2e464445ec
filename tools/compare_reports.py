"""Compare the outputs of two source trees of ``wdrc``, output by output.

Usage (from the repository root):

    python tools/compare_reports.py BASE_SRC HEAD_SRC

``BASE_SRC`` and ``HEAD_SRC`` are directories holding the ``wdrc``
package, such as the ``src`` directories of two checkouts.  Each command
runs in a subprocess (``python -m wdrc.cli`` with ``PYTHONPATH`` set to
the tree) on the configs of this repository:

- ``wdrc simulate`` on ``gaussian.yaml``, ``uniform.yaml`` and
  ``uniform.yaml`` with ``per_stage_nominal: true``, at the config's
  seed and at ``--seed 12`` and ``--seed 13``: exit code, stdout and
  every file in the report directory (``costs.csv``, ``histogram.csv``
  and ``summary.json``);
- ``wdrc simulate`` on ``gaussian.yaml`` with the penalty pinned at
  ``robustness.lam: 4.0``, at the config's seed: calibration is
  skipped, so sampling, rollouts and reports are compared even when a
  change moves the calibrated penalty;
- the single-policy campaigns, the same way: ``wdrc simulate`` on the
  pinned ``gaussian.yaml`` with ``--mode lqg`` and on ``uniform.yaml``
  with ``--mode wdrc``;
- the edges of the run blocks, the same way: ``wdrc simulate`` on
  ``gaussian.yaml`` with ``--runs 2500 --jobs 2``, whose second chunk
  starts at run 1250, inside a block; on the pinned ``gaussian.yaml``
  with ``--runs 8193``, two full blocks of 4096 runs and a trailing
  single run; on the pinned ``gaussian.yaml`` with ``--runs 4353
  --jobs 2``, whose second chunk starts at run 2177, inside a sub-block
  of 256 draws, and ends on a sub-block of one run; and on
  ``uniform.yaml`` with ``--dump-trace --trace-run 1777``, which adds
  the two trace files;
- ``wdrc simulate`` on ``gaussian.yaml`` at ``--seed 2813``, whose
  calibration holds the longest multiplier search of the certificates,
  at ``--seed 411`` and ``--seed 1617``, whose calibrations hold the
  slowest worst-case covariance solves, and on ``uniform.yaml`` with a
  per-stage nominal at ``--seed 2803``, whose smallest feasible penalty
  has the hardest stage;
- ``wdrc calibrate`` on the same three configs at the config's seed,
  and on ``gaussian.yaml`` with ``cost.horizon: 200``, whose
  certificates run their Lanczos slope models on stacks of fewer
  problems than a scan holds: exit code and its JSON;
- the gate calibrations: ``wdrc calibrate`` on ``gaussian.yaml`` at
  ``--seed 400`` to ``--seed 429`` and on ``uniform.yaml`` with a
  per-stage nominal at ``--seed 2800`` to ``--seed 2829``, the same
  way;
- ``wdrc synthesize`` on ``gaussian.yaml`` (calibrated penalty), on the
  pinned ``gaussian.yaml`` and on ``gaussian.yaml`` with ``--lam 4``:
  exit code and the JSON of the policy's coefficients;
- ``wdrc oracle --seed 0`` to ``--seed 15``, and ``--seed 28`` to
  ``--seed 31``, which include the program seeds that perfbench's
  ``oracle-selfcheck`` times at its ``--seed 7``: exit code and stdout;
- the solver suite: ``solve_worst_case_cov`` on the random bounded
  stage problems of ``tests/test_worstcase.py::_random_problem``, 300
  seeds each at n = 2 with a rank-1 nominal and at n = 3 with ranks 1,
  2 and 3.

One line per output says whether it is identical; a file written on one
side only differs.  For an output that differs, the line adds the
largest relative difference over its numbers when the two sides differ
in their numbers only (the text between the numbers is equal), so a
change that moves numbers on purpose shows how far.  Every command is
expected to succeed, so a nonzero exit on either side is reported as a
failure even when both sides fail alike.  The exit status is 1 if any
command fails or any output differs and 0 otherwise; a refactor that
must keep the reports byte-identical passes only with 0.

A change that moves the solver's numbers on purpose is held to a looser
gate on the gate calibrations, such as the calibrated penalty unchanged
and the bound moved by at most 1e-10 relative, or, for a change that
moves the penalty, bounds at most 1e-5 relative above the base's.  The
line before the summary reads the gate over the calibrations that
succeeded on both sides: on how many the penalty moved and the largest
relative move of the penalty, then the largest relative move of the
bound and its largest signed relative rise (negative when every bound
fell).  The solver suite prints one line per state dimension and
nominal rank: how many problems converged, ended unconverged or raised
on each side, the largest relative difference of the values where both
sides converged, and on each side the largest relative gap between a
converged solve's value and ``cov_objective``, the independent
reference, at its covariance.  Only a suite run that fails to finish
counts as a failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("gaussian", "uniform", "uniform-stagewise")
SIM_SEEDS = (None, 12, 13)
ORACLE_SEEDS = (*range(16), *range(28, 32))
GATE_SEEDS = {"gaussian": range(400, 430), "uniform-stagewise": range(2800, 2830)}
GATE_LABELS = {
    f"calibrate {name} seed={seed}" for name, seeds in GATE_SEEDS.items() for seed in seeds
}
# (state dimension, nominal rank) of the solver suite, and its seeds.
SUITE = ((2, 1), (3, 1), (3, 2), (3, 3))
SUITE_SEEDS = range(300)


def write_configs(work_dir: str) -> None:
    """The bundled configs, plus uniform with a per-stage nominal,
    gaussian with a pinned penalty and gaussian over 200 stages."""
    for name, base, overrides in (
        ("gaussian", "gaussian", {}),
        ("uniform", "uniform", {}),
        ("uniform-stagewise", "uniform", {"per_stage_nominal": True}),
        ("gaussian-lam4", "gaussian", {"robustness": {"lam": 4.0}}),
        ("gaussian-T200", "gaussian", {"cost": {"horizon": 200}}),
    ):
        with open(os.path.join(ROOT, "configs", f"{base}.yaml")) as fh:
            raw = yaml.safe_load(fh)
        for key, value in overrides.items():
            raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
        with open(os.path.join(work_dir, f"{name}.yaml"), "w") as fh:
            yaml.safe_dump(raw, fh)


def jobs() -> list[tuple[str, list[str], str | None]]:
    """``(label, cli arguments, report directory or None)`` per command."""
    out = []
    for name in CONFIGS:
        for seed in SIM_SEEDS:
            label = f"simulate {name} seed={'config' if seed is None else seed}"
            out_dir = f"out-{name}-{seed}"
            argv = ["simulate", "--config", f"{name}.yaml", "--out", out_dir]
            if seed is not None:
                argv += ["--seed", str(seed)]
            out.append((label, argv, out_dir))
    for name, flags, out_dir in (
        ("gaussian-lam4", [], "out-lam4"),
        ("gaussian-lam4", ["--mode", "lqg"], "out-lqg"),
        ("uniform", ["--mode", "wdrc"], "out-wdrc"),
        ("gaussian", ["--runs", "2500", "--jobs", "2"], "out-jobs"),
        ("gaussian-lam4", ["--runs", "8193"], "out-8193"),
        ("gaussian-lam4", ["--runs", "4353", "--jobs", "2"], "out-4353"),
        ("uniform", ["--dump-trace", "--trace-run", "1777"], "out-trace"),
        ("gaussian", ["--seed", "2813"], "out-2813"),
        ("gaussian", ["--seed", "411"], "out-411"),
        ("gaussian", ["--seed", "1617"], "out-1617"),
        ("uniform-stagewise", ["--seed", "2803"], "out-2803"),
    ):
        argv = ["simulate", "--config", f"{name}.yaml", "--out", out_dir, *flags]
        out.append((f"simulate {' '.join([name, *flags])}", argv, out_dir))
    for name in (*CONFIGS, "gaussian-T200"):
        out.append((f"calibrate {name}", ["calibrate", "--config", f"{name}.yaml"], None))
    for name, seeds in GATE_SEEDS.items():
        for seed in seeds:
            argv = ["calibrate", "--config", f"{name}.yaml", "--seed", str(seed)]
            out.append((f"calibrate {name} seed={seed}", argv, None))
    for name, flags in (("gaussian", []), ("gaussian-lam4", []), ("gaussian", ["--lam", "4"])):
        argv = ["synthesize", "--config", f"{name}.yaml", *flags]
        out.append((f"synthesize {' '.join([name, *flags])}", argv, None))
    for seed in ORACLE_SEEDS:
        out.append((f"oracle seed={seed}", ["oracle", "--seed", str(seed)], None))
    return out


# A decimal number with optional sign, fraction and exponent, or a
# non-finite float as Python and JSON spell it.
_NUMBER = re.compile(
    rb"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    rb"|(?<![A-Za-z])(?:inf|nan|Infinity|NaN)(?![A-Za-z])))"
)


def rel_diff(x: float, y: float) -> float:
    """``|x - y| / max(|x|, |y|)``: 0 for equal numbers or two NaNs, 1
    for a NaN or an infinity against anything else."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    rel = abs(x - y) / max(abs(x), abs(y))
    return rel if math.isfinite(rel) else 1.0


def largest_rel_diff(base: bytes, head: bytes) -> float | None:
    """The largest :func:`rel_diff` over the numbers of two outputs, or
    None when they differ in more than their numbers."""
    a, b = _NUMBER.split(base), _NUMBER.split(head)
    # Text sits at even positions of the split, numbers at odd ones.
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    return max(map(rel_diff, map(float, a[1::2]), map(float, b[1::2])), default=0.0)


def gate_line(pairs: list[tuple[dict, dict]]) -> str:
    """The gate over ``(base, head)`` pairs of calibration JSON."""
    moved = sum(base["lam"] != head["lam"] for base, head in pairs)
    lam = max((rel_diff(base["lam"], head["lam"]) for base, head in pairs), default=0.0)
    bounds = [(base["objective"], head["objective"]) for base, head in pairs]
    bound = max((rel_diff(x, y) for x, y in bounds), default=0.0)
    rise = max(
        (rel_diff(x, y) if y >= x else -rel_diff(x, y) for x, y in bounds), default=0.0
    )
    return (
        f"gate calibrations: lam moved in {moved} of {len(pairs)}, "
        f"lam max rel diff {lam:.3g}, bound max rel diff {bound:.3g}, "
        f"bound max rel rise {rise:.3g}"
    )


def random_problem(seed: int, n: int, rank: int):
    """The stage problem that ``tests/test_worstcase.py::_random_problem``
    draws, built on the public API that every tree has."""
    import numpy as np

    from wdrc.model import LinearSystem
    from wdrc.psdmath import symmetrize
    from wdrc.worstcase import CovObjectiveContext

    def random_psd(rng, n, jitter=1e-3):
        m = rng.standard_normal((n, n))
        return symmetrize(m @ m.T / n + jitter * np.eye(n))

    rng = np.random.default_rng(seed)
    n_y = int(rng.integers(1, n + 1))
    sys_ = LinearSystem(
        A=rng.standard_normal((n, n)) / np.sqrt(n),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((n_y, n)),
        M=random_psd(rng, n_y, jitter=0.1),
    )
    p_next, s_next = random_psd(rng, n), random_psd(rng, n)
    top = float(np.linalg.eigvalsh(p_next + s_next).max())
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
    return CovObjectiveContext(
        S_next=s_next,
        P_next=p_next,
        lam=top * (1.5 + 2.5 * rng.random()) + 1.0,
        Sigma_hat=symmetrize((basis * rng.uniform(0.05, 1.0, rank)) @ basis.T),
        P_bar=random_psd(rng, n),
        sys=sys_,
    )


def suite_worker() -> None:
    """Solve the suite with the ``wdrc`` on the path; print per
    ``"n,rank"`` each problem's ``[outcome, value, reference]``, the
    outcome being ``converged``, ``unconverged`` or ``raised`` (a solver
    error, with no value; any other exception stops the worker) and the
    reference ``cov_objective`` at the solver's covariance."""
    import numpy as np

    from wdrc.errors import WdrcError
    from wdrc.worstcase import cov_objective, solve_worst_case_cov

    out = {}
    for n, rank in SUITE:
        rows = out[f"{n},{rank}"] = []
        for seed in SUITE_SEEDS:
            ctx = random_problem(seed, n, rank)
            try:
                solve = solve_worst_case_cov(ctx)
            except (WdrcError, np.linalg.LinAlgError):
                rows.append(["raised", None, None])
                continue
            outcome = "converged" if solve.converged else "unconverged"
            rows.append([outcome, solve.z_tilde, cov_objective(solve.cov, ctx)])
    print(json.dumps(out))


def run_suite(src: str) -> dict | None:
    """:func:`suite_worker` on one tree, or None if it did not finish."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--suite-worker"],
        env=env, capture_output=True, check=False,
    )
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def suite_lines(base: dict, head: dict) -> list[str]:
    """One line per suite key of two :func:`suite_worker` outputs."""
    lines = []
    for key, rows in base.items():
        counts = []
        for outcome in ("converged", "unconverged", "raised"):
            a, b = (sum(row[0] == outcome for row in side) for side in (rows, head[key]))
            counts.append(f"{outcome} {a} -> {b}")
        gap = max(
            (rel_diff(x[1], y[1]) for x, y in zip(rows, head[key])
             if x[0] == y[0] == "converged"),
            default=0.0,
        )
        ref_a, ref_b = (
            max((rel_diff(row[1], row[2]) for row in side if row[0] == "converged"), default=0.0)
            for side in (rows, head[key])
        )
        n, rank = key.split(",")
        lines.append(
            f"solver suite n={n} rank={rank}: {', '.join(counts)}, "
            f"value max rel diff {gap:.3g}, reference max rel gap {ref_a:.3g} -> {ref_b:.3g}"
        )
    return lines


def run(src: str, work_dir: str, argv: list[str], out_dir: str | None) -> dict[str, bytes]:
    """Run one command on one tree; its outputs by name, with every file it
    wrote to ``out_dir``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "wdrc.cli", *argv],
        cwd=work_dir, env=env, capture_output=True, check=False,
    )
    outputs = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout}
    if out_dir is not None:
        out_path = os.path.join(work_dir, out_dir)
        for name in sorted(os.listdir(out_path)) if os.path.isdir(out_path) else []:
            with open(os.path.join(out_path, name), "rb") as fh:
                outputs[name] = fh.read()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_src", help="source tree of the reference side")
    parser.add_argument("head_src", help="source tree compared against it")
    args = parser.parse_args(argv)

    differing = failed = 0
    gate: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for side in ("base", "head"):
            dirs[side] = os.path.join(tmp, side)
            os.makedirs(dirs[side])
            write_configs(dirs[side])
        todo = jobs()
        # Two workers: the two sides of one command run side by side.
        with ThreadPoolExecutor(max_workers=2) as pool:
            suite = [pool.submit(run_suite, src) for src in (args.base_src, args.head_src)]
            futures = [
                (label, pool.submit(run, args.base_src, dirs["base"], cli, out),
                 pool.submit(run, args.head_src, dirs["head"], cli, out))
                for label, cli, out in todo
            ]
            for label, base_future, head_future in futures:
                base, head = base_future.result(), head_future.result()
                for side, outputs in (("base", base), ("head", head)):
                    if outputs["exit"] != b"0":
                        failed += 1
                        code = outputs["exit"].decode()
                        print(f"FAILED     {label}: {side} exited with {code}")
                if label in GATE_LABELS and base["exit"] == head["exit"] == b"0":
                    gate.append((json.loads(base["stdout"]), json.loads(head["stdout"])))
                for name in [*base, *(n for n in head if n not in base)]:
                    old, new = base.get(name), head.get(name)
                    if old == new:
                        print(f"identical  {label}: {name}")
                        continue
                    differing += 1
                    rel = None if old is None or new is None else largest_rel_diff(old, new)
                    moved = "" if rel is None else f" (numbers only, max rel diff {rel:.3g})"
                    print(f"DIFFERS    {label}: {name}{moved}")
    if gate:
        print(gate_line(gate))
    suite_base, suite_head = (future.result() for future in suite)
    for side, result in (("base", suite_base), ("head", suite_head)):
        if result is None:
            failed += 1
            print(f"FAILED     solver suite: {side} did not finish")
    if suite_base and suite_head:
        print(*suite_lines(suite_base, suite_head), sep="\n")
    print(f"{failed} run(s) failed, {differing} output(s) differ")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--suite-worker"]:
        suite_worker()
    else:
        raise SystemExit(main())
