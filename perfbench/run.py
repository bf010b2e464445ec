"""Benchmark ``wdrc simulate`` and ``wdrc oracle`` end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload gaussian-calibrate --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 -m pytest perfbench/test_counts.py

Every operation goes through the public entry point ``wdrc.cli.main`` in
this process, one at a time (closed loop), and its output is checked.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics ``setup_s`` (median over
  fresh interpreters of importing ``wdrc.cli`` and loading the workload
  config), ``wall_s`` (time of one operation: the mean over the run's
  program seeds of the median per seed, see ``Runner``) and
  ``peak_rss_mb`` (peak resident memory of this process).  The failure
  fraction ``error_rate`` is printed above it and equals
  ``failed / attempted``.
* ``--trace 1`` first times untraced operations, then traces further
  operations with wrappers around each module's public functions (see
  ``tracing.py``) and reports the per-layer metrics, medians over the
  traced operations.  Spans go to ``perfbench/work/`` as JSONL.

Times are scaled to a reference machine speed by ``speed.SpeedProbe``;
the raw wall-clock figures are printed alongside.  Operations continue
while the next one is expected to end within ``--seconds``; at least
one always runs.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

from checks import check_campaign, check_oracle, report_digest, text_digest
from speed import SpeedProbe
from tracing import Tracer, import_wdrc, installed, median_metrics, op_metrics
from workloads import WORKLOADS, cli_argv, program_seeds, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SETUP_REPS = 9
SEEDS_PER_RUN = 4
SETUP_TIMEOUT_S = 60

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Runs in a fresh interpreter: argv is (perfbench dir, src dir, config
# path or "").  numpy is imported before timing because the probe needs
# it; everything else wdrc imports is timed.
SETUP_SNIPPET = """
import sys
from time import perf_counter
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from speed import SpeedProbe
with SpeedProbe() as probe:
    t0 = perf_counter()
    import wdrc.cli
    if sys.argv[3]:
        from wdrc.harness import load_config
        load_config(sys.argv[3])
    else:
        import wdrc.oracles
    t1 = perf_counter()
print(probe.work_seconds(t0, t1), t1 - t0)
"""

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("_speedup"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def environment() -> dict:
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure_setup(config_path: str | None) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of ``SETUP_REPS`` fresh interpreters."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, HERE, SRC, config_path or ""],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        s, r = proc.stdout.strip().splitlines()[-1].split()
        scaled.append(float(s))
        raw.append(float(r))
    return scaled, raw


class Runner:
    """Runs and checks operations of one workload at one benchmark seed.

    The seed expands to ``SEEDS_PER_RUN`` program seeds.  A timed run
    cycles through them, so that its result averages over inputs whose
    work differs (the calibration's work varies by about 15% across
    seeds); repeated seeds check that reports are byte-identical.
    """

    def __init__(self, workload, seed: int, work_dir: str):
        self.workload = workload
        self.out_dir = os.path.join(work_dir, "out")
        seeds = program_seeds(seed, SEEDS_PER_RUN)
        self.config_paths: list[str | None] = [None] * SEEDS_PER_RUN
        self.expected_runs = None
        if workload.is_campaign:
            for k, s in enumerate(seeds):
                self.config_paths[k], raw = write_config(
                    workload, ROOT, s, os.path.join(work_dir, f"seed{k}")
                )
            self.expected_runs = raw["runs"]
        self.argvs = [
            cli_argv(workload, path, s, self.out_dir)
            for path, s in zip(self.config_paths, seeds)
        ]
        self.probe = SpeedProbe()
        self.digests: dict[int, str] = {}
        self.info: dict = {"program_seed": seeds[0]}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, k: int = 0, extra_check=None) -> tuple[float, float]:
        """One operation on program seed ``k``; returns scaled and raw time."""
        import wdrc.cli

        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        problems: list[str] = []
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = wdrc.cli.main(list(self.argvs[k]))
        except Exception:
            rc = None
            problems.append(traceback.format_exc())
        end = perf_counter()

        if rc != 0:
            problems.append(f"exit code {rc}: {err.getvalue().strip()}")
        elif self.workload.is_campaign:
            found, info = check_campaign(self.out_dir, self.expected_runs)
            problems += found
            digest = report_digest(self.out_dir)
            for key, value in info.items():
                self.info.setdefault(key, value)
        else:
            problems += check_oracle(out.getvalue())
            digest = text_digest(out.getvalue())
        if rc == 0:
            self.info.setdefault("report_sha256", digest)
            if self.digests.setdefault(k, digest) != digest:
                problems.append("reports differ from an earlier operation on this seed")
        if extra_check is not None:
            problems += extra_check()
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
        return self.probe.work_seconds(start, end), end - start

    def run_for(self, seconds: float, n_seeds: int = SEEDS_PER_RUN,
                extra_check=None, on_start=None):
        """Operations while the next is expected to end within ``seconds``.

        Operation ``i`` uses program seed ``i mod n_seeds``.

        Returns:
            ``(scaled, raw)`` lists of per-operation times.
        """
        scaled: list[float] = []
        raw: list[float] = []
        start = perf_counter()
        with self.probe:
            while not raw or perf_counter() - start + statistics.median(raw) <= seconds:
                if on_start is not None:
                    on_start(len(raw))
                s, r = self.run_op(len(raw) % n_seeds, extra_check)
                scaled.append(s)
                raw.append(r)
        return scaled, raw


def seed_averaged_median(times: list[float]) -> float:
    """Mean over program seeds of the median time of that seed's operations.

    ``times[i]`` belongs to seed ``i mod SEEDS_PER_RUN``, as in ``run_for``.
    """
    return statistics.fmean(
        statistics.median(times[k::SEEDS_PER_RUN])
        for k in range(min(SEEDS_PER_RUN, len(times)))
    )


def timed_run(runner: Runner, seconds: float) -> dict:
    setup, setup_raw = measure_setup(runner.config_paths[0])
    walls, walls_raw = runner.run_for(seconds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": seed_averaged_median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s: {len(setup)} samples, raw median {statistics.median(setup_raw):.4f} s")
    print(f"wall_s: {len(walls)} samples, scaled min {min(walls):.4f} max "
          f"{max(walls):.4f} s, raw {seed_averaged_median(walls_raw):.4f} s")
    return {m: {"value": values[m], "unit": unit} for m, unit in UNITS.items()}


def _jobs2_speedup(tracer) -> float:
    """``simulate_paired`` at jobs=1 over jobs=2, untraced, same arguments."""
    import wdrc.harness

    call = inspect.signature(wdrc.harness.simulate_paired).bind(
        *tracer.last_simulate_call[0], **tracer.last_simulate_call[1]
    )
    times = {}
    for jobs in (1, 2):
        call.arguments["jobs"] = jobs
        start = perf_counter()
        wdrc.harness.simulate_paired(*call.args, **call.kwargs)
        times[jobs] = perf_counter() - start
    return times[1] / times[2]


def traced_run(runner: Runner, seconds: float, trace_path: str) -> dict:
    """Untraced then traced operations, all on the first program seed."""
    plain, _ = runner.run_for(seconds / 2, n_seeds=1)
    tracer = Tracer()

    def set_op(index: int) -> None:
        tracer.op = index

    def unconverged() -> list[str]:
        n = tracer.counts[tracer.op]["worstcase.unconverged"]
        return [f"{n} worst-case covariance solves did not converge"] if n else []

    with installed(tracer):
        traced, _ = runner.run_for(
            seconds / 2, n_seeds=1, extra_check=unconverged, on_start=set_op
        )
    tracer.op = None
    per_op = op_metrics(tracer, runner.probe.work_seconds)
    values = median_metrics([per_op[i] for i in range(len(traced))])
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["harness.jobs2_speedup"] = (
        _jobs2_speedup(tracer) if runner.workload.probe_jobs2 else 0.0
    )
    tracer.write_jsonl(trace_path)
    print(f"untraced ops: {len(plain)}; traced ops: {len(traced)}; "
          f"spans: {len(tracer.spans)} -> {os.path.relpath(trace_path, ROOT)}")
    return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/wdrc/cli.py", "configs/gaussian.yaml", "configs/uniform.yaml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]

    import wdrc

    if os.path.dirname(os.path.abspath(wdrc.__file__)) != os.path.join(SRC, "wdrc"):
        print(f"perfbench: imported wdrc from {wdrc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_wdrc()

    print("env " + json.dumps(environment(), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir)
    try:
        runner = Runner(workload, args.seed, work_dir)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{args.seed}.jsonl")
            metrics = traced_run(runner, args.seconds, trace_path)
        else:
            metrics = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print("info " + json.dumps(runner.info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']!r} {m['unit']}")
    print(f"{workload.name} error_rate = {failed / runner.attempted!r} fraction "
          f"({failed}/{runner.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
