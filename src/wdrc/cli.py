"""Command-line entry points.

Subcommands:
    synthesize  Solve the backward recursion and worst-case schedule,
                then dump the stagewise coefficients as JSON.
    simulate    Run a paired Monte-Carlo campaign and write reports.
    calibrate   Search for the penalty minimizing the guaranteed bound.
    oracle      Run the built-in numerical self-checks.

Every subcommand but ``oracle`` starts from :func:`wdrc.harness.prepare`.

Exit codes: 0 success, 2 configuration error, 3 solver or numerical
failure (including a worst-case stage that does not converge), 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys

import numpy as np

from .bounds import calibrate_lambda
from .errors import ConfigError, WdrcError
from .harness import (
    emit_reports,
    load_config,
    prepare,
    robust_policy,
    run_campaign,
    trace_run,
    write_trace,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _check_overrides(args) -> None:
    """Reject out-of-range command-line values before any work starts."""
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError(f"must be >= 0, got {seed}", "--seed")
    runs = getattr(args, "runs", None)
    if runs is not None and runs < 1:
        raise ConfigError(f"must be >= 1, got {runs}", "--runs")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ConfigError(f"must be >= 1, got {jobs}", "--jobs")
    trace_run = getattr(args, "trace_run", None)
    if trace_run is not None and trace_run < 0:
        raise ConfigError(f"must be >= 0, got {trace_run}", "--trace-run")
    lam = getattr(args, "lam", None)
    if lam is not None and not 0.0 < lam < math.inf:
        raise ConfigError(f"must be positive and finite, got {lam}", "--lam")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        _sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    scenario, nominal, p0 = prepare(cfg, args.seed)
    ctrl, _ = robust_policy(cfg, scenario, nominal, p0, args.lam)
    sol = ctrl.solution
    payload = {
        "lam": sol.lam,
        "horizon": cfg.cost.horizon,
        "P": sol.P.tolist(),
        "S": sol.S.tolist(),
        "r": sol.r.tolist(),
        "z": sol.z.tolist(),
        "K": sol.K.tolist(),
        "L": sol.L.tolist(),
        "z_tilde": ctrl.schedule.z_tilde_path.tolist(),
        "worst_case_covs": np.stack(
            [s.cov for s in ctrl.schedule.solves]
        ).tolist(),
        "filter_gains": ctrl.schedule.gains.tolist(),
    }
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_campaign(
        cfg, mode=args.mode, seed=args.seed, runs=args.runs, jobs=args.jobs
    )
    out_dir = args.out or cfg.output_dir or "out"
    paths = emit_reports(result, out_dir)
    if args.dump_trace:
        for label, ctrl in result.policies.items():
            trace = trace_run(ctrl, result.scenario, cfg.sys, cfg.cost, args.trace_run)
            path = f"{out_dir}/trace_{label}.jsonl"
            write_trace(trace, path)
            paths[f"trace_{label}"] = path
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    scenario, nominal, _ = prepare(cfg, args.seed)
    calibration = calibrate_lambda(cfg.sys, cfg.cost, nominal, scenario, cfg.theta)
    _write_json(
        {
            "lam": calibration.lam,
            "objective": calibration.objective,
            "hit_upper": calibration.hit_upper,
            "evaluations": len(calibration.evaluations),
        },
        args.out,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracles import run_oracle_suite

    results = run_oracle_suite(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        print(f"{status:4s}  {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed")
        return EXIT_SOLVER
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdrc",
        description="Distributionally robust LQ control benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="dump stagewise policy coefficients")
    p_syn.add_argument("--config", "-c", required=True, help="YAML config path")
    p_syn.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_syn.add_argument("--lam", type=float, default=None, help="penalty override")
    p_syn.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="run a paired Monte-Carlo campaign")
    p_sim.add_argument("--config", "-c", required=True, help="YAML config path")
    p_sim.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_sim.add_argument("--runs", type=int, default=None, help="run count override")
    p_sim.add_argument(
        "--mode", choices=("wdrc", "lqg", "both"), default="both",
        help="which policies to simulate",
    )
    p_sim.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, a ceiling: at most one per CPU",
    )
    p_sim.add_argument("--out", default=None, help="report directory")
    p_sim.add_argument(
        "--dump-trace", action="store_true",
        help="also write a single-run stage trace per policy",
    )
    p_sim.add_argument(
        "--trace-run", type=int, default=0, help="run index for --dump-trace"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="search the penalty parameter")
    p_cal.add_argument("--config", "-c", required=True, help="YAML config path")
    p_cal.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_cal.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_orc = sub.add_parser("oracle", help="run numerical self-checks")
    p_orc.add_argument("--seed", type=int, default=0, help="check suite seed")
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_overrides(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_IO
    except WdrcError as exc:
        print(f"solver error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
