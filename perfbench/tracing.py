"""Per-layer spans and counts, recorded from outside the program.

The ``wdrc`` modules bind each other's functions by name at import time
(``from .controller import synthesize_wdrc``), so wrapping a function in
its defining module alone would miss most calls.  :func:`installed`
therefore replaces every module-level binding of each target function
across the loaded ``wdrc`` modules, and restores them on exit.

A span records its name, start, end, parent span and operation id.
Spans stay in memory until :meth:`Tracer.write_jsonl`.  Functions
called hundreds of thousands of times per operation (the ``psdmath``
primitives) get a bare call counter instead of a span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

WDRC_MODULES = (
    "cli", "harness", "model", "bounds", "riccati", "controller",
    "worstcase", "estimator", "psdmath", "oracles",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.stack: list[int] = []
        self.op: int | None = None
        self.last_simulate_call: tuple | None = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op][key] += n

    def span_wrapper(self, name, fn, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _on_solve(tracer, args, kwargs, solve):
    tracer.count("worstcase.iterations", solve.iterations)


def _on_schedule(tracer, args, kwargs, schedule):
    # Memo hits reuse the CovSolve object.  Only returned schedules count:
    # a strict schedule that raises on a stalled stage is how calibration
    # marks a penalty infeasible, so its non-convergence is handled.
    unique = {id(s): s for s in schedule.solves}.values()
    tracer.count("worstcase.stages", len(schedule.solves))
    tracer.count("worstcase.unique_solves", len(unique))
    tracer.count("worstcase.unconverged", sum(not s.converged for s in unique))


def _on_calibrate(tracer, args, kwargs, calibration):
    tracer.count("bounds.objective_evals", len(calibration.evaluations))


def _on_emit(tracer, args, kwargs, paths):
    tracer.count("harness.report_bytes", sum(os.path.getsize(p) for p in paths.values()))


def _on_simulate(tracer, args, kwargs, result):
    tracer.last_simulate_call = (args, kwargs)


# (module, function, on_return hook); spans are named "module.function".
SPAN_TARGETS = (
    ("cli", "main", None),
    ("harness", "load_config", None),
    ("harness", "run_campaign", None),
    ("harness", "simulate_paired", _on_simulate),
    ("harness", "emit_reports", _on_emit),
    ("model", "draw_nominal_samples", None),
    ("model", "estimate_nominal", None),
    ("model", "draw_realization", None),
    ("bounds", "calibrate_lambda", _on_calibrate),
    ("bounds", "performance_ratio", None),
    ("riccati", "min_feasible_lambda", None),
    ("riccati", "check_penalty", None),
    ("riccati", "backward_pass", None),
    ("controller", "synthesize_wdrc", None),
    ("controller", "lqg_gains", None),
    ("worstcase", "forward_schedule", _on_schedule),
    ("worstcase", "solve_worst_case_cov", _on_solve),
    ("worstcase", "mean_affine", None),
    ("estimator", "covariance_path", None),
    ("oracles", "run_oracle_suite", None),
    ("oracles", "grid_max", None),
    ("oracles", "bracket_max", None),
    ("oracles", "t1_scalar_saddle", None),
)

COUNT_TARGETS = (
    ("psdmath", "symmetrize"),
    ("psdmath", "trace_sqrt_product"),
    ("psdmath", "transport_map"),
)


def import_wdrc() -> None:
    for name in WDRC_MODULES:
        importlib.import_module(f"wdrc.{name}")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every binding of the target functions through ``tracer``."""
    import_wdrc()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "wdrc" or name.startswith("wdrc."))]
    wrappers = []
    for mod, fn_name, hook in SPAN_TARGETS:
        orig = getattr(sys.modules[f"wdrc.{mod}"], fn_name)
        wrappers.append((orig, tracer.span_wrapper(f"{mod}.{fn_name}", orig, hook)))
    for mod, fn_name in COUNT_TARGETS:
        orig = getattr(sys.modules[f"wdrc.{mod}"], fn_name)
        wrappers.append((orig, tracer.count_wrapper(f"{mod}.{fn_name}", orig)))

    patches = []
    for orig, wrapper in wrappers:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    patches.append((module, attr, orig))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, orig in patches:
            setattr(module, attr, orig)


# metric -> (span names summed, self time?)
TIME_METRICS = {
    "cli.main_s": (("cli.main",), False),
    "cli.main_self_s": (("cli.main",), True),
    "harness.config_s": (("harness.load_config",), False),
    "harness.campaign_s": (("harness.run_campaign",), False),
    "harness.simulate_s": (("harness.simulate_paired",), False),
    "harness.simulate_self_s": (("harness.simulate_paired",), True),
    "harness.emit_s": (("harness.emit_reports",), False),
    "model.realization_s": (("model.draw_realization",), False),
    "model.nominal_s": (("model.draw_nominal_samples", "model.estimate_nominal"), False),
    "bounds.calibrate_s": (("bounds.calibrate_lambda",), False),
    "bounds.calibrate_self_s": (("bounds.calibrate_lambda",), True),
    "bounds.certificate_s": (("bounds.performance_ratio",), False),
    "riccati.feasibility_s": (("riccati.min_feasible_lambda",), False),
    "riccati.backward_s": (("riccati.backward_pass",), False),
    "controller.synthesize_s": (("controller.synthesize_wdrc",), False),
    "controller.lqg_s": (("controller.lqg_gains",), False),
    "worstcase.schedule_s": (("worstcase.forward_schedule",), False),
    "worstcase.schedule_self_s": (("worstcase.forward_schedule",), True),
    "worstcase.solve_s": (("worstcase.solve_worst_case_cov",), False),
    "worstcase.mean_affine_s": (("worstcase.mean_affine",), False),
    "estimator.covariance_path_s": (("estimator.covariance_path",), False),
    "oracles.suite_s": (("oracles.run_oracle_suite",), False),
    "oracles.grid_max_s": (("oracles.grid_max",), False),
    "oracles.bracket_max_s": (("oracles.bracket_max",), False),
    "oracles.saddle_s": (("oracles.t1_scalar_saddle",), False),
}

# metric -> span name whose calls it counts
CALL_METRICS = {
    "model.realizations": "model.draw_realization",
    "riccati.penalty_checks": "riccati.check_penalty",
    "riccati.backward_calls": "riccati.backward_pass",
    "controller.synthesize_calls": "controller.synthesize_wdrc",
    "worstcase.solves": "worstcase.solve_worst_case_cov",
    "estimator.covariance_path_calls": "estimator.covariance_path",
    "oracles.grid_max_calls": "oracles.grid_max",
}

# metric -> key of Tracer.counts
COUNT_METRICS = {
    "harness.report_bytes": "harness.report_bytes",
    "bounds.objective_evals": "bounds.objective_evals",
    "worstcase.stages": "worstcase.stages",
    "worstcase.iterations": "worstcase.iterations",
    "worstcase.unconverged": "worstcase.unconverged",
    "psdmath.symmetrize_calls": "psdmath.symmetrize",
    "psdmath.trace_sqrt_product_calls": "psdmath.trace_sqrt_product",
    "psdmath.transport_map_calls": "psdmath.transport_map",
}


def op_metrics(tracer: Tracer, duration=lambda t0, t1: t1 - t0) -> dict[int, dict[str, float]]:
    """Per-layer metrics of every traced operation, keyed by op id.

    ``duration(start, end)`` turns a span's clock readings into seconds,
    e.g. :meth:`speed.SpeedProbe.work_seconds`.
    """
    spans = tracer.spans
    lengths = [duration(start, end) for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += lengths[idx]
    total: dict[int, Counter] = defaultdict(Counter)
    own: dict[int, Counter] = defaultdict(Counter)
    calls: dict[int, Counter] = defaultdict(Counter)
    for idx, (name, _, _, _, op) in enumerate(spans):
        total[op][name] += lengths[idx]
        own[op][name] += lengths[idx] - child_time[idx]
        calls[op][name] += 1

    out = {}
    for op in sorted(set(total) | set(tracer.counts), key=lambda o: (o is None, o)):
        m = {}
        for metric, (names, self_time) in TIME_METRICS.items():
            source = own[op] if self_time else total[op]
            m[metric] = sum(source[n] for n in names)
        for metric, name in CALL_METRICS.items():
            m[metric] = calls[op][name]
        for metric, key in COUNT_METRICS.items():
            m[metric] = tracer.counts[op][key]
        stages = m["worstcase.stages"]
        unique = tracer.counts[op]["worstcase.unique_solves"]
        m["worstcase.memo_hit_ratio"] = 1.0 - unique / stages if stages else 0.0
        out[op] = m
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
