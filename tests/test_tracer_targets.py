"""perfbench's tracer wraps program functions by name."""

import importlib
import importlib.util
from pathlib import Path

from conftest import random_problem
from wdrc.harness import load_config, prepare
from wdrc.riccati import backward_pass
from wdrc.worstcase import forward_schedule, solve_worst_case_cov

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_callable_of_its_module():
    """``perfbench/tracing.py`` looks each target up with ``getattr``
    when it installs its wrappers, so a deleted or renamed function
    stops every traced benchmark run before it measures anything."""
    tracing = _tracing()
    targets = [(mod, name) for mod, name, _ in tracing.SPAN_TARGETS]
    targets += list(tracing.COUNT_TARGETS)
    assert targets
    missing = [
        f"wdrc.{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"wdrc.{mod}"), name, None))
    ]
    assert not missing, missing


def test_solver_return_hooks_read_real_return_values():
    """The tracer's return hooks read ``iterations``, ``solves`` and
    ``converged`` off what the wrapped functions return, and a hook
    that raises stops every traced benchmark run: run each on a real
    return value and check the counts it records."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    solve = solve_worst_case_cov(random_problem(0, 2, 1))
    tracing._on_solve(tracer, (), {}, solve)

    cfg = load_config(str(ROOT / "configs" / "gaussian.yaml"))
    _, nominal, p0 = prepare(cfg)
    sol = backward_pass(cfg.sys, cfg.cost, nominal, 4.0)
    schedule = forward_schedule(cfg.sys, sol, nominal, p0)
    tracing._on_schedule(tracer, (cfg.sys, sol, nominal, p0), {}, schedule)

    counts = tracer.counts[None]
    assert counts["worstcase.iterations"] == solve.iterations > 0
    assert counts["worstcase.stages"] == cfg.cost.horizon
    assert 0 < counts["worstcase.unique_solves"] < cfg.cost.horizon
    assert counts["worstcase.unconverged"] == 0
