"""perfbench's tracer wraps program functions by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_its_module():
    """``perfbench/tracing.py`` looks each target up with ``getattr``
    when it installs its wrappers, so a deleted or renamed function
    stops every traced benchmark run before it measures anything."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, name) for mod, name, _ in tracing.SPAN_TARGETS]
    targets += list(tracing.COUNT_TARGETS)
    assert targets
    missing = [
        f"wdrc.{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"wdrc.{mod}"), name, None))
    ]
    assert not missing, missing
