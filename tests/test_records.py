"""The record convention: a record that validates nothing is a NamedTuple.

A frozen dataclass generates and compiles its methods when its module
is imported, several times the cost of defining a NamedTuple, and
with array fields its generated ``__eq__`` and ``__hash__`` cannot
work.  So only the value types that check and normalize their inputs
in ``__post_init__`` are dataclasses, with ``eq=False``.
"""

import dataclasses
import importlib
import pkgutil

import wdrc


def test_only_validating_value_types_are_dataclasses():
    modules = [
        importlib.import_module(f"wdrc.{info.name}")
        for info in pkgutil.iter_modules(wdrc.__path__)
    ]
    found = []
    for module in modules:
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
            ):
                found.append(cls.__qualname__)
                assert "__post_init__" in vars(cls), cls.__qualname__
                assert not cls.__dataclass_params__.eq, cls.__qualname__
    assert found
