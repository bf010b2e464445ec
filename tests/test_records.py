"""The record convention: a record that validates nothing is a NamedTuple,
and a value type that checks and normalizes its arguments is a
:class:`wdrc.psdmath.ValueType`.

A frozen dataclass generates and compiles its methods when its module
is imported, several times the cost of defining a plain class, and
with array fields its generated ``__eq__`` and ``__hash__`` cannot
work.  So no ``wdrc`` class is a dataclass.
"""

import dataclasses
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import wdrc
from wdrc.errors import DimMismatch, EmptySamples, NotPSD
from wdrc.estimator import BeliefState
from wdrc.model import (
    CostSpec,
    GaussianSpec,
    LinearSystem,
    NominalDistribution,
    ScenarioSpec,
    UniformSpec,
)
from wdrc.psdmath import MomentPair, ValueType


def test_no_wdrc_class_is_a_dataclass():
    modules = [
        importlib.import_module(f"wdrc.{info.name}")
        for info in pkgutil.iter_modules(wdrc.__path__)
    ]
    classes = [
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    ]
    assert classes
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def _pair(shift=0.0):
    return MomentPair(np.array([0.1, -0.2]) + shift, np.array([[0.3, 0.1], [0.1, 0.2]]))


def _gaussian():
    return GaussianSpec(np.array([0.5, -1.0]), np.array([[0.3, 0.12], [0.12, 0.1]]))


def _uniform():
    return UniformSpec(np.array([-1.0, -0.05]), np.array([1.0, 0.05]))


# (value, a change its constructor rejects, the error it raises)
VALUES = {
    "MomentPair": (_pair, {"cov": np.diag([1.0, -1.0])}, NotPSD),
    "BeliefState": (
        lambda: BeliefState(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.4, 1.0]])),
        {"cov": np.eye(3)},
        DimMismatch,
    ),
    "LinearSystem": (
        lambda: LinearSystem(
            A=np.array([[0.518, 0.266], [0.405, 0.9]]),
            B=np.array([[1.0], [0.5]]),
            C=np.array([[1.023, 1.955]]),
            M=np.array([[0.2]]),
        ),
        {"B": np.ones((3, 1))},
        DimMismatch,
    ),
    "CostSpec": (
        lambda: CostSpec(np.eye(2), 2.0 * np.eye(2), np.array([[1.0]]), horizon=5),
        {"horizon": 0},
        ValueError,
    ),
    "GaussianSpec": (_gaussian, {"cov_mat": -np.eye(2)}, NotPSD),
    "UniformSpec": (_uniform, {"lo": np.array([2.0, 0.0])}, ValueError),
    "NominalDistribution": (
        lambda: NominalDistribution((_pair(), _pair(0.5))),
        {"stages": ()},
        EmptySamples,
    ),
    "ScenarioSpec": (
        lambda: ScenarioSpec(_gaussian(), _uniform(), sample_count=10, seed=3),
        {"seed": -1},
        ValueError,
    ),
}


def _leaves(value):
    """Every stored attribute of a value type, nested ones included."""
    if isinstance(value, ValueType):
        for name in type(value).__slots__:
            yield from _leaves(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_immutable(name):
    make, _, _ = VALUES[name]
    value = make()
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", VALUES)
def test_replace_validates_as_the_constructor_does(name):
    make, bad, error = VALUES[name]
    value = make()
    args = {field: getattr(value, field) for field in value._fields}
    with pytest.raises(error) as direct:
        type(value)(**{**args, **bad})
    with pytest.raises(error) as replaced:
        value._replace(**bad)
    assert str(replaced.value) == str(direct.value)


@pytest.mark.parametrize("name", VALUES)
def test_pickling_keeps_every_array_bit_for_bit(name):
    make, _, _ = VALUES[name]
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    pairs = list(zip(_leaves(value), _leaves(copy), strict=True))
    assert any(isinstance(a, np.ndarray) for a, _ in pairs)
    for a, b in pairs:
        if isinstance(a, np.ndarray):
            assert (a.shape, a.dtype, a.flags.writeable) == (
                b.shape,
                b.dtype,
                b.flags.writeable,
            )
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b
