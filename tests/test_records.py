"""The behaviour every frozen record of the package shares: construction by
position and by keyword with its defaults, refusal of a missing or unknown
argument, no assignment or deletion, equality and hash by fields (by
identity for the records that hold arrays), a repr naming every field in
order, a deepcopy round trip and a constructor signature that lists the
fields."""

import copy
import inspect
import math

import numpy as np
import pytest

import flowquant as fq
from flowquant.flows import StraightenResult

_GRID = fq.Grid1D(-1.0, 0.25, 8)
_PARAMS = fq.PhysicalParams(0.5, 2.0)
_SAMPLE = fq.EscapeSample(0.25, -1, 3.5)


def _floats(k: float) -> np.ndarray:
    return np.full(_GRID.count, k)


# Each record: every field's value in order, its defaulted fields with their
# defaults, whether it compares by fields, and another value for its last
# field, which a record compared by fields must tell apart.
RECORDS = [
    (fq.Grid1D, (-1.0, 0.25, 8), {}, True, 16),
    (fq.PhysicalParams, (0.5, 2.0), {"hbar": 1.0, "mass": 1.0}, True, 3.0),
    (fq.WaveFunction,
     (_GRID, np.ones(8, dtype=np.complex128), fq.Representation.POSITION, _PARAMS),
     {"params": fq.PhysicalParams()}, False, None),
    (fq.BackflowSpec, (1.5, 3.5, 1.0, 1.2, 0.5, 0.2),
     {"p1": 1.0, "p2": 3.0, "a1": 1.0, "a2": 1.6, "rel_phase": math.pi, "sigma": 0.1},
     True, 0.25),
    (fq.TransformReport, (1.0, 1.0000001, 1e-7), {}, True, 2e-7),
    (fq.VectorField1D, (np.square, np.negative, ((0.0, math.inf),), (0.0,), "x2"),
     {"deriv": None, "domain": ((-math.inf, math.inf),), "zeros": (), "label": ""},
     True, "y"),
    (fq.FlowResult, (1.5, None, True), {}, True, False),
    (fq.ProbeSpec, ((-2.0, 2.0), 64, 1.0),
     {"interval": (-10.0, 10.0), "count": 2048, "t_probe": 4.0}, True, 2.0),
    (fq.EscapeSample, (0.25, -1, 3.5), {}, True, 4.5),
    (fq.FlowClass,
     (fq.FlowVerdict.HALF_LINE_INCOMPLETE, 0.25, 0.0, 2, 0.0, 0.25, 0, 2, (_SAMPLE,)),
     {"escape_samples": ()}, True, ()),
    (StraightenResult, (np.sin, np.arcsin, True), {}, True, False),
    (fq.PhaseSpaceEnsemble,
     (np.array([0.0, 1.0]), np.array([1.0, 2.0]), _PARAMS),
     {}, False, None),
    (fq.Histogram, (np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.75])), {}, False, None),
    (fq.ArrivalDistribution,
     (_GRID, _floats(1.0), _floats(0.5), _floats(0.25), _floats(0.25), 0.75, 0.25,
      np.ones(8, dtype=np.complex128)),
     {}, False, None),
    (fq.ArrivalMoments, (1.0, 0.25), {}, True, 0.5),
]
_KINDS = {record[0] for record in RECORDS}


def _fields(cls) -> list[str]:
    return list(cls.__annotations__)


def _alike(made, want) -> bool:
    """Equal values: arrays by content, records field by field."""
    if isinstance(want, np.ndarray):
        return isinstance(made, np.ndarray) and np.array_equal(made, want, equal_nan=True)
    if type(want) in _KINDS:
        return type(made) is type(want) and all(
            _alike(getattr(made, name), getattr(want, name)) for name in _fields(type(want)))
    if isinstance(want, tuple):
        return (type(made) is tuple and len(made) == len(want)
                and all(map(_alike, made, want)))
    return made is want or made == want


def _holds(record, names, values) -> bool:
    return all(_alike(getattr(record, name), value) for name, value in zip(names, values))


def test_every_record_is_listed():
    assert len(RECORDS) == len(_KINDS) == 15


@pytest.mark.parametrize("cls, values, defaults, by_fields, other", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_behaves_like_a_frozen_dataclass(cls, values, defaults, by_fields, other):
    names = _fields(cls)
    assert len(names) == len(values) and set(defaults) <= set(names)
    required = len(names) - len(defaults)
    assert not set(defaults) & set(names[:required])  # defaults come last
    assert cls.__match_args__ == tuple(names)

    # by position, by keyword, and with the defaults
    record = cls(*values)
    assert _holds(record, names, values)
    assert _holds(cls(**dict(zip(names, values))), names, values)
    assert _holds(cls(*values[:1], **dict(zip(names[1:], values[1:]))), names, values)
    with_defaults = cls(*values[:required])
    assert _holds(with_defaults, names, [*values[:required], *defaults.values()])

    # a missing, surplus, unknown or repeated argument
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])

    # frozen
    for name in (names[0], names[-1], "bogus"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    for name in (names[0], names[-1]):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _holds(record, names, values)

    # equality and hash: by fields, or by identity
    twin = cls(*values)
    assert record == record and not record != record
    if by_fields:
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(tuple(getattr(record, n) for n in names))
        assert record != cls(*values[:-1], other)
        assert record != tuple(values)
    else:
        assert record != twin and not record == twin
        assert hash(record) == object.__hash__(record)

    # repr names every field in order
    assert repr(record) == (f"{cls.__qualname__}("
                            + ", ".join(f"{n}={getattr(record, n)!r}" for n in names) + ")")

    # a deep copy is a record of the same values, still frozen
    clone = copy.deepcopy(record)
    assert type(clone) is cls and _alike(clone, record)
    with pytest.raises(AttributeError):
        setattr(clone, names[0], values[0])

    # the constructor's signature lists the fields and which have defaults
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names
    for name, parameter in parameters.items():
        assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert (parameter.default is inspect.Parameter.empty) == (name not in defaults)
