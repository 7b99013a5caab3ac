"""The scenario checker against jsonschema, the reference implementation of
JSON Schema 2020-12: both must accept or reject every scenario alike."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowquant import ScenarioError
from flowquant.scenarios import (_check, _schema, _walk, list_scenarios,
                                 scenario_path)

REFERENCE = jsonschema.Draft202012Validator(_schema())
SHIPPED = [json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
           for name in list_scenarios()]


def _property_names(node):
    if isinstance(node, dict):
        yield from node.get("properties", {})
        for sub in node.values():
            yield from _property_names(sub)


KEYS = sorted(set(_property_names(_schema()))) + ["bogus"]
# Values at and around the schema's bounds, of every JSON type: bools and
# null, whole-number floats, zeros and negatives, the enum strings; the
# maxima of the counts, 2^16, 2^20, 2^22 and 10^7, and one above each.
NUMBERS = [0, 0.0, -0.0, 1e-300, 0.5, 1, 1.5, 2, 2.0, 7, 8, 8.0, 11.0, 15, 16,
           16.0, 99, 100, 100.0, 1e4, 1e300, -1, -2.5,
           65536, 65537, 65536.5, 1048576, 1048577.0, 4194304, 4194304.0,
           4194305, 10_000_000, 1e7, 10_000_001, 1.0000001e7]
LEAVES = [None, True, False, *NUMBERS, "", "x", "gaussian", "superposition",
          "backflow", "x2", "oriented_arrival_s"]
JSON_VALUES = st.recursive(
    st.sampled_from(LEAVES) | st.integers(-300, 300)
    | st.floats(-1e3, 1e3, allow_nan=False) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=6)


def _containers(value):
    """Every object and array in value, the root first."""
    if isinstance(value, (dict, list)):
        yield value
        for sub in value.values() if isinstance(value, dict) else value:
            yield from _containers(sub)


def _keys(container):
    return list(container) if isinstance(container, dict) else range(len(container))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario after up to three drops, additions, swaps of a
    value for one of any JSON type, wraps of a value in an array, swaps of
    a number, or replacements of the root."""
    cfg = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "swap", "wrap", "number", "root"]))
        containers = [c for c in _containers(cfg) if c or op == "add"]
        if op == "number":
            # a member that is a number, for one near the bounds, its int
            # or float twin, or a bool
            numbers = [(c, key) for c in containers for key in _keys(c)
                       if type(c[key]) in (int, float)]
            if numbers:
                parent, key = draw(st.sampled_from(numbers))
                value = parent[key]
                twin = float(value) if type(value) is int else \
                    int(value) if value.is_integer() else value
                parent[key] = draw(st.sampled_from([twin, True, False, *NUMBERS]))
        elif op == "root" or not containers:
            cfg = draw(JSON_VALUES | st.just([cfg]))
        else:
            # the container first, so small ones are hit as often as big ones
            parent = draw(st.sampled_from(containers))
            if op == "add" and isinstance(parent, dict):
                parent[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
            elif op == "add":   # a copy of the last member, or any value
                parent.append(copy.deepcopy(parent[-1]) if parent and draw(st.booleans())
                              else draw(JSON_VALUES))
            else:
                key = draw(st.sampled_from(_keys(parent)))
                if op == "drop":
                    del parent[key]
                elif op == "swap":
                    parent[key] = draw(st.sampled_from(LEAVES) | JSON_VALUES)
                else:
                    parent[key] = [parent[key]]
    return cfg


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cfg=mutated_scenarios())
@example(cfg={"name": "one item too many", "probe_spec": {"interval": [0.0, 1.0, 2.0]}})
@example(cfg={"name": "bool for a number", "params": {"hbar": True}})
@example(cfg={"name": "whole-number float", "probe_spec": {"count": 16.0}})
@example(cfg={"name": "above the maximum",
              "grids": {"x": {"min": -1.0, "max": 1.0, "count": 4194305.0}}})
def test_checker_agrees_with_jsonschema(cfg):
    expected = {f"{e.message} (at {'/'.join(map(str, e.absolute_path)) or '<root>'})"
                for e in REFERENCE.iter_errors(cfg)}
    try:
        _check(copy.deepcopy(cfg), _schema())
    except ScenarioError as exc:
        # rejected by both, with one of the reference's own errors
        assert str(exc) in expected
    else:
        assert not expected


def test_shipped_scenarios_pass_both_checkers():
    for cfg in SHIPPED:
        assert REFERENCE.is_valid(cfg)
        assert _check(copy.deepcopy(cfg), _schema()) == cfg


def test_checker_returns_integers_as_int():
    cfg = {"name": "n", "seed": 3.0,
           "grids": {"x": {"min": -1, "max": 1, "count": 1e3}},
           "classical_limit": {"times": [2.0], "samples": 1e4,
                               "p_bins": {"min": 0, "max": 1.0, "count": 8.0}}}
    out = _check(cfg, _schema())
    counts = [out["seed"], out["grids"]["x"]["count"],
              out["classical_limit"]["samples"],
              out["classical_limit"]["p_bins"]["count"]]
    assert counts == [3, 1000, 10000, 8]
    assert all(type(v) is int for v in counts)
    # numbers typed number keep their type
    assert type(out["classical_limit"]["times"][0]) is float
    assert type(out["grids"]["x"]["min"]) is int


@pytest.mark.parametrize("node", [
    {"type": "string", "pattern": "^a"},
    {"type": "array", "items": {"type": "number", "exclusiveMaximum": 1}},
    {"$ref": "https://example.com/axis.json"},
    {"$ref": "#/$defs/missing"},
    {"$ref": "#/$defs/axis", "minimum": 1},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": ["number", "null"]},
    {"type": "boolean"},
    True,
])
def test_schema_walk_refuses_what_the_checker_does_not_interpret(node):
    schema = {"type": "object", "properties": {"a": node},
              "$defs": {"axis": {"type": "object"}}}
    _walk({**schema, "properties": {}}, schema["$defs"])
    with pytest.raises(ValueError, match="schema"):
        _walk(schema, schema["$defs"])
