"""Scenario configuration files: schema validation and object construction.

A scenario is a single JSON file validated against the published schema
(``flowquant/schema/scenario.schema.json``); unknown keys are rejected so
configs stay diff-able and reproducible.  The check is this module's own
interpreter of the few JSON Schema 2020-12 keywords the schema uses; the
tests hold it to the jsonschema package.
"""

import json
import math
from functools import cache
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .errors import ScenarioError
from .grids import (BackflowSpec, Grid1D, PhysicalParams, Representation,
                    WaveFunction, _normalized, gaussian_packet,
                    make_backflow_packet)

# flows is imported by the builders that use it, so that only the commands
# that run it load it.
if TYPE_CHECKING:
    from .flows import ProbeSpec, VectorField1D


# The schema keywords the checker below interprets, JSON Schema 2020-12
# (Validation §6); $schema, title and $defs carry no rule.
_KEYWORDS = frozenset({
    "$schema", "title", "$defs", "$ref", "type", "properties",
    "additionalProperties", "required", "enum", "minimum", "exclusiveMinimum",
    "maximum", "items", "minItems", "maxItems", "minLength"})

# A bool is not a number, and an integer is any number without a fraction.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _walk(node, defs: dict) -> None:
    """Refuse a schema node that ``_check`` would not apply in full."""
    if not isinstance(node, dict):
        raise ValueError(f"schema node {node!r} is not an object")
    unknown = sorted(set(node) - _KEYWORDS)
    if unknown:
        raise ValueError(f"schema keyword {unknown[0]!r} is not interpreted")
    if "$ref" in node and (len(node) > 1 or node["$ref"] not in
                           {f"#/$defs/{name}" for name in defs}):
        raise ValueError(f"schema $ref {node['$ref']!r} is not a bare local one")
    if node.get("additionalProperties", False) is not False:
        raise ValueError("schema additionalProperties other than false")
    if node.get("type", "object") not in tuple(_TYPES):  # nor a list of types
        raise ValueError(f"schema type {node['type']!r} is not interpreted")
    subs = [*node.get("properties", {}).values(), *node.get("$defs", {}).values()]
    if "items" in node:
        subs.append(node["items"])
    for sub in subs:
        _walk(sub, defs)


_SCHEMA = "schema/scenario.schema.json"  # in the package


@cache
def _schema() -> dict:
    """The published schema, walked once so a keyword this module does not
    interpret fails loudly instead of being ignored."""
    text = resources.files("flowquant").joinpath(_SCHEMA).read_text(encoding="utf-8")
    schema = json.loads(text)
    _walk(schema, schema.get("$defs", {}))
    return schema


def _check(value, node: dict, at: tuple = ()):
    """Check value against a schema node; the first violation raises
    ScenarioError.  A node's own keywords are checked before its members,
    and members in document order.  Returns value with every number typed
    integer as an int."""
    if "$ref" in node:
        node = _schema()["$defs"][node["$ref"].removeprefix("#/$defs/")]

    def fail(message):
        raise ScenarioError(f"{message} (at {'/'.join(map(str, at)) or '<root>'})")

    kind = node.get("type")
    if kind is not None and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if "enum" in node and value not in node["enum"]:
        fail(f"{value!r} is not one of {node['enum']!r}")
    if _TYPES["number"](value):
        if value < node.get("minimum", -math.inf):
            fail(f"{value!r} is less than the minimum of {node['minimum']!r}")
        if value <= node.get("exclusiveMinimum", -math.inf):
            fail(f"{value!r} is less than or equal to the minimum of "
                 f"{node['exclusiveMinimum']!r}")
        if value > node.get("maximum", math.inf):
            fail(f"{value!r} is greater than the maximum of {node['maximum']!r}")
        return int(value) if kind == "integer" else value
    least = node.get("minLength" if isinstance(value, str) else "minItems", 0)
    if isinstance(value, (str, list)) and len(value) < least:
        fail(f"{value!r} " + ("should be non-empty" if least == 1 else "is too short"))
    if isinstance(value, list):
        if len(value) > node.get("maxItems", math.inf):
            fail(f"{value!r} is too long")
        if "items" in node:
            value[:] = [_check(v, node["items"], (*at, i)) for i, v in enumerate(value)]
    if isinstance(value, dict):
        props = node.get("properties", {})
        for key in node.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        extra = sorted(key for key in value if key not in props)
        if extra and node.get("additionalProperties") is False:
            fail(f"Additional properties are not allowed ({', '.join(map(repr, extra))} "
                 f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for key in value:
            if key in props:
                value[key] = _check(value[key], props[key], (*at, key))
    return value


def _finite_number(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals such as 1e400
    are not numbers any schema check can bound, so they are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def load_scenario(path: str) -> dict:
    """Read and validate a scenario file; raises ScenarioError on any defect."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except (OSError, ValueError, RecursionError) as exc:  # json gives up at depth 1,000
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    try:
        schema = _schema()
    except OSError as exc:
        raise ScenarioError(f"cannot read the scenario schema flowquant/{_SCHEMA}: "
                            f"{exc}") from exc
    try:
        return _check(cfg, schema)
    except ScenarioError as exc:
        raise ScenarioError(f"scenario {path!r} is invalid: {exc}") from None


def scenario_path(name: str) -> str:
    """Filesystem path of a scenario shipped with the package."""
    return str(resources.files("flowquant").joinpath(f"scenarios/{name}"))


def list_scenarios() -> list[str]:
    folder = resources.files("flowquant").joinpath("scenarios")
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".json"))


def build_params(cfg: dict) -> PhysicalParams:
    return PhysicalParams(**cfg.get("params", {}))


def _axis_grid(section: dict) -> Grid1D:
    return Grid1D.from_bounds(section["min"], section["max"], section["count"])


def build_x_grid(cfg: dict) -> Grid1D:
    grids = cfg.get("grids", {})
    if "x" not in grids:
        raise ScenarioError("scenario needs grids.x for this command")
    return _axis_grid(grids["x"])


def build_time_grid(cfg: dict) -> Grid1D | None:
    grids = cfg.get("grids", {})
    return _axis_grid(grids["T"]) if "T" in grids else None


def build_s_grid(cfg: dict) -> Grid1D | None:
    """None: the schema has no grids.s, so arrivals run on default_oriented_grid."""
    return None


def build_packet(cfg: dict, params: PhysicalParams, x_grid: Grid1D) -> WaveFunction:
    """Construct the scenario packet (position rep for gaussians, momentum
    rep for backflow superpositions)."""
    if "packet" not in cfg:
        raise ScenarioError("scenario needs a packet section for this command")
    pk = cfg["packet"]
    kind = pk["type"]
    if kind == "gaussian":
        for key in ("center_x", "center_p", "sigma_p"):
            if key not in pk:
                raise ScenarioError(f"gaussian packet needs {key}")
        return gaussian_packet(x_grid, params, pk["center_x"], pk["center_p"],
                               pk["sigma_p"])
    if kind == "superposition":
        if "components" not in pk:
            raise ScenarioError("superposition packet needs components")
        total = np.zeros(x_grid.count, dtype=np.complex128)
        for comp in pk["components"]:
            part = gaussian_packet(x_grid, params, comp["center_x"],
                                   comp["center_p"], comp["sigma_p"])
            amp = comp.get("amplitude", 1.0) * np.exp(1j * comp.get("phase", 0.0))
            total = total + amp * part.values
        return _normalized(x_grid, total, Representation.POSITION, params)
    if kind == "backflow":
        # The packet is built in momentum and sits at x = 0 of the conjugate
        # box, so grids.x sets only the box's span and must be centred on 0.
        centre = x_grid.origin + 0.5 * x_grid.count * x_grid.step
        if abs(centre) > x_grid.step:
            raise ScenarioError(
                f"a backflow packet sits at x = 0, so grids.x must be centred on 0 "
                f"to within one grid step; its centre is {centre:g}")
        # the packet's own keys; any other (center_x, say) is ignored
        spec = BackflowSpec(**{name: pk[name] for name in BackflowSpec._fields
                               if name in pk})
        return make_backflow_packet(x_grid.conjugate(params.hbar), params, spec)
    raise ScenarioError(f"unknown packet type {kind!r}")


# Field kind -> its builder, given the flows module and the mass.
_FIELD_BUILDERS = {
    "const": lambda flows, mass: flows.constant_field(),
    "x": lambda flows, mass: flows.linear_field(),
    "x2": lambda flows, mass: flows.quadratic_field(),
    "x3": lambda flows, mass: flows.cubic_field(),
    "arrival": lambda flows, mass: flows.arrival_field(mass),
    "oriented_arrival": lambda flows, mass: flows.oriented_arrival_field(mass),
    "oriented_arrival_s": lambda flows, mass: flows.straightened_oriented_field(),
}


def build_field(cfg: dict, params: PhysicalParams) -> "VectorField1D":
    if "field" not in cfg:
        raise ScenarioError("scenario needs a field section for this command")
    from . import flows
    return _FIELD_BUILDERS[cfg["field"]["kind"]](flows, params.mass)


def build_probe_spec(cfg: dict) -> "ProbeSpec":
    from .flows import ProbeSpec
    section = dict(cfg.get("probe_spec", {}))
    if "interval" in section:
        section["interval"] = tuple(map(float, section["interval"]))
    return ProbeSpec(**section)
