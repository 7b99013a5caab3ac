"""Scenario configuration files: schema validation and object construction.

A scenario is a single JSON file validated against the published schema
(``flowquant/schema/scenario.schema.json``); unknown keys are rejected so
configs stay diff-able and reproducible.
"""

import json
import math
from functools import cache
from importlib import resources

import jsonschema
import numpy as np

from .arrival import BackflowSpec, make_backflow_packet
from .errors import ScenarioError
from .flows import (ProbeSpec, VectorField1D, arrival_field, constant_field,
                    cubic_field, linear_field, oriented_arrival_field,
                    quadratic_field, straightened_oriented_field)
from .grids import (Grid1D, PhysicalParams, Representation, WaveFunction,
                    gaussian_packet)


@cache
def _validator() -> jsonschema.Draft202012Validator:
    """Validator for the published schema, built once: checking the schema
    itself on every load would cost more than the check of the scenario."""
    text = resources.files("flowquant").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    return jsonschema.Draft202012Validator(json.loads(text))


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
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    # best_match picks the error jsonschema.validate would raise.
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if exc is not None:
        raise ScenarioError(
            f"scenario {path!r} is invalid: {exc.message} "
            f"(at {'/'.join(str(p) for p in exc.absolute_path) or '<root>'})"
        ) from exc
    return cfg


def scenario_path(name: str) -> str:
    """Filesystem path of a scenario shipped with the package."""
    return str(resources.files("flowquant").joinpath(f"scenarios/{name}"))


def list_scenarios() -> list[str]:
    folder = resources.files("flowquant").joinpath("scenarios")
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".json"))


def build_params(cfg: dict) -> PhysicalParams:
    section = cfg.get("params", {})
    return PhysicalParams(section.get("hbar", 1.0), section.get("mass", 1.0))


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
    grids = cfg.get("grids", {})
    if "s" not in grids:
        return None
    section = grids["s"]
    if "count" not in section or "max" not in section:
        raise ScenarioError("grids.s needs both count and max")
    count, s_max = section["count"], section["max"]
    ds = 2.0 * s_max / count
    return Grid1D(-(count // 2) * ds, ds, count)


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
        nrm = math.sqrt(float(np.sum(np.abs(total) ** 2) * x_grid.step))
        if not (nrm > 0.0 and math.isfinite(nrm)):
            raise ScenarioError(
                f"superposition components sum to a state of norm {nrm:g}")
        return WaveFunction(x_grid, total / nrm, Representation.POSITION, params)
    if kind == "backflow":
        spec = BackflowSpec(
            p1=pk.get("p1", 1.0), p2=pk.get("p2", 3.0),
            a1=pk.get("a1", 1.0), a2=pk.get("a2", 1.6),
            rel_phase=pk.get("rel_phase", math.pi),
            sigma=pk.get("sigma", 0.1))
        return make_backflow_packet(x_grid.conjugate(params.hbar), params, spec)
    raise ScenarioError(f"unknown packet type {kind!r}")


_FIELD_BUILDERS = {
    "const": lambda mass: constant_field(),
    "x": lambda mass: linear_field(),
    "x2": lambda mass: quadratic_field(),
    "x3": lambda mass: cubic_field(),
    "arrival": arrival_field,
    "oriented_arrival": oriented_arrival_field,
    "oriented_arrival_s": lambda mass: straightened_oriented_field(),
}


def build_field(cfg: dict, params: PhysicalParams) -> VectorField1D:
    if "field" not in cfg:
        raise ScenarioError("scenario needs a field section for this command")
    return _FIELD_BUILDERS[cfg["field"]["kind"]](params.mass)


def build_probe_spec(cfg: dict) -> ProbeSpec:
    section = cfg.get("probe_spec", {})
    defaults = ProbeSpec()
    interval = section.get("interval", list(defaults.interval))
    return ProbeSpec(interval=(float(interval[0]), float(interval[1])),
                     count=section.get("count", defaults.count),
                     t_probe=section.get("t_probe", defaults.t_probe),
                     tol=section.get("tol", defaults.tol))
