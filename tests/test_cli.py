import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowquant
from flowquant import classical, cli, scenarios, transforms
from flowquant.cli import main
from flowquant.scenarios import (_FIELD_BUILDERS, build_packet, build_params,
                                 build_x_grid, list_scenarios, load_scenario,
                                 scenario_path)


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_scenarios_validate():
    names = list_scenarios()
    assert "reference_rightmover.json" in names
    for name in names:
        load_scenario(scenario_path(name))


def test_published_schema_is_valid():
    # loads validate against a cached validator that skips this check
    text = resources.files("flowquant").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    jsonschema.Draft202012Validator.check_schema(json.loads(text))


def test_schema_field_kinds_match_builders():
    # the field list lives in the schema and in the builder table
    text = resources.files("flowquant").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    kinds = json.loads(text)["properties"]["field"]["properties"]["kind"]["enum"]
    assert sorted(kinds) == sorted(_FIELD_BUILDERS)


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(flowquant.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}


def _python(probe: str) -> str:
    """Run probe in a fresh interpreter that imports this checkout; its stdout."""
    return subprocess.run([sys.executable, "-c", probe], env=_checkout_env(),
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # nor jsonschema and the packages it pulls in
    probe = ("import sys, flowquant.cli\n"
             "from flowquant import (integrate_flow, oriented_arrival_field,\n"
             "                       quadratic_field, straighten)\n"
             "integrate_flow(quadratic_field(), 0.5, 3.0)\n"
             "straighten(oriented_arrival_field(), 1e-9)\n"
             "print(sorted(m for m in sys.modules if m.partition('.')[0] in\n"
             "             {'scipy', 'jsonschema', 'referencing', 'rpds', 'attrs', 'attr'}))")
    assert _python(probe).strip() == "[]"


def test_cli_runs_without_jsonschema(tmp_path):
    probe = ("import sys\n"
             "class Block:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name.partition('.')[0] == 'jsonschema':\n"
             "            raise ImportError(f'{name} is blocked')\n"
             "sys.meta_path.insert(0, Block())\n"
             "from flowquant.cli import main\n"
             "from flowquant.scenarios import scenario_path\n"
             "for command, name in [('flow-classify', 'flow_x2.json'),\n"
             "                      ('arrival', 'reference_rightmover.json'),\n"
             "                      ('classical-limit', 'classical_limit_reference.json'),\n"
             "                      ('backflow', 'backflow_default.json')]:\n"
             "    out = %r + '/' + command\n"
             "    assert main([command, '--config', scenario_path(name), '--out', out]) == 0\n"
             "try:\n"
             "    import jsonschema\n"
             "except ImportError:\n"
             "    print('blocked')\n" % str(tmp_path))
    assert _python(probe).splitlines()[-1] == "blocked"


# the records are built without dataclasses, which nothing else loads
_LOADED = ("assert 'dataclasses' not in sys.modules\n"
           "print(sorted(m.partition('.')[2] for m in sys.modules\n"
           "             if m.startswith('flowquant.')))")


def test_package_import_loads_no_module():
    # dir() lists every export before any is looked up, and loads nothing
    probe = ("import sys, flowquant\n"
             "assert set(flowquant.__all__) <= set(dir(flowquant))\n")
    assert _python(probe + _LOADED).strip() == "[]"
    assert _python("import sys, flowquant.errors\n" + _LOADED).strip() == "['errors']"


_COMMON = ["cli", "errors", "grids", "scenarios"]
_TRANSFORMS = [*_COMMON, "transforms"]


@pytest.mark.parametrize("command, name, modules", [
    ("flow-classify", "flow_x2.json", [*_COMMON, "flows"]),
    ("arrival", "reference_rightmover.json", [*_TRANSFORMS, "resample", "arrival"]),
    ("backflow", "backflow_default.json", _TRANSFORMS),
    ("classical-limit", "classical_limit_reference.json", [*_TRANSFORMS, "classical"]),
])
def test_each_command_loads_only_its_modules(tmp_path, command, name, modules):
    # no subcommand draws, so none loads numpy.random: about 6 MB of a cold
    # classical-limit process, whose tables are exact
    probe = ("import sys\n"
             "from flowquant.cli import main\n"
             "from flowquant.scenarios import scenario_path\n"
             f"assert main([{command!r}, '--config', scenario_path({name!r}),\n"
             f"             '--out', {str(tmp_path)!r}]) == 0\n"
             "assert 'numpy.random' not in sys.modules\n" + _LOADED)
    assert _python(probe).splitlines()[-1] == repr(sorted(modules))


def test_cli_module_runs_without_runtime_warning(tmp_path):
    # python -m warns if importing the package had already loaded flowquant.cli
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "flowquant.cli",
            "flow-classify", "--config", scenario_path("flow_x2.json"),
            "--out", str(tmp_path)]
    done = subprocess.run(argv, env=_checkout_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_scenario_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "bogus": 1}), encoding="utf-8")
    assert run_cli("flow-classify", "--config", str(bad),
                   "--out", str(tmp_path / "out")) == 1


def test_scenario_rejects_broken_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli("flow-classify", "--config", str(bad),
                   "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                         ids=["nested", "nested_name"])
def test_refuses_deeply_nested_scenario_in_one_line(tmp_path, capsys, text):
    # json gives up at depth 1,000 with a RecursionError, not a ValueError
    bad = tmp_path / "deep.json"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    rc = run_cli("arrival", "--config", str(bad), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: cannot read scenario")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [{"params": {"hbar": "a" * 100_000}},
                                 {"grids": {"x": {"min": -1, "max": 1, "count": [1] * 20_000}}}],
                         ids=["long_string", "long_list"])
def test_refusal_quotes_a_long_value_cut(tmp_path, capsys, cfg):
    rc, err = _refusal(tmp_path, capsys, "arrival", cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert len(err[0].encode()) < 300 and "characters)" in err[0]
    assert not (tmp_path / "out").exists()


_BOX = {"x": {"min": -200.0, "max": 200.0, "count": 4096}}
_GAUSSIAN = {"type": "gaussian", "center_x": -50.0, "center_p": 2.0, "sigma_p": 0.2}


@pytest.mark.parametrize("command, cfg, message", [
    ("arrival", {"grids": _BOX}, "needs a packet section"),
    ("arrival", {"packet": _GAUSSIAN}, "needs grids.x"),
    ("flow-classify", {}, "needs a field section"),
    ("arrival", {"packet": {k: v for k, v in _GAUSSIAN.items() if k != "sigma_p"},
                 "grids": _BOX}, "gaussian packet needs sigma_p"),
    ("arrival", {"packet": {"type": "superposition"}, "grids": _BOX},
     "superposition packet needs components")],
    ids=["packet", "grids_x", "field", "sigma_p", "components"])
def test_refuses_scenario_without_what_the_command_builds(tmp_path, capsys, command, cfg,
                                                         message):
    rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("scenario,expected", [
    ("flow_x2.json", "PluggableIncomplete"),
    ("flow_x.json", "Complete"),
    ("flow_arrival.json", "HalfLineIncomplete"),
    ("flow_x3.json", "Incurable"),
    ("flow_oriented_arrival_s.json", "Complete"),
])
def test_flow_classify_verdicts(tmp_path, scenario, expected):
    out = tmp_path / "out"
    assert run_cli("flow-classify", "--config", scenario_path(scenario),
                   "--out", str(out)) == 0
    report = read_json(out / "flow_classification.json")
    assert report["class"] == expected
    assert "escape_samples" in report


def test_flow_classify_inconclusive_exit_code(tmp_path, monkeypatch):
    # X = x (1 + ln^2(1 + x^2)): the integral of 1/X toward +-inf converges,
    # but too slowly for the tail segments to show it
    def undecided(flows, mass):
        return flows.VectorField1D(
            lambda x: np.asarray(x, dtype=float) * (1.0 + np.log1p(np.square(x)) ** 2),
            zeros=(0.0,), label="x(1+ln^2(1+x^2))")

    monkeypatch.setitem(_FIELD_BUILDERS, "x", undecided)
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({
        "name": "undecided orbit end",
        "field": {"kind": "x"},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("flow-classify", "--config", str(cfg), "--out", str(out)) == 2
    report = read_json(out / "flow_classification.json")
    assert report["class"] == "Inconclusive"
    assert report["diagnostics"]


def test_flow_classify_odd_count_on_symmetric_window(tmp_path):
    # the middle probe lands within rounding of p = 0 and is dropped
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({
        "name": "odd probe count",
        "field": {"kind": "arrival"},
        "probe_spec": {"interval": [-12.9, 12.9], "count": 279},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("flow-classify", "--config", str(cfg), "--out", str(out)) == 0
    assert read_json(out / "flow_classification.json")["class"] == "HalfLineIncomplete"


def test_arrival_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli("arrival", "--config",
                   scenario_path("reference_rightmover.json"),
                   "--out", str(out), "--oracle") == 0
    summary = read_json(out / "arrival_summary.json")
    assert abs(summary["mean_T_plus"] - 25.0) <= 0.02 * 25.0
    assert summary["oracle_l_inf"] <= 1e-4
    assert summary["norm_defect"] <= 1e-6
    header = (out / "arrival_density.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "T,total,plus,minus,interference"


def test_arrival_oracle_compares_the_distribution_amplitude(tmp_path):
    # the summary compares the oracle with the amplitude arrival_distribution
    # keeps, which arrival_amplitude_fast returns: the wrong-way mover (weight
    # 5e-24) is gated out of both
    path = scenario_path("reference_rightmover.json")
    out = tmp_path / "out"
    assert run_cli("arrival", "--config", path, "--out", str(out), "--oracle") == 0
    reported = read_json(out / "arrival_summary.json")["oracle_l_inf"]
    cfg = load_scenario(path)
    params = cli.build_params(cfg)
    psi_tilde = flowquant.to_momentum(
        cli.build_packet(cfg, params, cli.build_x_grid(cfg)))
    grid_T = cli.build_time_grid(cfg)
    oracle = flowquant.arrival_amplitude_quadrature(psi_tilde, grid_T).values
    fast = flowquant.arrival_amplitude_fast(psi_tilde, grid_T).values
    expected = float(np.abs(oracle - fast).max() / np.abs(oracle).max())
    assert reported == expected


def test_arrival_mixed_beam_interference(tmp_path):
    out = tmp_path / "out"
    assert run_cli("arrival", "--config", scenario_path("mixed_beam.json"),
                   "--out", str(out)) == 0
    lines = (out / "arrival_density.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    max_total = max(r[1] for r in rows)
    max_interference = max(abs(r[4]) for r in rows)
    assert max_interference > 0.01 * max_total
    summary = read_json(out / "arrival_summary.json")
    assert abs(summary["w_plus"] - 0.5) <= 1e-6
    assert abs(summary["w_minus"] - 0.5) <= 1e-6


def test_arrival_left_mover_only(tmp_path, capsys):
    cfg = read_json(scenario_path("reference_rightmover.json"))
    cfg["packet"].update(center_x=50.0, center_p=-2.0)
    cfg["grids"].pop("T", None)
    path = tmp_path / "left.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("arrival", "--config", str(path), "--out", str(out)) == 0
    summary = read_json(out / "arrival_summary.json")
    assert summary["w_plus"] <= 1e-6
    assert "mean_T_plus" not in summary
    # T = -m x / |p| = -25; a left-mover arrives physically at -T
    assert abs(summary["mean_T_minus"] + 25.0) <= 0.02 * 25.0
    assert summary["mean_arrival_minus"] == -summary["mean_T_minus"]
    assert "mean_T_minus=" in capsys.readouterr().out


@pytest.mark.parametrize("lo, hi", [(-1e160, 1e160), (0.0, 1e200), (-1e150, 1e150)])
def test_refuses_arrival_window_whose_moments_overflow(tmp_path, capsys, lo, hi):
    # these windows wrote NaN or Infinity moments, which is not JSON, after
    # numpy overflow warnings; now one error line and no file
    cfg = load_scenario(scenario_path("reference_rightmover.json"))
    cfg["grids"]["T"] = {"min": lo, "max": hi, "count": 64}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli("arrival", "--config", str(path), "--out", str(out))
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "grids.T" in err[0] and "not finite" in err[0]
    assert not any(out.iterdir())


@pytest.mark.parametrize("lo, hi, mover, weight", [(0.0, 60.0, "minus", 1e-4 / 1.0001),
                                                   (200.0, 260.0, "plus", 1.0 / 1.0001)],
                         ids=["T0-60", "T200-260"])
def test_refuses_arrival_window_that_misses_a_mover(tmp_path, capsys, lo, hi, mover,
                                                    weight):
    # a mover of more than 1e-6 of the mass with no arrivals in grids.T was
    # refused as "component minus carries weight 1.940e-27"; amplitudes 1
    # and 0.01 give the movers weights 1 and 1e-4 over 1.0001
    cfg = load_scenario(scenario_path("mixed_beam.json"))
    cfg["packet"]["components"][1].update(center_x=50.0, amplitude=0.01)
    cfg["grids"]["T"] = {"min": lo, "max": hi, "count": 1024}
    path = tmp_path / "miss.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli("arrival", "--config", str(path), "--out", str(out))
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    named = re.fullmatch(
        rf"error: grids\.T \[{lo:g}, {hi:g}\] misses the {mover} mover: it carries "
        r"weight (\S+), but the window holds (\S+) of its arrival density", err[0])
    assert named, err[0]
    assert abs(float(named[1]) - weight) <= 1e-3 * weight
    assert float(named[2]) <= 1e-6
    assert not any(out.iterdir())


def _refusal(tmp_path, capsys, command, cfg):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({"name": "refused", **cfg}), encoding="utf-8")
    capsys.readouterr()
    rc = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err.strip().splitlines()
    return rc, err


def test_refuses_reversed_grid_bounds(tmp_path, capsys):
    rc, err = _refusal(tmp_path, capsys, "arrival", {
        "packet": {"type": "gaussian", "center_x": -50.0, "center_p": 2.0,
                   "sigma_p": 0.2},
        "grids": {"x": {"min": 200.0, "max": -200.0, "count": 4096}}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "bounds" in err[0]


def test_refuses_slow_backflow_packet(tmp_path, capsys):
    rc, err = _refusal(tmp_path, capsys, "backflow", {
        "packet": {"type": "backflow", "p1": 0.3, "p2": 3.0, "sigma": 0.1},
        "grids": {"x": {"min": -128.0, "max": 128.0, "count": 4096}},
        "backflow_scan": {"x_range": [-20.0, 20.0], "x_count": 11,
                          "t_range": [0.0, 10.0], "t_count": 11}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "4 sigma" in err[0]


def test_refuses_off_centre_backflow_box(tmp_path, capsys):
    # the packet would sit at x = 0, outside the scan, which sees only its tail
    rc, err = _refusal(tmp_path, capsys, "backflow", {
        "packet": {"type": "backflow"},
        "grids": {"x": {"min": 0.0, "max": 256.0, "count": 4096}},
        "backflow_scan": {"x_range": [100.0, 120.0], "x_count": 11,
                          "t_range": [0.0, 10.0], "t_count": 11}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "centred on 0" in err[0]


def test_refuses_a_backflow_scan_of_too_many_rows(tmp_path, capsys, monkeypatch):
    # a schema-valid 65536 x 65536 scan would write 4.3e9 rows, about 250 GB
    monkeypatch.setattr(cli, "_SCAN_ROWS", 120)
    cfg = _shipped_with("backflow_default.json",
                        (("backflow_scan", "x_count"), 11),
                        (("backflow_scan", "t_count"), 11))
    rc, err = _refusal(tmp_path, capsys, "backflow", cfg)
    assert rc == 1 and err == ["error: backflow_scan.x_count * t_count = 121 rows, "
                               "more than the 120 a scan may write"]
    assert list((tmp_path / "out").iterdir()) == []
    monkeypatch.setattr(cli, "_SCAN_ROWS", 121)
    assert run_cli("backflow", "--config", str(tmp_path / "refused.json"),
                   "--out", str(tmp_path / "out")) == 0


def test_backflow_box_with_odd_count_runs(tmp_path):
    cfg = load_scenario(scenario_path("backflow_default.json"))
    cfg["grids"]["x"]["count"] = 4095
    cfg["backflow_scan"].update(x_count=11, t_count=11)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_cli("backflow", "--config", str(path), "--out", str(tmp_path / "out")) == 0


def test_backflow_packet_takes_unset_keys_from_backflow_spec(tmp_path):
    # the schema lets center_x stand on a backflow packet, which ignores it
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "name": "partial", "params": {"hbar": 1.0},
        "packet": {"type": "backflow", "p1": 1.5, "sigma": 0.2, "center_x": 7.0},
        "grids": {"x": {"min": -128.0, "max": 128.0, "count": 4096}}}),
        encoding="utf-8")
    cfg = load_scenario(str(path))
    params = build_params(cfg)
    x_grid = build_x_grid(cfg)
    psi = build_packet(cfg, params, x_grid)
    want = flowquant.make_backflow_packet(x_grid.conjugate(params.hbar), params,
                                          flowquant.BackflowSpec(p1=1.5, sigma=0.2))
    assert psi.grid == want.grid and psi.params == want.params
    assert psi.values.tobytes() == want.values.tobytes()


def test_refuses_zero_norm_superposition(tmp_path, capsys):
    part = {"center_x": -50.0, "center_p": 2.0, "sigma_p": 0.2}
    rc, err = _refusal(tmp_path, capsys, "arrival", {
        "packet": {"type": "superposition", "components": [
            {**part, "amplitude": 1.0}, {**part, "amplitude": -1.0}]},
        "grids": {"x": {"min": -200.0, "max": 200.0, "count": 4096}}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "norm" in err[0]


def test_refuses_backflow_packet_of_zero_norm(tmp_path, capsys):
    # sigma far below the step of the conjugate grid: both Gaussians
    # underflow at every sample, which wrote nan currents with exit 0
    rc, err = _refusal(tmp_path, capsys, "backflow", {
        "packet": {"type": "backflow", "sigma": 0.001},
        "grids": {"x": {"min": -8.0, "max": 8.0, "count": 64}},
        "backflow_scan": {"x_range": [-4.0, 4.0], "x_count": 11,
                          "t_range": [0.0, 1.0], "t_count": 11}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "norm" in err[0]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, section", [
    ("classical-limit", "classical_limit"), ("backflow", "backflow_scan")])
def test_refuses_scenario_without_the_command_section(tmp_path, capsys, command,
                                                      section):
    cfg = read_json(scenario_path("reference_rightmover.json"))
    rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert f"needs a {section} section" in err[0]


def test_backflow_scan_of_a_position_packet(tmp_path):
    # a Gaussian is built on grids.x, which is then its position box
    cfg = read_json(scenario_path("reference_rightmover.json"))
    cfg["backflow_scan"] = {"x_range": [-60.0, -40.0], "x_count": 21,
                            "t_range": [0.0, 2.0], "t_count": 5}
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("backflow", "--config", str(path), "--out", str(out)) == 0
    params = build_params(cfg)
    psi_tilde = flowquant.to_momentum(build_packet(cfg, params, build_x_grid(cfg)))
    j = flowquant.free_current(psi_tilde, np.linspace(0.0, 2.0, 5),
                               np.linspace(-60.0, -40.0, 21))
    summary = read_json(out / "backflow_summary.json")
    assert summary["min_current"] == float(j.min())
    assert summary["negative_momentum_mass"] <= 1e-10
    assert len((out / "backflow_current.csv").read_text().splitlines()) == 1 + 5 * 21


def test_refuses_expression_field(tmp_path, capsys):
    # The removed "expression" kind was evaluated by sympy.sympify, which
    # runs arbitrary code; the payload would create the marker file.
    marker = tmp_path / "payload-ran"
    payload = f"__import__('pathlib').Path({str(marker)!r}).touch() or x"
    rc, err = _refusal(tmp_path, capsys, "flow-classify", {
        "field": {"kind": "expression", "expression": payload}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert not marker.exists()


def test_flow_classify_contracting_flow_long_probe_time(tmp_path):
    # Backward in time X = x contracts every probe toward the fixed point 0,
    # which no trajectory reaches, however long t_probe is.
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "name": "long probe time",
        "field": {"kind": "x"},
        "probe_spec": {"t_probe": 1e6},
    }), encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run_cli("flow-classify", "--config", str(cfg), "--out", str(out)) == 0
    assert time.perf_counter() - start < 20.0
    assert read_json(out / "flow_classification.json")["class"] == "Complete"


def test_refuses_escape_radius(tmp_path, capsys):
    # The removed escape radius is refused like any unknown key.
    rc, err = _refusal(tmp_path, capsys, "flow-classify", {
        "field": {"kind": "const"}, "probe_spec": {"escape_radius": 1e6}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "escape_radius" in err[0]


def test_refuses_probe_tol(tmp_path, capsys):
    # The removed escape-fraction threshold is refused like any unknown key.
    rc, err = _refusal(tmp_path, capsys, "flow-classify", {
        "field": {"kind": "const"}, "probe_spec": {"tol": 1e-3}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "tol" in err[0]


def test_refuses_s_grid(tmp_path, capsys):
    # the arrival chain runs on its default s-grid; the removed s-grid is
    # refused like any unknown key
    rc, err = _refusal(tmp_path, capsys, "arrival", {
        "packet": {"type": "gaussian", "center_x": -50.0, "center_p": 2.0,
                   "sigma_p": 0.2},
        "grids": {"x": {"min": -200.0, "max": 200.0, "count": 4096},
                  "s": {"count": 4096, "max": 8.0}}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert err[0].endswith("Additional properties are not allowed ('s' was unexpected) "
                           "(at grids)")


def test_refuses_bool_seed(tmp_path, capsys):
    # a bool is not an integer, although Python's bool is an int
    rc, err = _refusal(tmp_path, capsys, "classical-limit", {"seed": True})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert err[0].endswith("True is not of type 'integer' (at seed)")


def test_refuses_unrepresentable_probe_window(tmp_path, capsys):
    # x^2 underflows to 0 on the window; the verdict would be Incurable
    rc, err = _refusal(tmp_path, capsys, "flow-classify", {
        "field": {"kind": "x2"},
        "probe_spec": {"interval": [1e-300, 2e-300], "count": 16,
                       "t_probe": 1e300}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "not representable" in err[0]


def test_refuses_unresolved_classical_limit_time(tmp_path, capsys):
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    cfg["classical_limit"]["times"] = [0.01]
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "only t >= 0.107" in err[0]


def test_refuses_classical_limit_times_that_share_a_file_name(tmp_path, capsys):
    # "%g" makes both "20": one CSV pair would overwrite the other
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    cfg["classical_limit"]["times"] = [20.0, 20.0000001]
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "20.0 and 20.0000001" in err[0] and "_t20.csv" in err[0]
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("key,value,names", [
    ("p_bins", {"min": 1.0, "max": 1.0, "count": 96}, "momentum bin edges"),
    ("p_bins", {"min": 4.0, "max": -2.0, "count": 96}, "momentum bin edges"),
    ("x0", 1e308, "at t = 20 "),
    ("times", [1e308], "at t = 1e+308 "),
])
def test_refuses_classical_limit_bins_that_do_not_increase(tmp_path, capsys, key,
                                                           value, names):
    # empty, reversed or overflowing bins ended in a traceback
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    cfg["classical_limit"][key] = value
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert names in err[0] and "finite and increasing" in err[0]
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command,scenario,section,key,literal", [
    ("backflow", "backflow_default.json", "backflow_scan", "t_count", "11.0"),
    ("classical-limit", "classical_limit_reference.json", "classical_limit",
     "samples", "1e4"),
])
def test_whole_number_float_counts(tmp_path, command, scenario, section, key,
                                   literal):
    # JSON Schema counts 11.0 and 1e4 as integers; they run as 11 and 10000
    cfg = read_json(scenario_path(scenario))
    outputs = []
    for value in (str(int(float(literal))), literal):
        cfg[section][key] = "@"
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(cfg).replace('"@"', value), encoding="utf-8")
        out = tmp_path / f"out-{value}"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


def test_refuses_non_finite_backflow_range(tmp_path, capsys):
    # would write "min_current": Infinity
    rc, err = _refusal(tmp_path, capsys, "backflow", {
        "packet": {"type": "backflow"},
        "grids": {"x": {"min": -128.0, "max": 128.0, "count": 4096}},
        "backflow_scan": {"x_range": [-20.0, float("nan")], "x_count": 11,
                          "t_range": [0.0, 10.0], "t_count": 11}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "non-finite" in err[0]


def test_refuses_infinite_probe_time(tmp_path, capsys):
    # would integrate for more than a minute
    rc, err = _refusal(tmp_path, capsys, "flow-classify", {
        "field": {"kind": "x"}, "probe_spec": {"t_probe": float("inf")}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "non-finite" in err[0]


def test_refuses_nan_packet_center(tmp_path, capsys):
    # would fail deep in the transforms, after RuntimeWarnings
    rc, err = _refusal(tmp_path, capsys, "arrival", {
        "packet": {"type": "gaussian", "center_x": float("nan"),
                   "center_p": 2.0, "sigma_p": 0.2},
        "grids": {"x": {"min": -200.0, "max": 200.0, "count": 4096}}})
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "non-finite" in err[0]


@pytest.mark.parametrize("command,scenario", [
    ("arrival", "reference_rightmover.json"),
    ("classical-limit", "classical_limit_reference.json"),
])
def test_refuses_packet_wider_than_the_box(tmp_path, capsys, command, scenario):
    # sigma_p = 1e-200 is schema-valid; squaring its width overflowed
    cfg = read_json(scenario_path(scenario))
    cfg["packet"]["sigma_p"] = 1e-200
    rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "exceeds the grid box" in err[0] and "Traceback" not in err[0]


_SCAN = {"x_range": [-1.0, 1.0], "x_count": 3, "t_range": [0.0, 1.0], "t_count": 3}
_HUGE_HBAR = {"params": {"hbar": 1e200},
              "packet": {"type": "gaussian", "center_x": -2.0, "center_p": 8e200,
                         "sigma_p": 1e200}}
_SMALL_BOX = {"min": -8.0, "max": 8.0, "count": 256}


@pytest.mark.parametrize("command, cfg, named", [
    ("arrival", {"packet": {"type": "gaussian", "center_x": 0.0, "center_p": 1.0,
                            "sigma_p": 1e-156},
                 "grids": {"x": {"min": -1e158, "max": 1e158, "count": 4096}}},
     "Gaussian width 5.000e+155"),
    ("backflow", {"packet": {"type": "backflow", "p1": 1e200, "p2": 2e200,
                             "sigma": 1e199},
                  "grids": {"x": {"min": -8.0, "max": 8.0, "count": 64}},
                  "backflow_scan": _SCAN},
     "Gaussian width 1.000e+199"),
    ("arrival", {**_HUGE_HBAR, "grids": {"x": _SMALL_BOX}}, "largest momentum"),
], ids=["packet-width", "backflow-sigma", "s-grid"])
def test_refuses_a_square_beyond_float64(tmp_path, capsys, command, cfg, named):
    # x ** 2 of a Python float raises OverflowError where numpy gives inf
    rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert named in err[0] and "overflows float64" in err[0]
    assert not any((tmp_path / "out").iterdir())


def _shipped_with(name, *edits):
    """The shipped scenario with each (path, value) edit applied."""
    cfg = read_json(scenario_path(name))
    for path, value in edits:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command, cfg, named", [
    ("classical-limit", _shipped_with("classical_limit_reference.json",
                                      (("grids", "x"), {"min": -1e300, "max": 1e300,
                                                        "count": 8})),
     "the x grid (step 2.5e+299) resolves only t >= inf"),
    ("arrival", _shipped_with("mixed_beam.json",
                              (("packet", "components", 0, "amplitude"), 1e154)),
     "norm on this grid is inf"),
    ("backflow", _shipped_with("backflow_default.json", (("packet", "a2"), 1e300)),
     "norm on this grid is inf"),
    ("arrival", _shipped_with("reference_rightmover.json", (("packet", "sigma_p"), 1e300)),
     "4 width^2 underflows"),
    ("arrival", _shipped_with("reference_rightmover.json", (("params", "mass"), 1e154)),
     "mass 1.000e+154"),
    ("arrival", _shipped_with("reference_rightmover.json", (("params", "hbar"), 5e-324)),
     "carrier phase"),
    ("classical-limit", _shipped_with("classical_limit_reference.json",
                                      (("params", "mass"), 5e-324)),
     "position bin edges"),
    ("classical-limit", _shipped_with("classical_limit_reference.json",
                                      (("packet", "center_p"), 2.0),
                                      (("classical_limit", "times"), [1e308]),
                                      (("classical_limit", "p_bins"),
                                       {"min": -1.0, "max": 1.0, "count": 96})),
     "at t = 1e+308 has mean inf and spread 5e+307, not finite"),
], ids=["huge-box", "huge-amplitude", "huge-a2", "huge-sigma-p", "huge-mass",
        "tiny-hbar", "tiny-mass", "huge-classical-mean"])
def test_schema_valid_extremes_fail_in_one_line(tmp_path, capsys, command, cfg, named):
    # each printed numpy warnings or a traceback before its error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert named in err[0] and not caught
    out = tmp_path / "out"
    assert not (out.exists() and any(out.iterdir()))


def test_classical_limit_refuses_every_time_before_the_first_file(tmp_path, capsys):
    # t = 200 is resolved and t = 0.1 is not: the t = 200 files and the
    # t = 0.1 ensemble file used to be written before the refusal
    cfg = _shipped_with("classical_limit_reference.json",
                        (("classical_limit", "times"), [200, 0.1]),
                        (("classical_limit", "samples"), 1000))
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1
    assert err[0].startswith("error: classical limit at t = 0.1: the x grid")
    out = tmp_path / "out"
    assert not (out.exists() and any(out.iterdir()))


def test_classical_limit_refuses_an_unresolved_time_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # the refusal used to come after the whole 1,000,000-sample pass; the
    # closed-form tables now come after every time's refusal
    def no_tables(*args):
        raise AssertionError("the classical tables were computed")

    monkeypatch.setattr(classical, "_gaussian_limits", no_tables)
    cfg = _shipped_with("classical_limit_reference.json",
                        (("classical_limit", "times"), [200, 0.1]))
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1
    assert err[0].startswith("error: classical limit at t = 0.1: the x grid")


def _off_centre_arrival(center_x):
    """reference_rightmover on the box [0, 400) at center_x, default T-grid."""
    cfg = _shipped_with("reference_rightmover.json",
                        (("grids", "x"), {"min": 0.0, "max": 400.0, "count": 4096}),
                        (("packet", "center_x"), center_x))
    del cfg["grids"]["T"]
    return cfg


def test_arrival_refuses_a_packet_outside_the_centred_window(tmp_path, capsys):
    # the momentum samples see x = 350 as x = -50: it exited 0 with that
    # packet's mean_T_plus 25.25 instead of about -175
    rc, err = _refusal(tmp_path, capsys, "arrival", _off_centre_arrival(350.0))
    assert rc == 1 and len(err) == 1
    assert err[0].startswith("error: the position box [0, 400] puts the packet's")
    assert "outside [-200, 200)" in err[0]
    assert not any((tmp_path / "out").iterdir())


def test_arrival_runs_a_packet_inside_the_centred_window(tmp_path):
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(_off_centre_arrival(150.0)), encoding="utf-8")
    assert run_cli("arrival", "--config", str(path), "--out", str(tmp_path / "out")) == 0
    summary = read_json(tmp_path / "out" / "arrival_summary.json")
    assert summary["mean_T_plus"] == pytest.approx(-75.74, abs=0.01)


@pytest.mark.parametrize("literal", ["-Infinity", "1e400"])
def test_scenario_rejects_non_finite_literals(tmp_path, literal):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "params": {"mass": %s}}' % literal,
                    encoding="utf-8")
    with pytest.raises(flowquant.ScenarioError, match="non-finite"):
        load_scenario(str(path))


def test_classical_limit_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli("classical-limit", "--config",
                   scenario_path("classical_limit_reference.json"),
                   "--out", str(out)) == 0
    summary = read_json(out / "classical_limit_summary.json")
    runs = summary["runs"]
    assert [r["t"] for r in runs] == [20.0, 50.0, 100.0, 200.0]
    ens = [r["l1_error_ensemble"] for r in runs]
    qua = [r["l1_error_quantum"] for r in runs]
    assert ens[-1] <= 0.02 and qua[-1] <= 0.02
    assert all(ens[i + 1] <= ens[i] for i in range(len(ens) - 1))
    assert all(qua[i + 1] <= qua[i] for i in range(len(qua) - 1))
    assert (out / "classical_limit_ensemble_t200.csv").exists()
    assert (out / "classical_limit_quantum_t20.csv").exists()


def test_backflow_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli("backflow", "--config", scenario_path("backflow_default.json"),
                   "--out", str(out)) == 0
    summary = read_json(out / "backflow_summary.json")
    assert summary["min_current"] < 0.0
    assert summary["negative_momentum_mass"] <= 1e-10


def test_backflow_control_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli("backflow", "--config", scenario_path("backflow_control.json"),
                   "--out", str(out)) == 0
    summary = read_json(out / "backflow_summary.json")
    assert summary["min_current"] >= -1e-12


def test_backflow_leak_exit_code(tmp_path):
    cfg = read_json(scenario_path("backflow_default.json"))
    cfg["packet"]["sigma"] = 0.24
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_cli("backflow", "--config", str(path),
                   "--out", str(tmp_path / "out")) == 2


def test_rerun_into_one_out_matches_a_fresh_run(tmp_path):
    config = scenario_path("reference_rightmover.json")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    for _ in range(2):
        assert run_cli("arrival", "--config", config, "--out", str(out)) == 0
    assert run_cli("arrival", "--config", config, "--out", str(fresh)) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / n).read_bytes() == (fresh / n).read_bytes() for n in names)


@pytest.mark.parametrize("blocked", ["out", "out/arrival_density.csv"])
def test_refuses_unwritable_out(tmp_path, capsys, blocked):
    # --out names a file, or a directory sits where an output file goes
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("not a directory", encoding="utf-8")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    capsys.readouterr()
    rc = run_cli("arrival", "--config", scenario_path("reference_rightmover.json"),
                 "--out", str(out))
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert str(tmp_path / blocked) in err[0]


def test_outputs_are_byte_stable(run_shipped, shipped_outputs):
    written = {key.rpartition("/")[2] for key in shipped_outputs}
    assert {"arrival_density.csv", "backflow_current.csv",
            "classical_limit_ensemble_t200.csv", "classical_limit_quantum_t200.csv",
            "classical_limit_summary.json", "flow_classification.json"} <= written
    assert run_shipped() == shipped_outputs


def _reference_write_csv(path, header, *columns):
    """The CSV writer the CLI had before it formatted whole rows: one value
    at a time, as float64 scalars, rows from zip."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(np.ravel(c) for c in columns)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_write_csv_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e-300, -1e300, 1.7976931348623157e308, 1.0, -3.0,
                        1e16, 2.0**53, 123456789.0, 0.1, 1 / 3,
                        np.inf, -np.inf, np.nan, 1e308, -1e308])
    columns = [np.concatenate([special, rng.standard_normal(200),
                               rng.uniform(-1, 1, 200) * 10.0 ** rng.integers(-300, 300, 200),
                               np.round(rng.standard_normal(200) * 1e6)])
               for _ in range(3)]
    columns[1] = columns[1][::-1]
    for count in (1, 3):
        header = ["a", "b", "c"][:count]
        cli._write_csv([(tmp_path / "new.csv", len(columns[0]))], header,
                       cli._table(*columns[:count]))
        _reference_write_csv(tmp_path / "old.csv", header, *columns[:count])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_shipped_csvs_match_reference_writer(tmp_path, shipped_outputs):
    # every shipped CSV has the bytes the per-value writer gives its numbers
    csvs = {key: data for key, data in shipped_outputs.items() if key.endswith(".csv")}
    assert len(csvs) >= 10
    for i, (key, data) in enumerate(csvs.items()):
        header, *lines = data.decode("ascii").splitlines()
        columns = zip(*([float(v) for v in line.split(",")] for line in lines))
        _reference_write_csv(tmp_path / f"{i}.csv", header.split(","), *columns)
        assert (tmp_path / f"{i}.csv").read_bytes() == data, key


def _check_write_tables(tmp_path, monkeypatch, rows) -> int:
    """Write tables of 4 columns and the given row counts with one
    _write_csv call over one _table stream of all their rows; check that
    each file has the bytes _write_csv gives it alone, and return the number
    of _g17 calls the stream made."""
    rng = np.random.default_rng(6)
    tables = [[rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(4)]
              for n in rows]
    header = ["p", "mu_exact", "mu_limit", "abs_err"]
    calls, g17 = [], cli._g17
    monkeypatch.setattr(cli, "_g17", lambda values, out: calls.append(g17(values, out)))
    cli._write_csv([(tmp_path / f"new{i}.csv", n) for i, n in enumerate(rows)], header,
                   cli._table(*map(np.concatenate, zip(*tables))))
    monkeypatch.undo()
    for i, columns in enumerate(tables):
        cli._write_csv([(tmp_path / f"old{i}.csv", rows[i])], header, cli._table(*columns))
        assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / f"old{i}.csv").read_bytes()
    return len(calls)


def test_write_tables_matches_one_file_at_a_time(tmp_path, monkeypatch):
    # 3,833 rows: blocks of 2,048 rows end inside a table, a table is longer
    # than a block, and an empty table takes only its header
    rows = [3, 1, 500, cli._TEXT_CELLS // 4 + 1, 0, 128, 128, cli._TEXT_CELLS // 8]
    assert _check_write_tables(tmp_path, monkeypatch, rows) == 2


@pytest.mark.parametrize("extra, calls", [(0, 1), (1, 2)])
def test_write_tables_formats_small_tables_in_one_call(tmp_path, monkeypatch, extra, calls):
    # 2,048 rows of 4 columns are _TEXT_CELLS values: at most that take one
    # _g17 call, one row more takes a second for the last row
    rows = [3, 1, 500, 0, 128, 128, cli._TEXT_CELLS // 4 - 760, extra]
    assert _check_write_tables(tmp_path, monkeypatch, rows) == calls


def test_classical_limit_formats_all_its_tables_in_one_stream(tmp_path, monkeypatch):
    # 40 times of two 100-row tables are 32,000 values: four _g17 calls over
    # the stream, not one per table
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    cfg["classical_limit"]["times"] = [200.0 + t for t in range(40)]
    cfg["classical_limit"]["p_bins"]["count"] = 100
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    calls, g17 = [], cli._g17
    monkeypatch.setattr(cli, "_g17", lambda values, out: calls.append(g17(values, out)))
    assert run_cli("classical-limit", "--config", str(path), "--out", str(tmp_path / "out")) == 0
    assert len(calls) == 4
    files = sorted((tmp_path / "out").glob("classical_limit_*_t*.csv"))
    assert len(files) == 80
    for csv in files:
        assert csv.read_bytes().count(b"\n") == 101


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(1e308)
@example(-1e308)
def test_percent_format_is_float_format(x):
    # the CSV bytes come from cli._g17, and only its fallback _slow_g17
    # fills "%-24.17g" templates; the CLI's bytes are those of "{:.17g}".format
    assert "%.17g" % x == "{:.17g}".format(x)


@pytest.mark.parametrize("nt,nx", [(1, 1), (1, 6), (4, 1), (101, 201)])
def test_scan_csv_matches_the_reference_writer(tmp_path, monkeypatch, nt, nx):
    # backflow's t, x, j rows: each t and x formatted once, the same bytes,
    # whole or streamed in blocks of times of any size, each block's
    # currents asked for with its start and times
    rng = np.random.default_rng(nt * nx)
    ts = np.linspace(-1.5, 2.0, nt)
    xs = np.linspace(-3.0, 0.1, nx)
    ts[0], xs[-1] = -0.0, -0.0
    j = rng.standard_normal((nt, nx)) * 10.0 ** rng.integers(-300, 300, (nt, nx))
    j.flat[j.size // 2] = np.nan
    j.flat[0] = -0.0
    j.flat[-1] = 5e-324
    _reference_write_csv(tmp_path / "old.csv", ["t", "x", "j"],
                         np.repeat(ts, nx), np.tile(xs, nt), j)
    for rows in sorted({1, 3, nt}):
        monkeypatch.setattr(cli, "_TEXT_CELLS", rows * nx)  # blocks of rows times
        asked = []

        def current(start, times):
            asked.append(start)
            assert np.array_equal(times, ts[start:start + rows])
            return j[start:start + len(times)]

        cli._write_csv([(tmp_path / "new.csv", nt * nx)], ["t", "x", "j"],
                       cli._scan(ts, xs, current))
        assert asked == list(range(0, nt, rows))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _backflow_scan(tmp_path, name, scan):
    """Run backflow_default with its scan section updated by scan; returns
    the exit code, the output directory and the scenario."""
    cfg = load_scenario(scenario_path("backflow_default.json"))
    cfg["backflow_scan"].update(scan)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    return run_cli("backflow", "--config", str(path), "--out", str(out)), out, cfg


def _direct_current(cfg, ts, xs):
    """j(t, x) from psi and dpsi/dx summed as one p x x matrix product over
    the whole momentum grid (hbar = m = 1), no chirp-z."""
    params = build_params(cfg)
    psi_tilde = build_packet(cfg, params, build_x_grid(cfg))
    p = psi_tilde.points
    kernel = np.exp(1j * np.outer(p, xs)) * (psi_tilde.grid.step / np.sqrt(2.0 * np.pi))
    amp = psi_tilde.values * np.exp(-0.5j * np.outer(ts, p**2))
    return np.imag(np.conj(amp @ kernel) * ((1j * p * amp) @ kernel))


def _check_scan(out, cfg):
    scan = cfg["backflow_scan"]
    ts = np.linspace(*scan["t_range"], scan["t_count"])
    xs = np.linspace(*scan["x_range"], scan["x_count"])
    rows = np.loadtxt(out / "backflow_current.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (ts.size * xs.size, 3)
    assert np.array_equal(rows[:, 0], np.repeat(ts, xs.size))
    assert np.array_equal(rows[:, 1], np.tile(xs, ts.size))
    j = rows[:, 2].reshape(ts.size, xs.size)
    exact = _direct_current(cfg, ts, xs)
    assert np.abs(j - exact).max() <= 1e-12 * np.abs(exact).max()
    summary = read_json(out / "backflow_summary.json")
    k_t, k_x = np.unravel_index(np.argmin(j), j.shape)
    assert summary["min_current"] == j[k_t, k_x]
    assert (summary["argmin_x"], summary["argmin_t"]) == (xs[k_x], ts[k_t])
    return j


@pytest.mark.parametrize("t_count,x_count", [(2, 7), (7, 2), (3, 5)])
def test_backflow_scan_with_fewer_than_8_points(tmp_path, t_count, x_count):
    # schema-valid counts below the 8 points a Grid1D needs
    rc, out, cfg = _backflow_scan(tmp_path, "small", {"t_count": t_count,
                                                      "x_count": x_count})
    assert rc == 0
    _check_scan(out, cfg)


def test_backflow_scan_with_reversed_x_range(tmp_path):
    rc, out, cfg = _backflow_scan(tmp_path, "reversed", {"x_range": [20.0, -20.0],
                                                         "t_count": 11})
    assert rc == 0
    j = _check_scan(out, cfg)
    assert _backflow_scan(tmp_path, "forward", {"t_count": 11})[0] == 0
    forward = np.loadtxt(tmp_path / "forward" / "backflow_current.csv",
                         delimiter=",", skiprows=1)[:, 2].reshape(j.shape)
    assert np.abs(j - forward[:, ::-1]).max() <= 1e-13 * np.abs(forward).max()


def test_backflow_scan_with_one_point_range(tmp_path):
    rc, out, cfg = _backflow_scan(tmp_path, "point", {"x_range": [5.0, 5.0],
                                                      "x_count": 4, "t_count": 11})
    assert rc == 0
    j = _check_scan(out, cfg)
    assert np.all(j == j[:, :1])


def test_refuses_backflow_scan_outside_the_box(tmp_path, capsys):
    # the exact sums are periodic: x = 200 would give the current at -56
    capsys.readouterr()
    rc, out, _ = _backflow_scan(tmp_path, "outside", {"x_range": [-20.0, 200.0]})
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "[-128, 128]" in err[0]
    assert not out.exists() or not any(out.iterdir())


def test_refuses_backflow_scan_whose_phase_overflows(tmp_path, capsys):
    # t p^2 / (2 m hbar) past the float range made every current NaN
    capsys.readouterr()
    rc, out, _ = _backflow_scan(tmp_path, "far", {"t_range": [0.0, 1e308]})
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "t_range" in err[0] and "not finite" in err[0]
    assert not (out / "backflow_current.csv").exists()


@pytest.mark.parametrize("x_count, extra", [
    (cli._TEXT_CELLS // 4, -1), (cli._TEXT_CELLS // 4, 0), (cli._TEXT_CELLS // 4, 1),
    (cli._TEXT_CELLS + 1, 2)], ids=["-1", "0", "1", "wide"])
def test_backflow_blocks_give_the_bits_of_one_call(tmp_path, monkeypatch, x_count, extra):
    # t_count one below, at and one above a block of 4 times, and a row
    # wider than a CSV block, which takes a block alone: the streamed rows,
    # minimum and file are those of one free_current call over all
    rows = max(1, cli._TEXT_CELLS // x_count)
    blocks, free_current = [], transforms.free_current

    def counted(psi_tilde, ts, xs):
        blocks.append(len(ts))
        return free_current(psi_tilde, ts, xs)

    monkeypatch.setattr(transforms, "free_current", counted)
    rc, out, cfg = _backflow_scan(tmp_path, "blocks", {"x_count": x_count,
                                                       "t_count": rows + extra})
    assert rc == 0
    assert blocks[:-1] == [rows] * (len(blocks) - 1) and 0 < blocks[-1] <= rows
    scan = cfg["backflow_scan"]
    ts = np.linspace(*scan["t_range"], scan["t_count"])
    xs = np.linspace(*scan["x_range"], scan["x_count"])
    params = build_params(cfg)
    j = free_current(build_packet(cfg, params, build_x_grid(cfg)), ts, xs)
    _reference_write_csv(tmp_path / "one.csv", ["t", "x", "j"],
                         np.repeat(ts, xs.size), np.tile(xs, ts.size), j)
    assert (out / "backflow_current.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    k_t, k_x = np.unravel_index(np.argmin(j), j.shape)
    summary = read_json(out / "backflow_summary.json")
    assert (summary["min_current"], summary["argmin_x"], summary["argmin_t"]) == (
        j[k_t, k_x], xs[k_x], ts[k_t])


def test_backflow_memory_does_not_grow_with_t_count(tmp_path):
    # computed, written and searched a block of times at a time: 40 times
    # of 201 points, so 256 times take seven blocks and 2,048 take 52
    peaks = []
    for t_count in (256, 256, 2048):  # a first run keeps lazy imports out
        tracemalloc.start()
        try:
            rc, _, _ = _backflow_scan(tmp_path, f"t{t_count}", {"t_count": t_count})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc == 0
    assert peaks[2] <= 1.2 * peaks[1]


@pytest.mark.parametrize("samples", [1_000_000, 4_000_000])
def test_classical_limit_memory_does_not_grow_with_samples(tmp_path, samples):
    # the tables are exact, so nothing grows with the sample count, which
    # changes nothing
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    cfg["classical_limit"]["samples"] = samples
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    # a first run keeps lazy imports out of the traced one
    assert run_cli("classical-limit", "--config", str(path), "--out", str(tmp_path / "a")) == 0
    tracemalloc.start()
    try:
        rc = run_cli("classical-limit", "--config", str(path), "--out", str(tmp_path / "b"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 6e6


@pytest.mark.parametrize("command,scenario", [
    ("arrival", "reference_rightmover.json"),
    ("backflow", "backflow_default.json"),
    ("flow-classify", "flow_x2.json"),
])
def test_seed_flag_belongs_to_classical_limit(tmp_path, capsys, command, scenario):
    # it was accepted and changed no byte of the output
    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        run_cli(command, "--config", scenario_path(scenario),
                "--out", str(tmp_path / "out"), "--seed", "7")
    assert usage.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_classical_limit_samples_and_seeds_change_no_byte(tmp_path):
    # the tables are the exact histograms of the sampled ensemble: samples,
    # the scenario seed and --seed are accepted within their bounds and
    # change nothing
    cfg = read_json(scenario_path("classical_limit_reference.json"))
    trees = []
    for samples, seed, flag in ((1_000_000, 20240601, []), (100, 0, ["--seed", "7"]),
                                (10_000_000, 3, ["--seed", "0"])):
        cfg["classical_limit"]["samples"], cfg["seed"] = samples, seed
        path = tmp_path / f"{samples}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"out-{samples}"
        assert run_cli("classical-limit", "--config", str(path), "--out", str(out),
                       *flag) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(trees[0]) == 9 and trees[0] == trees[1] == trees[2]


def test_refuses_negative_seed_flag(tmp_path, capsys):
    capsys.readouterr()
    rc = run_cli("classical-limit", "--config",
                 scenario_path("classical_limit_reference.json"),
                 "--out", str(tmp_path / "out"), "--seed", "-1")
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "--seed -1" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("classical_limit", "samples", 1e300),
    ("classical_limit", "samples", 10_000_001),
    ("grids", "x", {"min": -30.0, "max": 30.0, "count": 2**22 + 1}),
])
def test_refuses_counts_above_the_schema_maximum(tmp_path, capsys, section, key,
                                                 value):
    cfg = read_json(scenario_path("classical_limit_reference.json"))
    cfg[section][key] = value
    cfg.pop("name")
    rc, err = _refusal(tmp_path, capsys, "classical-limit", cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "is greater than the maximum of" in err[0]


@pytest.mark.parametrize("command,scenario,path,count", [
    ("classical-limit", "classical_limit_reference.json", ("classical_limit", "p_bins"), 4),
    ("classical-limit", "classical_limit_reference.json", ("grids", "x"), 7),
    ("arrival", "reference_rightmover.json", ("grids", "T"), 2),
])
def test_refuses_axis_counts_below_the_grid_floor(tmp_path, capsys, command,
                                                  scenario, path, count):
    # Grid1D needs 8 points; the schema names the field that has fewer
    cfg = read_json(scenario_path(scenario))
    cfg[path[0]][path[1]]["count"] = count
    rc, err = _refusal(tmp_path, capsys, command, cfg)
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert f"{count} is less than the minimum of 8 (at {path[0]}/{path[1]}/count)" in err[0]


class _MissingSchema:
    """The package's files with the schema gone: every read fails as a
    missing file would."""

    def joinpath(self, name):
        self.name = name
        return self

    def read_text(self, encoding):
        raise FileNotFoundError(2, "No such file or directory", f"flowquant/{self.name}")


def test_unreadable_schema_is_a_scenario_error_not_an_output_failure(
        tmp_path, capsys, monkeypatch):
    config = scenario_path("reference_rightmover.json")
    monkeypatch.setattr(scenarios, "resources",
                        SimpleNamespace(files=lambda package: _MissingSchema()))
    scenarios._schema.cache_clear()
    try:
        capsys.readouterr()
        rc = run_cli("arrival", "--config", config, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err.strip().splitlines()
    finally:
        scenarios._schema.cache_clear()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:")
    assert "cannot read the scenario schema flowquant/schema/scenario.schema.json" in err[0]
    assert "cannot write output" not in err[0]
    assert not (tmp_path / "out").exists()


def test_parser_is_built_once_and_out_defaults_to_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("flow-classify", "--config", scenario_path("flow_const.json")) == 0
    assert (tmp_path / "out" / "flow_classification.json").exists()
    assert cli._parser() is cli._parser()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "flowquant.cli", "flow-classify",
         "--config", scenario_path("flow_const.json"),
         "--out", str(tmp_path / "out")],
        env=_checkout_env(), capture_output=True, text=True)
    assert result.returncode == 0
    assert "Complete" in result.stdout
