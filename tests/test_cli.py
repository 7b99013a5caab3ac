import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import flowquant
from flowquant.cli import main
from flowquant.scenarios import list_scenarios, load_scenario, scenario_path


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


def test_cli_import_loads_no_scipy():
    src = str(Path(flowquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, flowquant.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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


def test_flow_classify_inconclusive_exit_code(tmp_path):
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({
        "name": "edge-of-threshold quadratic probe",
        "field": {"kind": "x2"},
        "probe_spec": {"t_probe": 0.1002004008016032},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("flow-classify", "--config", str(cfg), "--out", str(out)) == 2
    report = read_json(out / "flow_classification.json")
    assert report["class"] == "Inconclusive"
    assert report["diagnostics"]


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
    cfg = json.loads(open(scenario_path("backflow_default.json"),
                          encoding="utf-8").read())
    cfg["packet"]["sigma"] = 0.24
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_cli("backflow", "--config", str(path),
                   "--out", str(tmp_path / "out")) == 2


def test_outputs_are_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("classical-limit", "--config",
                       scenario_path("classical_limit_reference.json"),
                       "--out", str(out)) == 0
    for name in ("classical_limit_summary.json",
                 "classical_limit_ensemble_t200.csv",
                 "classical_limit_quantum_t200.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "flowquant.cli", "flow-classify",
         "--config", scenario_path("flow_const.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "Complete" in result.stdout
