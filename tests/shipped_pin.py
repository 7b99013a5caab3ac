"""The pin of the shipped outputs, tests/data/shipped_outputs.json.

The 13 CLI trees (each shipped scenario under its subcommand, and
``arrival --oracle`` on both arrival scenarios, as <scenario>_oracle) are
pinned by the SHA-256 of every file and, per CSV column and per JSON number,
a digest that survives numpy's dispatch differences: count, min, max, sum
and sum of squares (JSON strings, booleans and nulls are kept as they are).
The pin records the numpy version and the SIMD features of the machine that
wrote it, and its C library and Python version: the classical-limit ensemble
tables go through math.erfc, whose bits come from the interpreter's C math
library.  Where all four match, a check requires equal bytes; elsewhere every
column must digest as one whose values each moved by at most 1e-11 of its
largest magnitude (of 1 for a column smaller than that, such as a norm
defect, which is a residual of unit-norm quantities).

    python tests/shipped_pin.py pin          # run the trees in-process, re-pin
    python tests/shipped_pin.py check DIR    # check the trees written under DIR

``pin`` needs flowquant importable (PYTHONPATH=src in a checkout); ``check``
needs only numpy, and reads DIR/<scenario>/<file> as the CLI writes it.
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import platform
import sys
import tempfile

import numpy as np

PIN = pathlib.Path(__file__).resolve().parent / "data" / "shipped_outputs.json"

#: How far a value may move, off the pin's numpy build, as a share of its
#: column's largest magnitude (or of 1).
TOLERANCE = 1e-11


def command_of(cfg: dict) -> str:
    """The subcommand that runs a shipped scenario."""
    if "field" in cfg:
        return "flow-classify"
    if "backflow_scan" in cfg:
        return "backflow"
    if "classical_limit" in cfg:
        return "classical-limit"
    return "arrival"


def write_trees(root) -> None:
    """Run every shipped scenario in-process into root/<scenario>, the
    arrival ones also with --oracle into root/<scenario>_oracle."""
    from flowquant.cli import main
    from flowquant.scenarios import list_scenarios, load_scenario, scenario_path

    for name in list_scenarios():
        path = scenario_path(name)
        command = command_of(load_scenario(path))
        stem = name.removesuffix(".json")
        runs = [(stem, [])] + ([(stem + "_oracle", ["--oracle"])]
                               if command == "arrival" else [])
        for tree, extra in runs:
            out = str(pathlib.Path(root) / tree)
            if main([command, "--config", path, "--out", out, *extra]) != 0:
                raise RuntimeError(f"{command} {' '.join(extra)} {name} failed")


def read_trees(root) -> dict[str, bytes]:
    """{"<tree>/<file>": bytes} over every file of the trees under root."""
    return {f"{p.parent.name}/{p.name}": p.read_bytes()
            for p in sorted(pathlib.Path(root).glob("*/*"))}


def _build() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu_features": dict(sorted(__cpu_features__.items())),
            "libc": list(platform.libc_ver()),
            "python": "%d.%d" % sys.version_info[:2]}


def _columns_of_csv(data: bytes) -> dict[str, list[float]]:
    header, *rows = data.decode("ascii").splitlines()
    names = header.split(",")
    cells = [row.split(",") for row in rows]
    return {name: [float(row[i]) for row in cells] for i, name in enumerate(names)}


def _leaves_of_json(value, path: str, numbers: dict, text: dict) -> None:
    """Each leaf of a JSON value under its key path, list indices as []."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves_of_json(item, f"{path}.{key}" if path else key, numbers, text)
    elif isinstance(value, list):
        for item in value:
            _leaves_of_json(item, path + "[]", numbers, text)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.setdefault(path, []).append(float(value))
    else:
        text.setdefault(path, []).append(value)


def _digest(values: list[float]) -> list[float]:
    """count, min, max, sum and sum of squares, the sums correctly rounded."""
    return [len(values), min(values), max(values), math.fsum(values),
            math.fsum(v * v for v in values)]


def digest(files: dict[str, bytes]) -> dict:
    """The pin of the files, {"<tree>/<file>": bytes}, on this numpy build."""
    pinned = {}
    for key, data in sorted(files.items()):
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if key.endswith(".csv"):
            columns = _columns_of_csv(data)
        else:
            columns, text = {}, {}
            _leaves_of_json(json.loads(data), "", columns, text)
            entry["text"] = text
        entry["columns"] = {name: _digest(v) for name, v in columns.items() if v}
        pinned[key] = entry
    return {**_build(), "files": pinned}


def _column_problems(where: str, pin: list[float], got: list[float]) -> list[str]:
    count, lo, hi, total, squares = got
    if count != pin[0]:
        return [f"{where}: {count} values, pinned {pin[0]}"]
    big = max(abs(pin[1]), abs(pin[2]))
    scale = TOLERANCE * max(big, 1.0)  # how far one value may move
    # a column whose every value moved by at most scale digests within
    # these bounds
    bounds = (scale, scale, count * scale, count * scale * (2.0 * big + scale))
    return [f"{where}: {name} {value!r}, pinned {want!r}, beyond {bound:.3g}"
            for name, value, want, bound in zip(("min", "max", "sum", "sum of squares"),
                                                (lo, hi, total, squares), pin[1:], bounds)
            if not abs(value - want) <= bound]


def compare(pin: dict, got: dict) -> list[str]:
    """What in the digest got departs from the pin: bytes on the pin's numpy
    build, SIMD features, C library and Python version, the column digests
    and JSON text elsewhere."""
    problems = []
    if pin["files"].keys() != got["files"].keys():
        missing = sorted(pin["files"].keys() - got["files"].keys())
        extra = sorted(got["files"].keys() - pin["files"].keys())
        problems.append(f"files missing {missing}, not pinned {extra}")
    exact = all(pin[key] == got[key] for key in _build())
    for key in sorted(pin["files"].keys() & got["files"].keys()):
        want, have = pin["files"][key], got["files"][key]
        if exact:
            if want["sha256"] != have["sha256"]:
                problems.append(f"{key}: bytes differ from the pin")
            continue
        if want.get("text") != have.get("text"):
            problems.append(f"{key}: text {have.get('text')}, pinned {want.get('text')}")
        if want["columns"].keys() != have["columns"].keys():
            problems.append(f"{key}: columns {sorted(have['columns'])}, "
                            f"pinned {sorted(want['columns'])}")
            continue
        for name, values in want["columns"].items():
            problems += _column_problems(f"{key} {name}", values, have["columns"][name])
    return problems


def main(argv: list[str]) -> int:
    if argv[:1] == ["pin"] and len(argv) == 1:
        with tempfile.TemporaryDirectory() as root, \
                contextlib.redirect_stdout(io.StringIO()):  # the runs' own lines
            write_trees(root)
            pinned = digest(read_trees(root))
        PIN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(pinned['files'])} files to {PIN}")
        return 0
    if argv[:1] == ["check"] and len(argv) == 2:
        problems = compare(json.loads(PIN.read_text(encoding="utf-8")),
                           digest(read_trees(argv[1])))
        for problem in problems:
            print(problem)
        print(f"{len(problems)} departures from {PIN.name}")
        return 1 if problems else 0
    print("usage: shipped_pin.py pin | shipped_pin.py check DIR", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
