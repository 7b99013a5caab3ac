"""The 13 shipped CLI trees against their pin, tests/data/shipped_outputs.json
(re-pinned with ``python tests/shipped_pin.py pin``): equal bytes on the
pin's numpy build and SIMD features, the column digests within tolerance
elsewhere."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import flowquant
import shipped_pin


def _pin() -> dict:
    return json.loads(shipped_pin.PIN.read_text(encoding="utf-8"))


def test_shipped_outputs_match_the_pin(shipped_outputs):
    pin = _pin()
    assert len(pin["files"]) == len(shipped_outputs) == 27
    assert shipped_pin.compare(pin, shipped_pin.digest(shipped_outputs)) == []


def _moved(files: dict, key: str, column: str, by: float) -> dict:
    """files with the largest value of one CSV column, a positive one, moved
    by `by` times itself."""
    header, *rows = files[key].decode("ascii").splitlines()
    cells = [line.split(",") for line in rows]
    i = header.split(",").index(column)
    top = max(cells, key=lambda row: float(row[i]))
    top[i] = repr(float(top[i]) * (1.0 + by))
    text = "\n".join([header, *(",".join(c) for c in cells)]) + "\n"
    return {**files, key: text.encode("ascii")}


def test_pin_holds_bytes_on_its_build_and_digests_elsewhere(shipped_outputs):
    # both sides pinned here: the same build, and the same pin as if it had
    # been written by another numpy
    here = shipped_pin.digest(shipped_outputs)
    elsewhere = {**here, "numpy": "0.0"}
    key = "mixed_beam/arrival_density.csv"
    rounded = shipped_pin.digest(_moved(shipped_outputs, key, "total", 1e-14))
    assert shipped_pin.compare(here, rounded) == [f"{key}: bytes differ from the pin"]
    assert shipped_pin.compare(elsewhere, rounded) == []

    changed = shipped_pin.digest(_moved(shipped_outputs, key, "total", 1e-6))
    assert [p.split(":")[0] for p in shipped_pin.compare(elsewhere, changed)] == [
        f"{key} total"] * 3  # max, sum and sum of squares

    short = {**shipped_outputs, key: shipped_outputs[key].rsplit(b"\n", 2)[0] + b"\n"}
    assert shipped_pin.compare(elsewhere, shipped_pin.digest(short)) == [
        f"{key} {name}: 1023 values, pinned 1024" for name in
        ("T", "total", "plus", "minus", "interference")]

    flow = "flow_x2/flow_classification.json"
    relabelled = {**shipped_outputs, flow: shipped_outputs[flow].replace(
        b"PluggableIncomplete", b"Complete")}
    assert [p.split(":")[0] for p in shipped_pin.compare(
        elsewhere, shipped_pin.digest(relabelled))] == [flow]
    missing = dict(shipped_outputs)
    del missing[flow]
    assert shipped_pin.compare(here, shipped_pin.digest(missing)) == [
        f"files missing [{flow!r}], not pinned []"]


# numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the trees are
# written and digested in a child process that has it set: the digest then
# records the child's SIMD features, and compare takes its column-digest
# branch, as it would for trees written on another machine.
_CHILD = """
import json, pathlib, sys
import shipped_pin
shipped_pin.write_trees(sys.argv[1])
got = shipped_pin.digest(shipped_pin.read_trees(sys.argv[1]))
pathlib.Path(sys.argv[2]).write_text(json.dumps(got), encoding="utf-8")
"""


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"),
                    reason="no AVX-512 dispatch to disable on this CPU")
def test_pin_holds_with_avx512_dispatch_disabled(tmp_path):
    path = [str(pathlib.Path(flowquant.__file__).parent.parent),
            str(pathlib.Path(shipped_pin.__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    digest = tmp_path / "digest.json"
    # a numpy warning fails the child, as the in-process runs fail on one
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _CHILD,
                    str(tmp_path / "trees"), str(digest)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    got = json.loads(digest.read_text(encoding="utf-8"))
    pin = _pin()
    assert shipped_pin.compare(pin, got) == []
    # the setting took: some bytes moved, within the digests' tolerance
    assert any(got["files"][key]["sha256"] != entry["sha256"]
               for key, entry in pin["files"].items())
