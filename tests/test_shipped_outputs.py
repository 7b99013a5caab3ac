"""The 13 shipped CLI trees against their pin, tests/data/shipped_outputs.json
(re-pinned with ``python tests/shipped_pin.py pin``): equal bytes on the
pin's numpy build and SIMD features, the column digests within tolerance
elsewhere."""

import json

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
