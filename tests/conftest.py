import math

import pytest

import flowquant as fq


@pytest.fixture(scope="session")
def params():
    return fq.PhysicalParams()


@pytest.fixture(scope="session")
def wide_grid():
    """Position grid large enough for the x = -50 reference packet."""
    return fq.Grid1D(-200.0, 400.0 / 4096, 4096)


@pytest.fixture(scope="session")
def reference_packet(params, wide_grid):
    """Quasiclassical right-mover: <x> = -50, <p> = 2, sigma_p = 0.2."""
    return fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)


@pytest.fixture(scope="session")
def reference_momentum(reference_packet):
    return fq.to_momentum(reference_packet)


@pytest.fixture(scope="session")
def tight_grid():
    """Fine grid for transport tests needing 1e-8 pointwise interpolation."""
    return fq.Grid1D(-30.0, 60.0 / 4096, 4096)


@pytest.fixture(scope="session")
def centered_packet(params, tight_grid):
    """Unit packet with amplitude envelope exp(-x^2/2)."""
    return fq.gaussian_packet(tight_grid, params, 0.0, 0.0, 1.0 / math.sqrt(2.0))


@pytest.fixture(scope="session")
def arrival_grid():
    """T-window wide enough that the reference packet's tails are < 1e-9."""
    return fq.Grid1D(0.0, 60.0 / 1024, 1024)


def _shipped_command(cfg: dict) -> str:
    if "field" in cfg:
        return "flow-classify"
    if "backflow_scan" in cfg:
        return "backflow"
    if "classical_limit" in cfg:
        return "classical-limit"
    return "arrival"


@pytest.fixture(scope="session")
def run_shipped(tmp_path_factory):
    """run_shipped() runs every shipped scenario under its subcommand, the
    arrival ones also with --oracle, in a fresh directory and returns
    {"<scenario>[ --oracle]/<file>": bytes} over all files written."""
    from flowquant.cli import main
    from flowquant.scenarios import list_scenarios, load_scenario, scenario_path

    def run() -> dict[str, bytes]:
        root = tmp_path_factory.mktemp("shipped")
        for name in list_scenarios():
            path = scenario_path(name)
            command = _shipped_command(load_scenario(path))
            for extra in ([], ["--oracle"]) if command == "arrival" else ([],):
                out = root / " ".join([name, *extra])
                assert main([command, "--config", path, "--out", str(out), *extra]) == 0
        return {f"{p.parent.name}/{p.name}": p.read_bytes()
                for p in sorted(root.glob("*/*"))}
    return run


@pytest.fixture(scope="session")
def shipped_outputs(run_shipped):
    """One run_shipped() result, shared by the tests that compare against it."""
    return run_shipped()
