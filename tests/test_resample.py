import numpy as np
import pytest

from flowquant.resample import interpolate, resample_complex

NODES = np.linspace(0.3, 2.2, 20)
STEP = NODES[1] - NODES[0]


def amp(x):  # positive on the node range, so |values| is this quintic
    return 2.0 + 0.3 * x - 0.4 * x**3 + 0.05 * x**5


def phase(x):  # steps well below pi, so the unwrapped phase is this quintic
    return 0.5 * x - 0.8 * x**2 + 0.2 * x**5


def quintic(x):
    return amp(x) * np.exp(1j * phase(x))


@pytest.mark.parametrize("where", ["first two intervals", "last three intervals",
                                   "nodes", "mid-grid"])
def test_stencil_reproduces_quintics(where):
    frac = np.array([0.0, 0.13, 0.5, 0.77, 0.999])
    queries = {
        "first two intervals": NODES[0] + STEP * np.concatenate([frac, 1.0 + frac]),
        "last three intervals": NODES[-4] + STEP * np.concatenate(
            [frac, 1.0 + frac, 2.0 + frac, [3.0]]),
        "nodes": NODES,
        "mid-grid": NODES[8] + STEP * np.linspace(0.0, 3.0, 31),
    }[where]
    out, _ = resample_complex(NODES, quintic(NODES), queries)
    assert np.abs(out - quintic(queries)).max() <= 1e-13 * np.abs(quintic(NODES)).max()


def test_stencil_window_is_centred_and_clamped():
    # positive real data: the phase is zero, so the modulus stencil is the
    # whole result; compare with the interpolating quintic of each window
    values = 2.0 + np.sin(3.0 * NODES)
    queries = np.linspace(NODES[0], NODES[-1], 97)
    out, _ = resample_complex(NODES, values + 0j, queries)
    interval = np.minimum(((queries - NODES[0]) / STEP).astype(int), len(NODES) - 2)
    start = np.clip(interval - 2, 0, len(NODES) - 6)
    expected = [np.polyval(np.polyfit(NODES[s:s + 6], values[s:s + 6], 5), q)
                for s, q in zip(start, queries)]
    assert np.abs(out - expected).max() <= 1e-12


def test_outside_the_node_range_is_zero():
    out, _ = resample_complex(NODES, quintic(NODES),
                              np.array([NODES[0] - 1e-9, NODES[-1] + 1e-9]))
    assert np.all(out == 0.0)


def test_fewer_than_six_nodes_interpolate_linearly():
    nodes = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    values = np.array([1.0, 2.0j, -1.0, 0.5 - 0.5j, 3.0])
    out, residual = resample_complex(nodes, values, np.array([-0.5, 0.25, 2.5, 4.0, 4.5]))
    expected = [0.0, 0.75 + 0.5j, -0.25 - 0.25j, 3.0, 0.0]
    assert np.abs(out - expected).max() <= 1e-15
    assert residual == 0.0
    single, _ = resample_complex(nodes[:1], values[:1], np.array([0.0]))
    assert np.all(single == 0.0)


def test_residual_bounds_the_actual_error():
    x = np.linspace(-6.0, 6.0, 241)
    packet = np.exp(-x**2 / 2.0 + 3.0j * x)
    queries = 0.5 * (x[:-1] + x[1:])
    out, residual = resample_complex(x, packet, queries)
    actual = np.abs(out - np.exp(-queries**2 / 2.0 + 3.0j * queries)).max()
    assert 0.0 < actual <= residual


# a phase step of 0.95 pi between nodes 8 and 9, where unwrapping is not trusted
PHASE_JUMP = np.exp(1j * np.where(np.arange(20) < 9, 0.0, 0.95 * np.pi)) * (1.0 + NODES)


@pytest.mark.parametrize("nodes,values,queries", [
    (NODES, quintic(NODES), NODES[0] + STEP * np.linspace(0.0, 19.0, 77)),
    (NODES[:5], quintic(NODES[:5]), np.linspace(0.2, 1.2, 23)),
    (NODES, quintic(NODES), np.array([NODES[0] - 1e-9, NODES[-1] + 1e-9, 5.0])),
    (NODES, PHASE_JUMP, np.linspace(NODES[0], NODES[-1], 61)),
], ids=["six or more nodes", "fewer than six nodes", "outside the nodes", "phase jump"])
def test_resample_complex_is_the_interpolation(nodes, values, queries):
    out, _ = resample_complex(nodes, values, queries)
    assert np.array_equal(out, interpolate(nodes, values, queries))
