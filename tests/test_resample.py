import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowquant.resample import (_PHASE_JUMP_LIMIT, _STENCIL, _TO_QUINTIC,
                                _amp_phase, _from_amp_phase, interpolate,
                                resample_complex)

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


# Bit parity of the rewritten helpers with the numpy expressions they
# replace.  Arrays are compared as their uint64 bit patterns, so a signed
# zero or a one-ulp difference counts.

def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def _numpy_amp_phase(values):
    return np.abs(values) + 1j * np.unwrap(np.angle(values))


def _numpy_stencil(values, t):
    windows = len(values) - _STENCIL + 1
    shifted = np.stack([values[j:j + windows] for j in range(_STENCIL)])
    coeffs = (_TO_QUINTIC @ shifted.view(np.float64)).view(np.complex128)
    start = np.clip(np.floor(t).astype(np.intp) - 2, 0, len(values) - _STENCIL)
    v = t - start - 2.5
    window = coeffs.take(start, axis=1)
    acc = window[0]
    for row in window[1:]:
        acc *= v
        acc += row
    return acc


def _numpy_interpolate(nodes, values, queries):
    """interpolate as it read before its numpy calls were inlined."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=np.complex128)
    queries = np.asarray(queries, dtype=float)
    out = np.zeros(queries.shape, dtype=np.complex128)
    if len(nodes) < 2:
        return out
    inside = (queries >= nodes[0]) & (queries <= nodes[-1])
    q = queries[inside]
    if len(nodes) < _STENCIL:
        out[inside] = np.interp(q, nodes, values.real) + \
            1j * np.interp(q, nodes, values.imag)
        return out
    packed = _numpy_amp_phase(values)
    if packed.real.max() == 0.0 or not np.any(inside):
        return out
    t = (q - nodes[0]) * ((len(nodes) - 1) / (nodes[-1] - nodes[0]))
    interp = _from_amp_phase(_numpy_stencil(packed, t))
    jumps = np.abs(np.diff(packed.imag)) >= _PHASE_JUMP_LIMIT
    if np.any(jumps):
        bad = jumps[np.clip(np.floor(t).astype(np.intp), 0, len(nodes) - 2)]
        q_bad = q[bad]
        interp[bad] = np.interp(q_bad, nodes, values.real) + \
            1j * np.interp(q_bad, nodes, values.imag)
    out[inside] = interp
    return out


# Phase steps: small ones, those at and above the 0.9 pi jump limit, and the
# +-pi steps where unwrapping breaks its tie.
_STEPS = st.one_of(st.floats(-0.5, 0.5),
                   st.sampled_from([0.9 * np.pi, -0.9 * np.pi, np.pi, -np.pi,
                                    1.5 * np.pi, 3.0, -4.0]),
                   st.floats(-4.0, 4.0))
# A sample is kept, or replaced by an exact zero or by one with a -0.0 part.
_SPECIALS = [None, 0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
             complex(1.0, -0.0), complex(-1.0, -0.0), complex(-1.0, 0.0), complex(2.0, 0.0)]


@st.composite
def _samples(draw, min_size=1, max_size=40):
    n = draw(st.integers(min_size, max_size))
    steps = draw(st.lists(_STEPS, min_size=n, max_size=n))
    amps = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    values = np.array(amps) * np.exp(1j * np.cumsum(steps))
    for i, special in enumerate(draw(st.lists(st.sampled_from(_SPECIALS),
                                              min_size=n, max_size=n))):
        if special is not None:
            values[i] = special
    return values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_samples())
def test_amp_phase_bits_are_numpys(values):
    assert np.array_equal(_bits(_amp_phase(values)), _bits(_numpy_amp_phase(values)))


def test_amp_phase_turns_a_negative_zero_phase_positive():
    # angle(1 - 0j) is -0.0; the sum amp + 1j * phase made it +0.0
    packed = _amp_phase(np.array([complex(1.0, -0.0), 1.0]))
    assert _bits(packed).tolist() == _bits(np.array([1.0, 1.0])).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_samples(min_size=0, max_size=30), st.floats(-5.0, 5.0), st.floats(0.01, 2.0),
       st.lists(st.floats(-0.2, 1.2), max_size=60), st.booleans())
def test_interpolate_bits_are_the_numpy_forms(values, origin, step, fractions, at_nodes):
    nodes = origin + step * np.arange(len(values))
    span = nodes[-1] - nodes[0] if len(nodes) else 1.0
    queries = origin + span * np.array(fractions)  # some outside the node range
    if at_nodes:
        queries = np.concatenate((queries, nodes))
    got = interpolate(nodes, values, queries)
    assert np.array_equal(_bits(got), _bits(_numpy_interpolate(nodes, values, queries)))


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_interpolate_bits_at_the_phase_jump_limit(ulps):
    # one unwrapped phase step a few ulps from the limit: at and above it the
    # interval falls back to linear interpolation, below it it does not
    step = _PHASE_JUMP_LIMIT
    for _ in range(abs(ulps)):
        step = np.nextafter(step, ulps * np.inf)
    values = np.where(np.arange(12) < 6, 1.0 + 0j, complex(np.cos(step), np.sin(step)))
    assert np.diff(_amp_phase(values).imag)[5] == step
    nodes = np.linspace(0.0, 1.1, 12)
    queries = np.linspace(-0.05, 1.15, 97)
    got = interpolate(nodes, values, queries)
    assert np.array_equal(_bits(got), _bits(_numpy_interpolate(nodes, values, queries)))
