import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant import classical


@pytest.fixture(scope="module")
def limit_packet(params):
    grid = fq.Grid1D(-30.0, 60.0 / 2048, 2048)
    return fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def limit_ensemble(limit_packet):
    # the limit packet's moments: sigma_x = 1, sigma_p = 0.5
    return fq.ensemble_from_packet(limit_packet, 1_000_000, seed=7)


P_EDGES = np.linspace(-2.0, 4.0, 97)


def test_ensemble_validation(params):
    with pytest.raises(ValueError, match="equal lengths"):
        fq.PhaseSpaceEnsemble(np.zeros(3), np.zeros(4), params)
    with pytest.raises(ValueError, match="equal lengths"):
        fq.PhaseSpaceEnsemble(np.zeros(4), np.zeros(3), params)


def test_ensemble_keeps_its_own_copies(params):
    x, p = np.zeros(4), np.ones(4)
    e = fq.PhaseSpaceEnsemble(x, p, params)
    x[0], p[0] = 5.0, -5.0
    assert np.array_equal(e.x, np.zeros(4))
    assert np.array_equal(e.p, np.ones(4))
    assert not (e.x.flags.writeable or e.p.flags.writeable)


def test_gaussian_ensemble_draws_unchanged(limit_packet):
    # ensemble_from_packet's draws of the seeded generator, bit for bit: the
    # pairs (x_i, p_i) = (mean_x + sigma_x z_2i, mean_p + sigma_p z_2i+1)
    # with the packet's moments
    mean_x, sigma_x, mean_p, sigma_p = classical._packet_moments(limit_packet)
    z = np.random.default_rng(11).standard_normal(20_000)
    e = fq.ensemble_from_packet(limit_packet, 10_000, seed=11)
    assert np.array_equal(e.x, mean_x + sigma_x * z[0::2])
    assert np.array_equal(e.p, mean_p + sigma_p * z[1::2])
    assert not (e.x.flags.writeable or e.p.flags.writeable)


@pytest.mark.parametrize("x,p", [
    ([1e155, 0.0], [0.0, 0.0]),   # x^2 overflows
    ([0.0, np.nan], [0.0, 0.0]),
    ([], []),
])
def test_ensemble_refusals(params, x, p):
    with pytest.raises(ValueError):
        fq.PhaseSpaceEnsemble(np.array(x), np.array(p), params)


def test_evolve_single_sample(params):
    # the sample (1, 2) moves to 1 + 3 * 2 = 7 at t = 3: the whole mass in
    # the bin of p = 7 / 3, the one whose window 3 * edges holds 7
    e = fq.PhaseSpaceEnsemble(np.array([1.0]), np.array([2.0]), params)
    h = fq.momentum_from_position_limit(e, 0.0, 3.0, P_EDGES)
    k = int(np.argmax(h.masses))
    assert h.masses[k] == h.masses.sum() == 1.0
    assert h.edges[k] <= 7.0 / 3.0 < h.edges[k + 1]


# -------------------------------------------------- classical limit formula

def test_momentum_from_position_limit_reference(limit_ensemble):
    mu = np.histogram(limit_ensemble.p, bins=P_EDGES)[0] / limit_ensemble.size
    h = fq.momentum_from_position_limit(limit_ensemble, 0.0, 200.0, P_EDGES)
    assert float(np.sum(np.abs(h.masses - mu))) <= 0.02


def test_momentum_from_position_limit_monotone(limit_ensemble):
    mu = np.histogram(limit_ensemble.p, bins=P_EDGES)[0] / limit_ensemble.size
    errors = []
    for t in (20.0, 50.0, 100.0, 200.0):
        h = fq.momentum_from_position_limit(limit_ensemble, 0.0, t, P_EDGES)
        errors.append(float(np.sum(np.abs(h.masses - mu))))
    assert all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))


def test_momentum_from_position_limit_point(params):
    e = fq.PhaseSpaceEnsemble(np.zeros(16), np.full(16, 1.0), params)
    h = fq.momentum_from_position_limit(e, 0.0, 50.0, P_EDGES)
    assert np.count_nonzero(h.masses) == 1
    k = int(np.argmax(h.masses))
    assert h.edges[k] <= 1.0 <= h.edges[k + 1]


def test_momentum_from_position_limit_leaves_out_positions_past_float64(params):
    # at t = 1e160 the sample with p = 1e150 moves past float64: an inf
    # position, outside the window and left out, with no overflow warning
    e = fq.PhaseSpaceEnsemble(np.zeros(2), np.array([1.0, 1e150]), params)
    h = fq.momentum_from_position_limit(e, 0.0, 1e160, P_EDGES)
    k = int(np.argmax(h.masses))
    assert h.masses[k] == h.masses.sum() == 0.5
    assert h.edges[k] <= 1.0 < h.edges[k + 1]


def test_quantum_momentum_limit_reference(limit_packet):
    # Parseval check needs bins covering essentially all momentum mass
    wide = fq.exact_momentum_histogram(limit_packet, np.linspace(-5.0, 7.0, 193))
    assert abs(wide.masses.sum() - 1.0) <= 1e-10
    exact = fq.exact_momentum_histogram(limit_packet, P_EDGES)
    h = fq.quantum_momentum_limit(limit_packet, 0.0, 200.0, P_EDGES)
    assert fq.l1_distance(h, exact) <= 0.02


def test_quantum_momentum_limit_converges(limit_packet):
    exact = fq.exact_momentum_histogram(limit_packet, P_EDGES)
    e200 = fq.l1_distance(
        fq.quantum_momentum_limit(limit_packet, 0.0, 200.0, P_EDGES), exact)
    e400 = fq.l1_distance(
        fq.quantum_momentum_limit(limit_packet, 0.0, 400.0, P_EDGES), exact)
    assert e400 < e200


def test_quantum_momentum_limit_refuses_unresolved_time(limit_packet):
    # the 2048-point grid resolves the far field from t ~ 0.11 on
    t_min = classical._min_resolved_time(
        limit_packet, 0.0, 0.5 * (P_EDGES[:-1] + P_EDGES[1:]))
    assert 0.1 < t_min < 0.12
    fq.quantum_momentum_limit(limit_packet, 0.0, 1.01 * t_min, P_EDGES)
    with pytest.raises(fq.InvalidParameter, match=r"only t >= 0\.1"):
        fq.quantum_momentum_limit(limit_packet, 0.0, 0.99 * t_min, P_EDGES)
    # bins far to one side of the spectrum must fit in the same period
    far = np.linspace(50.0, 150.0, 65)
    t_far = classical._min_resolved_time(limit_packet, 0.0, 0.5 * (far[:-1] + far[1:]))
    assert t_far > 1.5 * t_min
    with pytest.raises(fq.InvalidParameter):
        fq.quantum_momentum_limit(limit_packet, 0.0, 0.99 * t_far, far)


def test_quantum_momentum_limit_refuses_bins_wider_than_the_period(limit_packet):
    # bins spanning more than the momentum period 2 pi hbar / dx (214.5 here)
    # fit in it at no time
    wide = np.linspace(-120.0, 120.0, 65)
    centers = 0.5 * (wide[:-1] + wide[1:])
    assert classical._min_resolved_time(limit_packet, 0.0, centers) == math.inf
    with pytest.raises(fq.InvalidParameter, match=r"only t >= inf"):
        fq.quantum_momentum_limit(limit_packet, 0.0, 1e6, wide)


def test_spectrum_masses_refuse_uneven_bins(limit_packet):
    # the centers are evaluated as one uniform grid: bin [0.5, 1] used to get
    # 0.242 here, where |psi~|^2 dp at its center is 0.352
    edges = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    for limit in (lambda e: fq.exact_momentum_histogram(limit_packet, e),
                  lambda e: fq.quantum_momentum_limit(limit_packet, 0.0, 200.0, e)):
        with pytest.raises(fq.InvalidParameter,
                           match=r"p_edges must be uniformly spaced: bin \[0, 0\.5\]"):
            limit(edges)
        limit(np.linspace(-2.0, 6.0, 9))  # np.linspace rounding is uniform enough


@st.composite
def far_field_cases(draw):
    """One or two gaussian_packet components on the limit packet's grid, a
    detector offset x0 and a fraction placing t log-uniformly in
    [1.5 t_min, 400]."""
    components = [(draw(st.floats(0.3, 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3))),
                   draw(st.floats(-8.0, 8.0)), draw(st.floats(-3.0, 3.0)),
                   draw(st.floats(0.3, 1.5)))
                  for _ in range(draw(st.integers(1, 2)))]
    return components, draw(st.floats(-10.0, 10.0)), draw(st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=far_field_cases())
def test_quantum_momentum_limit_closed_form(params, evolved_gaussian_density,
                                            case):
    components, x0, frac = case
    grid = fq.Grid1D(-30.0, 60.0 / 2048, 2048)
    total = sum(a * fq.gaussian_packet(grid, params, xc, pc, sp).values
                for a, xc, pc, sp in components)
    nrm = math.sqrt(float(np.sum(np.abs(total) ** 2) * grid.step))
    psi = fq.WaveFunction(grid, total / nrm, fq.Representation.POSITION, params)
    momenta = [pc for _, _, pc, _ in components]
    spread = max(sp for *_, sp in components)
    p_edges = np.linspace(min(momenta) - 5.0 * spread, max(momenta) + 5.0 * spread, 65)
    centers = 0.5 * (p_edges[:-1] + p_edges[1:])
    t_lo = 1.5 * classical._min_resolved_time(psi, x0, centers)
    t = t_lo * (400.0 / t_lo) ** frac

    h = fq.quantum_momentum_limit(psi, x0, t, p_edges)
    speed = t / params.mass
    exact = (speed * evolved_gaussian_density(t, x0 + speed * centers, components, params)
             * np.diff(p_edges))
    # peak bin mass over the whole far field, not only the window: the grid
    # stretched by (1 + (t/m)^2)^(1/2) holds every component's centre and
    # samples its width finely
    x_far = grid.points * math.sqrt(1.0 + speed**2) + speed * np.mean(momenta)
    peak = (speed * evolved_gaussian_density(t, x_far, components, params).max()
            * (p_edges[1] - p_edges[0]))
    assert np.abs(h.masses - exact).max() <= 1e-12 * peak


def test_l1_distance_requires_equal_edges():
    # each pair is equal within np.allclose's default tolerances, yet its
    # bins differ: the first pair read 1.0 and the second 0.0
    masses = np.array([1.0, 0.0])
    for edges, other in (([0.0, 1e-9, 2e-9], [0.0, 2e-9, 4e-9]),
                         ([1000.0, 1000.005, 1000.01], [1000.0, 1000.009, 1000.018])):
        h = fq.Histogram(np.array(edges), masses)
        with pytest.raises(ValueError, match="share bin edges"):
            fq.l1_distance(h, fq.Histogram(np.array(other), masses[::-1]))
        assert fq.l1_distance(h, fq.Histogram(np.array(edges), masses[::-1])) == 2.0


# ------------------------------------------------ classical arrival-time mean

def test_oracle_reference_mean(reference_packet, classical_mean):
    # the exact classical mean that criterion 5 checks against, against the
    # mean oriented arrival time of 1,000,000 draws of the same product
    # Gaussian: within 5 of their standard errors (each about 0.003)
    e = fq.ensemble_from_packet(reference_packet, 1_000_000, seed=20240601)
    T = fq.oriented_arrival_time(e.x, e.p, e.params.mass)
    assert abs(np.mean(T) - classical_mean) <= 5.0 * np.std(T) / math.sqrt(e.size)


def test_oracle_joint_flip(reference_packet, params):
    """The oriented arrival time is odd under (x, p) -> (-x, -p): the plain
    arrival time -m x / p is the even one. Checked pointwise and in the mean
    on the reference packet's ensemble, and pointwise on momenta of both
    signs."""
    e = fq.ensemble_from_packet(reference_packet, 100_000, seed=9)
    flipped = fq.PhaseSpaceEnsemble(-e.x, -e.p, params)
    a = fq.oriented_arrival_time(e.x, e.p, params.mass)
    b = fq.oriented_arrival_time(flipped.x, flipped.p, params.mass)
    assert np.array_equal(b, -a)
    assert abs(np.mean(a) + np.mean(b)) <= 1e-12 * abs(np.mean(a))
    plain_a = fq.classical_arrival_time(e.x, e.p, params.mass)
    plain_b = fq.classical_arrival_time(flipped.x, flipped.p, params.mass)
    assert np.array_equal(plain_a, plain_b)
    rng = np.random.default_rng(5)
    x, p = rng.normal(size=64), 3.0 * rng.normal(size=64)
    assert np.array_equal(fq.oriented_arrival_time(-x, -p, 2.0),
                          -fq.oriented_arrival_time(x, p, 2.0))
    assert np.array_equal(fq.classical_arrival_time(-x, -p, 2.0),
                          fq.classical_arrival_time(x, p, 2.0))


def test_ensemble_from_packet_matches_moments(limit_packet, params):
    e = fq.ensemble_from_packet(limit_packet, 400_000, seed=11)
    assert abs(np.mean(e.x)) <= 3.0 / np.sqrt(400_000) * 1.0
    assert abs(np.mean(e.p) - 1.0) <= 3.0 * 0.5 / np.sqrt(400_000)
    assert abs(np.std(e.x) - 1.0) <= 0.01
    assert abs(np.std(e.p) - 0.5) <= 0.01


# ------------------------------------------------------- counted bin masses

@st.composite
def binning_inputs(draw):
    """Increasing edges, uniform or not, and one or more values on the
    edges, one ulp beside them, inside and outside the range."""
    n_bins = draw(st.integers(1, 24))
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        edges = np.linspace(lo, lo + width, n_bins + 1)
    else:
        cuts = draw(st.lists(st.floats(lo, lo + width), min_size=n_bins + 1,
                             max_size=n_bins + 1))
        edges = np.unique(cuts + [lo, lo + width])
    edge = st.sampled_from(edges.tolist())
    value = (edge | edge.map(lambda e: np.nextafter(e, -np.inf))
             | edge.map(lambda e: np.nextafter(e, np.inf))
             | st.floats(lo - width, lo + 2.0 * width))
    values = np.array(draw(st.lists(value, min_size=1, max_size=60)), dtype=float)
    return values, edges


def _bin_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The number of values in each bin [edges[i], edges[i+1]), the last bin
    closed, by a search of the edges rather than np.histogram's sort."""
    k = np.searchsorted(edges, values, side="right") - 1
    k[values == edges[-1]] = len(edges) - 2
    inside = (k >= 0) & (k < len(edges) - 1)
    return np.bincount(k[inside], minlength=len(edges) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=binning_inputs())
@example(case=(np.array([0.0, 0.25, 0.5, 1.0, 1.0, -1e-300, 1.0 + 1e-16, 2.0]),
               np.array([0.0, 0.25, 0.5, 1.0])))
@example(case=(np.array([1e-9, 2.5e-9, 3.0, 999.0, 1000.0]),
               np.array([0.0, 1e-9, 2e-9, 3e-9, 1.0, 1000.0])))
def test_bin_masses_match_np_histogram(params, case):
    # each mass is its bin's count over the sample count, rounded once: at
    # x = 0, x0 = 0 and t = m the limit bins the momenta themselves
    values, edges = case
    e = fq.PhaseSpaceEnsemble(np.zeros(len(values)), values, params)
    masses = fq.momentum_from_position_limit(e, 0.0, params.mass, edges).masses
    assert np.array_equal(masses, np.histogram(values, bins=edges)[0] / len(values))
    assert np.array_equal(masses, _bin_counts(values, edges) / len(values))


def test_bin_masses_refuse_unordered_edges(params):
    e = fq.PhaseSpaceEnsemble(np.zeros(3), np.zeros(3), params)
    for edges in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan], [0.0]):
        with pytest.raises(fq.InvalidParameter, match="^momentum bin edges"):
            fq.momentum_from_position_limit(e, 0.0, 1.0, np.array(edges))


_MOMENTUM_ENTRY_POINTS = {
    "momentum_from_position_limit":
        lambda packet, e, edges: fq.momentum_from_position_limit(e, 0.0, 20.0, edges),
    "_gaussian_limits":
        lambda packet, e, edges: classical._gaussian_limits(packet, 0.0, [20.0], edges),
    "quantum_momentum_limit":
        lambda packet, e, edges: fq.quantum_momentum_limit(packet, 0.0, 20.0, edges),
    "exact_momentum_histogram":
        lambda packet, e, edges: fq.exact_momentum_histogram(packet, edges),
}


@pytest.mark.parametrize("edges", [[1.0], np.linspace(4.0, -2.0, 97),
                                   [0.0, np.nan, 1.0]],
                         ids=["one-edge", "decreasing", "nan"])
@pytest.mark.parametrize("entry", sorted(_MOMENTUM_ENTRY_POINTS))
def test_momentum_entry_points_admit_bin_edges_alike(limit_packet, entry, edges):
    # one edge was an IndexError, decreasing edges a negative grid step and
    # NaN edges a non-finite grid origin in the two quantum entry points
    ensemble = fq.ensemble_from_packet(limit_packet, 100, seed=7)
    with pytest.raises(fq.InvalidParameter,
                       match=r"^momentum bin edges must be finite and increasing"):
        _MOMENTUM_ENTRY_POINTS[entry](limit_packet, ensemble, np.asarray(edges))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=binning_inputs(),
       drift=st.lists(st.floats(-1e3, 1e3), min_size=60, max_size=60),
       speed=st.sampled_from([1e-3, 0.5, 3.0, 1e3]))
def test_bin_masses_drift_matches_materialized_values(params, case, drift, speed):
    # the limit counts exactly the positions that x + speed * p would hold:
    # with x0 = 0 and m = 1 its window is speed * edges
    values, edges = case
    assume(np.all(speed * edges[:-1] < speed * edges[1:]))  # a window of bins
    drift = np.array(drift[:len(values)])
    e = fq.PhaseSpaceEnsemble(values, drift, params)
    masses = fq.momentum_from_position_limit(e, 0.0, speed, edges).masses
    assert np.array_equal(masses,
                          _bin_counts(values + speed * drift, speed * edges) / len(values))


def test_bin_masses_leave_out_values_one_ulp_beyond_the_edges(params):
    # the top bin is closed: the value on the top edge (2 - 2^-52 here) is
    # in it, the value one ulp above it is not
    edges = np.linspace(-1.3, -1.3 + 3.3, 8)
    values = np.array([np.nextafter(edges[-1], np.inf), edges[-1],
                       np.nextafter(edges[0], -np.inf), edges[0]])
    e = fq.PhaseSpaceEnsemble(np.zeros(4), values, params)
    masses = fq.momentum_from_position_limit(e, 0.0, params.mass, edges).masses
    assert np.array_equal(masses, [0.25, 0, 0, 0, 0, 0, 0.25])


@pytest.mark.parametrize("seed,count", [(3, 2_000), (7, 2_001), (65536, 1_000_000)])
def test_every_classical_histogram_is_a_count_over_the_sample_count(limit_packet,
                                                                    seed, count):
    # np.histogram(...)[0] / N, bit for bit, of the evolved positions
    # x + (t/m) p in the limit's window
    times = [20.0, 200.0]
    e = fq.ensemble_from_packet(limit_packet, count, seed)
    limits = [fq.momentum_from_position_limit(e, 0.5, t, P_EDGES) for t in times]
    for t, h in zip(times, limits):
        window = 0.5 + t * P_EDGES
        direct = np.histogram(e.x + t * e.p, window)[0] / count
        assert np.array_equal(h.masses, direct)


@pytest.mark.parametrize("seed,count", [(3, 2_000), (7, 2_000), (65536, 1_000_000)])
def test_momentum_from_position_limit_bins_the_evolved_positions(limit_packet, seed,
                                                                  count):
    e = fq.ensemble_from_packet(limit_packet, count, seed)
    for t in (20.0, 200.0):
        h = fq.momentum_from_position_limit(e, 0.5, t, P_EDGES)
        moved = e.x + t * e.p
        assert np.array_equal(h.masses, _bin_counts(moved, 0.5 + t * P_EDGES) / count)


@pytest.mark.parametrize("seed,count", [(3, 2_000), (7, 2_001), (65536, 1_000_000)])
def test_ensemble_histograms_scatter_about_the_gaussian_limits(limit_packet, seed,
                                                               count):
    # the closed form the CLI writes is what the sampled histograms of
    # ensemble_from_packet converge to: each count lies within 5 binomial
    # standard deviations (and one count) of N times its mass
    times = [20.0, 50.0, 200.0]
    mu, limits = classical._gaussian_limits(limit_packet, 0.5, times, P_EDGES)
    e = fq.ensemble_from_packet(limit_packet, count, seed)
    sampled = [np.histogram(e.p, P_EDGES)[0] / count] + [
        fq.momentum_from_position_limit(e, 0.5, t, P_EDGES).masses for t in times]
    for exact, masses in zip([mu, *limits], sampled):
        assert np.array_equal(exact.edges, P_EDGES)
        spread = np.sqrt(count * exact.masses * (1.0 - exact.masses))
        assert np.all(np.abs(masses - exact.masses) * count <= 5.0 * spread + 1.0)


def test_gaussian_limits_keep_the_checks(params):
    grid = fq.Grid1D(-30.0, 60.0 / 256, 256)
    packet = fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="t > 0"):
        classical._gaussian_limits(packet, 0.0, [10.0, 0.0], P_EDGES)
    with pytest.raises(ValueError, match="edges"):
        classical._gaussian_limits(packet, 0.0, [10.0], P_EDGES[::-1])
    with pytest.raises(fq.InvalidParameter, match="position bin edges"):
        classical._gaussian_limits(packet, 0.0, [1e308], P_EDGES)


def test_gaussian_limits_take_either_representation(limit_packet, arrival_grid, params):
    # the packet's moments are read in position and in momentum from either
    times = [20.0, 200.0]
    mu, limits = classical._gaussian_limits(limit_packet, 0.0, times, P_EDGES)
    mu_p, limits_p = classical._gaussian_limits(fq.to_momentum(limit_packet), 0.0, times,
                                                P_EDGES)
    for a, b in zip([mu, *limits], [mu_p, *limits_p]):
        assert np.abs(a.masses - b.masses).max() <= 1e-14
    arriving = fq.WaveFunction(arrival_grid, np.ones(arrival_grid.count),
                               fq.Representation.ARRIVAL_TIME, params)
    with pytest.raises(fq.RepMismatch):
        classical._gaussian_limits(arriving, 0.0, times, P_EDGES)


@pytest.mark.parametrize("moments,named", [
    ((0.0, 1.0, 1e307, 1.0), "mean inf and spread 100"),     # (t/m) mean_p
    ((0.0, 1.0, 0.0, 1e307), "mean 0 and spread inf"),       # (t/m) sigma_p
    ((0.0, 1.0, 0.0, math.inf), "the momentum has mean 0 and spread inf"),
])
def test_gaussian_limits_refuse_a_mean_or_spread_past_float64(limit_packet, moments,
                                                              named):
    # an overflow gave inf or NaN masses, written as such
    with mock.patch.object(classical, "_packet_moments", return_value=moments), \
            pytest.raises(fq.InvalidParameter, match="not finite in float64") as refused:
        classical._gaussian_limits(limit_packet, 0.0, [100.0], np.linspace(-1.0, 1.0, 9))
    assert named in str(refused.value)


def test_gaussian_limits_of_a_zero_spread_are_a_step(limit_packet):
    # a spread of 0 divided by zero; the whole mass sits in the mean's bin,
    # half and half where the mean is an edge
    edges = np.linspace(-1.0, 1.0, 9)  # edges at multiples of 0.25
    with mock.patch.object(classical, "_packet_moments",
                           return_value=(0.1, 0.0, 0.25, 0.0)):
        mu, (limit,) = classical._gaussian_limits(limit_packet, 0.0, [2.0], edges)
    assert mu.masses.tolist() == [0, 0, 0, 0, 0.5, 0.5, 0, 0]
    # the evolved position 0.1 + 2 * 0.25 = 0.6 in the window 2 * edges
    assert limit.masses.tolist() == [0, 0, 0, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("half", [3, 7, 65536, 500_000])
def test_ensemble_refuses_overflow_in_the_last_block(params, half):
    # an odd length: the overflowing sample is the lone tail that an unrolled
    # or blocked sum of squares handles apart from the rest
    x = np.zeros(2 * half + 1)
    x[-1] = 1e155  # x^2 overflows
    with pytest.raises(ValueError, match="second moments"):
        fq.PhaseSpaceEnsemble(x, np.zeros(x.size), params)


def test_public_constructor_still_owns_contiguous_copies(limit_packet, params):
    e = fq.ensemble_from_packet(limit_packet, 10_000, seed=11)
    copied = fq.PhaseSpaceEnsemble(e.x, e.p, params)
    for name in ("x", "p"):
        mine, theirs = getattr(copied, name), getattr(e, name)
        assert mine.flags.c_contiguous and mine.flags.owndata
        assert not mine.flags.writeable and not np.shares_memory(mine, theirs)
        assert np.array_equal(mine, theirs)
