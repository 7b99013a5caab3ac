import math
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant import classical


@pytest.fixture(scope="module")
def limit_packet(params):
    grid = fq.Grid1D(-30.0, 60.0 / 2048, 2048)
    return fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def limit_ensemble(params):
    # matches the limit packet's moments: sigma_x = 1, sigma_p = 0.5
    return fq.gaussian_ensemble(params, 0.0, 1.0, 1.0, 0.5, 1_000_000, seed=7)


P_EDGES = np.linspace(-2.0, 4.0, 97)


def test_ensemble_validation(params):
    with pytest.raises(ValueError):
        fq.PhaseSpaceEnsemble(np.zeros(4), np.zeros(4), np.full(4, 0.3), params)
    with pytest.raises(ValueError):
        fq.PhaseSpaceEnsemble(np.zeros(4), np.zeros(3), np.full(4, 0.25), params)


def test_ensemble_keeps_its_own_copies(params):
    x, p, w = np.zeros(4), np.ones(4), np.full(4, 0.25)
    e = fq.PhaseSpaceEnsemble(x, p, w, params)
    x[0], p[0], w[:] = 5.0, -5.0, 0.0
    assert np.array_equal(e.x, np.zeros(4))
    assert np.array_equal(e.p, np.ones(4))
    assert np.array_equal(e.w, np.full(4, 0.25))
    assert not (e.x.flags.writeable or e.p.flags.writeable or e.w.flags.writeable)


def test_gaussian_ensemble_draws_unchanged(params):
    # the draws and weights of the seeded generator, bit for bit: the pairs
    # (x_i, p_i) = (mean_x + sigma_x z_2i, mean_p + sigma_p z_2i+1)
    z = np.random.default_rng(11).standard_normal(20_000)
    e = fq.gaussian_ensemble(params, 0.5, 1.5, -1.0, 0.25, 10_000, seed=11)
    assert np.array_equal(e.x, 0.5 + 1.5 * z[0::2])
    assert np.array_equal(e.p, -1.0 + 0.25 * z[1::2])
    assert np.array_equal(e.w, np.full(10_000, 1e-4))
    moved = fq.evolve_ensemble(e, 3.0)
    assert np.array_equal(moved.x, e.x + 3.0 * e.p)
    assert not moved.x.flags.writeable


@pytest.mark.parametrize("x,p,w", [
    ([1e155, 0.0], [0.0, 0.0], [0.5, 0.5]),   # x^2 overflows
    ([0.0, np.nan], [0.0, 0.0], [0.5, 0.5]),
    ([0.0, 0.0], [0.0, 0.0], [1.5, -0.5]),
    ([0.0, 0.0], [0.0, 0.0], [np.nan, 0.5]),
    ([], [], []),
])
def test_ensemble_refusals(params, x, p, w):
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        fq.PhaseSpaceEnsemble(np.array(x), np.array(p), np.array(w), params)


def test_evolve_ensemble_refuses_overflow(params):
    e = fq.PhaseSpaceEnsemble(np.zeros(2), np.ones(2), np.full(2, 0.5), params)
    with pytest.raises(ValueError, match="second moments"), np.errstate(over="ignore"):
        fq.evolve_ensemble(e, 1e200)


def test_evolve_identity(limit_ensemble):
    same = fq.evolve_ensemble(limit_ensemble, 0.0)
    assert np.array_equal(same.x, limit_ensemble.x)
    assert np.array_equal(same.p, limit_ensemble.p)


def test_evolve_single_sample(params):
    e = fq.PhaseSpaceEnsemble(np.array([1.0]), np.array([2.0]), np.array([1.0]),
                              params)
    moved = fq.evolve_ensemble(e, 3.0)
    assert moved.x[0] == 7.0
    assert moved.p[0] == 2.0


def test_evolve_group_action(limit_ensemble):
    a = fq.evolve_ensemble(fq.evolve_ensemble(limit_ensemble, 2.0), 3.0)
    b = fq.evolve_ensemble(limit_ensemble, 5.0)
    assert np.abs(a.x - b.x).max() <= 1e-12 * (1.0 + np.abs(b.x).max())


def test_momentum_marginal_invariant(limit_ensemble):
    x_edges = np.linspace(-500.0, 500.0, 41)
    before = fq.marginals(limit_ensemble, x_edges, P_EDGES)
    after = fq.marginals(fq.evolve_ensemble(limit_ensemble, 37.0), x_edges, P_EDGES)
    assert np.abs(before.mu.masses - after.mu.masses).max() <= 1e-12


def test_marginals_product_gaussian(params):
    n = 200_000
    e = fq.gaussian_ensemble(params, 1.0, 2.0, -0.5, 0.7, n, seed=42)
    x_edges = np.linspace(-15.0, 17.0, 129)
    p_edges = np.linspace(-6.0, 5.0, 129)
    m = fq.marginals(e, x_edges, p_edges)
    assert abs(m.rho.masses.sum() - 1.0) <= 1e-12
    assert abs(m.mu.masses.sum() - 1.0) <= 1e-12
    mean_x = float(np.sum(m.rho.centers * m.rho.masses))
    mean_p = float(np.sum(m.mu.centers * m.mu.masses))
    assert abs(mean_x - 1.0) <= 3.0 * 2.0 / np.sqrt(n)
    assert abs(mean_p + 0.5) <= 3.0 * 0.7 / np.sqrt(n)


def test_marginals_point_ensemble(params):
    e = fq.PhaseSpaceEnsemble(np.full(8, 0.5), np.full(8, 1.5),
                              np.full(8, 0.125), params)
    m = fq.marginals(e, np.linspace(0.0, 1.0, 11), np.linspace(1.0, 2.0, 11))
    assert np.count_nonzero(m.rho.masses) == 1
    assert np.count_nonzero(m.mu.masses) == 1


def test_marginals_range_check(params):
    e = fq.gaussian_ensemble(params, 0.0, 1.0, 0.0, 1.0, 1000, seed=1)
    with pytest.raises(fq.BinRangeTooSmall):
        fq.marginals(e, np.linspace(-1.0, 1.0, 11), np.linspace(-50.0, 50.0, 11))


# -------------------------------------------------- classical limit formula

def test_momentum_from_position_limit_reference(limit_ensemble):
    mu = np.histogram(limit_ensemble.p, bins=P_EDGES, weights=limit_ensemble.w)[0]
    h = fq.momentum_from_position_limit(limit_ensemble, 0.0, 200.0, P_EDGES)
    assert float(np.sum(np.abs(h.masses - mu))) <= 0.02


def test_momentum_from_position_limit_monotone(limit_ensemble):
    mu = np.histogram(limit_ensemble.p, bins=P_EDGES, weights=limit_ensemble.w)[0]
    errors = []
    for t in (20.0, 50.0, 100.0, 200.0):
        h = fq.momentum_from_position_limit(limit_ensemble, 0.0, t, P_EDGES)
        errors.append(float(np.sum(np.abs(h.masses - mu))))
    assert all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))


def test_momentum_from_position_limit_point(params):
    e = fq.PhaseSpaceEnsemble(np.zeros(16), np.full(16, 1.0),
                              np.full(16, 1.0 / 16.0), params)
    h = fq.momentum_from_position_limit(e, 0.0, 50.0, P_EDGES)
    assert np.count_nonzero(h.masses) == 1
    k = int(np.argmax(h.masses))
    assert h.edges[k] <= 1.0 <= h.edges[k + 1]


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


# ----------------------------------------------------- arrival-time oracle

def test_oracle_point_ensemble(params):
    e = fq.PhaseSpaceEnsemble(np.full(4, -50.0), np.full(4, 2.0),
                              np.full(4, 0.25), params)
    stats = fq.classical_arrival_oracle(e)
    assert stats.mean == 25.0
    assert stats.variance == 0.0


def test_oracle_reference_mean(params):
    e = fq.gaussian_ensemble(params, -50.0, 2.5, 2.0, 0.2, 1_000_000,
                             seed=20240601)
    stats = fq.classical_arrival_oracle(e)
    assert abs(stats.mean - 25.0) <= 0.02 * 25.0


def test_oracle_momentum_floor(params):
    e = fq.PhaseSpaceEnsemble(np.array([1.0, 2.0]), np.array([1e-9, 1.0]),
                              np.array([0.5, 0.5]), params)
    with pytest.raises(fq.MomentumFloorViolated):
        fq.classical_arrival_oracle(e)


def test_oracle_joint_flip(params):
    """The oriented arrival time is odd under (x, p) -> (-x, -p): the plain
    arrival time -m x / p is the even one."""
    e = fq.gaussian_ensemble(params, -50.0, 2.5, 2.0, 0.2, 100_000, seed=9)
    flipped = fq.PhaseSpaceEnsemble(-e.x, -e.p, e.w, params)
    a = fq.classical_arrival_oracle(e)
    b = fq.classical_arrival_oracle(flipped)
    assert abs(a.mean + b.mean) <= 1e-12 * abs(a.mean)
    plain_a = fq.classical_arrival_time(e.x, e.p, params.mass)
    plain_b = fq.classical_arrival_time(-e.x, -e.p, params.mass)
    assert np.array_equal(plain_a, plain_b)


def test_oracle_histogram(params):
    e = fq.gaussian_ensemble(params, -50.0, 2.5, 2.0, 0.2, 10_000, seed=3)
    stats = fq.classical_arrival_oracle(e, bins=np.linspace(0.0, 60.0, 61))
    assert stats.histogram is not None
    assert stats.histogram.masses.sum() <= 1.0 + 1e-12


def test_ensemble_from_packet_matches_moments(limit_packet, params):
    e = fq.ensemble_from_packet(limit_packet, 400_000, seed=11)
    assert abs(np.mean(e.x)) <= 3.0 / np.sqrt(400_000) * 1.0
    assert abs(np.mean(e.p) - 1.0) <= 3.0 * 0.5 / np.sqrt(400_000)
    assert abs(np.std(e.x) - 1.0) <= 0.01
    assert abs(np.std(e.p) - 0.5) <= 0.01


# ------------------------------------------------------- sort-free binning

@st.composite
def binning_inputs(draw):
    """Increasing edges, uniform or not, and values on the edges, one ulp
    beside them, inside and outside the range, with positive weights."""
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
    values = np.array(draw(st.lists(value, max_size=60)), dtype=float)
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=len(values),
                                     max_size=len(values))))
    return values, weights / max(weights.sum(), 1.0), edges


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=binning_inputs(), block=st.sampled_from([3, 7, classical._BIN_BLOCK]))
@example(case=(np.array([0.0, 0.25, 0.5, 1.0, 1.0, -1e-300, 1.0 + 1e-16, np.nan]),
               np.full(8, 0.125), np.array([0.0, 0.25, 0.5, 1.0])),
         block=classical._BIN_BLOCK)
@example(case=(np.array([1e-9, 2.5e-9, 3.0, 999.0, 1000.0]), np.full(5, 0.2),
               np.array([0.0, 1e-9, 2e-9, 3e-9, 1.0, 1000.0])), block=2)
def test_bin_masses_match_np_histogram(case, block):
    values, weights, edges = case
    with mock.patch.object(classical, "_BIN_BLOCK", block):
        counts = classical._bin_masses(values, np.ones(len(values)), edges)
        masses = classical._bin_masses(values, weights, edges)
    assert np.array_equal(counts, np.histogram(values, bins=edges)[0])
    reference = np.histogram(values, bins=edges, weights=weights)[0]
    assert np.abs(masses - reference).max() <= 1e-13
    # each mass is its bin's weights summed, to a few roundings
    bins = np.searchsorted(edges, values, side="right") - 1
    bins[values == edges[-1]] = len(edges) - 2
    for k, mass in enumerate(masses):
        assert abs(mass - math.fsum(weights[bins == k])) <= 1e-15


def test_bin_masses_refuse_unordered_edges():
    for edges in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan], [0.0]):
        with pytest.raises(ValueError, match="edges"):
            classical._bin_masses(np.zeros(3), np.ones(3), np.array(edges))


def test_momentum_histogram_is_exact(limit_ensemble):
    # unit-weight samples: each mass is its count times the weight, to the
    # roundings of a sum within the bin, not of a cumulative sum
    h = fq.momentum_histogram(limit_ensemble, P_EDGES)
    counts = np.histogram(limit_ensemble.p, bins=P_EDGES)[0]
    w = limit_ensemble.w[0]
    assert np.abs(h.masses - counts * w).max() <= 1e-14
    assert np.abs(h.masses - counts * w).max() < \
        np.abs(np.histogram(limit_ensemble.p, bins=P_EDGES,
                            weights=limit_ensemble.w)[0] - counts * w).max()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=binning_inputs(), block=st.sampled_from([3, 7, classical._BIN_BLOCK]),
       drift=st.lists(st.floats(-1e3, 1e3), min_size=60, max_size=60),
       speed=st.sampled_from([0.0, 1e-3, 0.5, 3.0, 1e3]))
def test_bin_masses_drift_matches_materialized_values(case, block, drift, speed):
    # the fused drift bins exactly the samples that x + speed * p would hold
    values, weights, edges = case
    drift = np.array(drift[:len(values)])
    with mock.patch.object(classical, "_BIN_BLOCK", block):
        fused = classical._bin_masses(values, weights, edges, drift, speed)
        moved = classical._bin_masses(values + speed * drift, weights, edges)
    assert np.array_equal(fused, moved)
    reference = np.histogram(values + speed * drift, bins=edges, weights=weights)[0]
    assert np.abs(fused - reference).max(initial=0.0) <= 1e-13


def test_bin_masses_leave_out_values_one_ulp_beyond_the_edges():
    # with these edges the uniform guess for the value one ulp above the top
    # edge rounds into the last bin; the check against the actual edges must
    # move it on to the overflow bin
    edges = np.linspace(-1.3, -1.3 + 3.3, 8)  # top edge 2 - 2^-52
    values = np.array([np.nextafter(edges[-1], np.inf), edges[-1],
                       np.nextafter(edges[0], -np.inf), edges[0]])
    masses = classical._bin_masses(values, np.full(4, 0.25), edges)
    assert np.array_equal(masses, [0.25, 0, 0, 0, 0, 0, 0.25])


@pytest.mark.parametrize("block,count", [(3, 2_000), (7, 2_000),
                                         (classical._BIN_BLOCK, 1_000_000)])
def test_momentum_from_position_limit_bins_the_evolved_positions(params, block, count):
    e = fq.gaussian_ensemble(params, 0.0, 1.0, 1.0, 0.5, count, seed=7)
    with mock.patch.object(classical, "_BIN_BLOCK", block):
        for t in (20.0, 200.0):
            edges = 0.5 + t * P_EDGES
            h = fq.momentum_from_position_limit(e, 0.5, t, P_EDGES)
            moved = fq.evolve_ensemble(e, t)
            assert np.array_equal(h.masses, classical._bin_masses(moved.x, e.w, edges))
            direct = np.histogram(moved.x, bins=edges, weights=moved.w)[0]
            assert np.abs(h.masses - direct).max() <= 1e-13


@pytest.mark.parametrize("block", [3, 7, classical._BIN_BLOCK])
def test_gaussian_pairs_do_not_depend_on_the_block(params, block):
    count = 2 * block + 1  # two whole blocks and one short one
    z = np.random.default_rng(3).standard_normal(2 * count)
    x, p = 2.0 + 0.5 * z[0::2], -1.0 + 3.0 * z[1::2]
    with mock.patch.object(classical, "_BIN_BLOCK", block):
        e = fq.gaussian_ensemble(params, 2.0, 0.5, -1.0, 3.0, count, seed=3)
        # the streamed blocks share buffers: each is copied as it comes
        blocks = [(xb.copy(), pb.copy()) for xb, pb in
                  classical._gaussian_blocks(2.0, 0.5, -1.0, 3.0, count, 3)]
    assert np.array_equal(e.x, x) and np.array_equal(e.p, p)
    assert [len(xb) for xb, _ in blocks] == [block, block, 1]
    assert np.array_equal(np.concatenate([xb for xb, _ in blocks]), x)
    assert np.array_equal(np.concatenate([pb for _, pb in blocks]), p)


@pytest.mark.parametrize("block,count", [(3, 2_000), (7, 2_001),
                                         (classical._BIN_BLOCK, 1_000_000)])
def test_streamed_limits_equal_the_ensemble_histograms(limit_packet, block, count):
    # one pass over blocks of pairs gives the bits of the library functions
    # over the ensemble held whole
    times = [20.0, 50.0, 200.0]
    with mock.patch.object(classical, "_BIN_BLOCK", block):
        mu, limits = fq.ensemble_momentum_limits(limit_packet, count, 5, 0.5,
                                                 times, P_EDGES)
        e = fq.ensemble_from_packet(limit_packet, count, 5)
        assert np.array_equal(mu.masses, fq.momentum_histogram(e, P_EDGES).masses)
        assert len(limits) == len(times)
        for t, h in zip(times, limits):
            assert np.array_equal(h.edges, P_EDGES)
            assert np.array_equal(
                h.masses, fq.momentum_from_position_limit(e, 0.5, t, P_EDGES).masses)


def test_streamed_limits_keep_the_ensemble_checks(params):
    grid = fq.Grid1D(-30.0, 60.0 / 256, 256)
    packet = fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="t > 0"):
        fq.ensemble_momentum_limits(packet, 100, 1, 0.0, [10.0, 0.0], P_EDGES)
    with pytest.raises(ValueError, match="edges"):
        fq.ensemble_momentum_limits(packet, 100, 1, 0.0, [10.0], P_EDGES[::-1])
    with mock.patch.object(classical, "_packet_moments",
                           return_value=(1e155, 1.0, 0.0, 1.0)), \
            pytest.raises(ValueError, match="second moments"), \
            np.errstate(over="ignore"):
        fq.ensemble_momentum_limits(packet, 100, 1, 0.0, [10.0], P_EDGES)


def _rng_whose_second_draw(act):
    """A stand-in for np.random.default_rng: each generator it makes calls
    act() at the start of its second draw, and draws the real stream."""
    real = np.random.default_rng

    def make(seed):
        rng, draws = real(seed), []

        def standard_normal(*args, **kwargs):
            draws.append(None)
            if len(draws) == 2:
                act()
            return rng.standard_normal(*args, **kwargs)
        return SimpleNamespace(standard_normal=standard_normal)
    return make


def _fail():
    raise RuntimeError("the second draw failed")


@pytest.mark.parametrize("block", [3, classical._BIN_BLOCK])
def test_a_failing_draw_raises_in_the_caller(limit_packet, block):
    # the second block is drawn on the helper thread while the first is binned
    before = threading.active_count()
    with mock.patch.object(classical, "_BIN_BLOCK", block), \
            mock.patch.object(np.random, "default_rng", _rng_whose_second_draw(_fail)), \
            pytest.raises(RuntimeError, match="second draw failed"):
        fq.ensemble_momentum_limits(limit_packet, 2 * block + 1, 5, 0.5, [20.0],
                                    P_EDGES)
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [3, classical._BIN_BLOCK])
def test_an_early_stop_joins_the_helper(limit_packet, block):
    # the helper is still drawing the second block (a slow one) when the
    # caller stops after the first: by the finite check, or by closing
    slow = _rng_whose_second_draw(lambda: time.sleep(0.2))
    before = threading.active_count()
    with mock.patch.object(classical, "_BIN_BLOCK", block), \
            mock.patch.object(np.random, "default_rng", slow):
        with mock.patch.object(classical, "_packet_moments",
                               return_value=(1e155, 1.0, 0.0, 1.0)), \
                pytest.raises(ValueError, match="second moments") as stopped, \
                np.errstate(over="ignore"):
            fq.ensemble_momentum_limits(limit_packet, 2 * block + 1, 5, 0.0, [10.0],
                                        P_EDGES)
        # the kept traceback holds the caller's frame, and the generator in it
        assert stopped.traceback and threading.active_count() == before
        blocks = classical._gaussian_blocks(0.0, 1.0, 0.0, 1.0, 2 * block + 1, 5)
        next(blocks)
        blocks.close()
        assert threading.active_count() == before


def test_concurrent_streams_keep_their_bits(limit_packet):
    # three callers, each with its helper, on few cores and switching often:
    # a block read while a helper writes it would change the histograms
    args = (limit_packet, 600, 5, 0.5, [20.0, 200.0], P_EDGES)
    results = {}
    with mock.patch.object(classical, "_BIN_BLOCK", 3):
        mu, limits = fq.ensemble_momentum_limits(*args)
        callers = [threading.Thread(
            target=lambda k=k: results.setdefault(k, fq.ensemble_momentum_limits(*args)))
            for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert sorted(results) == [0, 1, 2]
    for mu_k, limits_k in results.values():
        assert np.array_equal(mu_k.masses, mu.masses)
        assert all(np.array_equal(a.masses, b.masses) for a, b in zip(limits_k, limits))


@pytest.mark.parametrize("block", [3, 7, classical._BIN_BLOCK])
def test_ensemble_refuses_overflow_in_the_last_block(params, block):
    size = 2 * block + 1  # the last block holds one sample
    x = np.zeros(size)
    x[-1] = 1e155  # x^2 overflows
    with mock.patch.object(classical, "_BIN_BLOCK", block), \
            pytest.raises(ValueError, match="second moments"), \
            np.errstate(over="ignore"):
        fq.PhaseSpaceEnsemble(x, np.zeros(size), np.full(size, 1.0 / size), params)


def test_gaussian_ensemble_shares_one_read_only_weight(params):
    e = fq.gaussian_ensemble(params, 0.5, 1.5, -1.0, 0.25, 10_000, seed=11)
    assert e.w.strides == (0,) and not e.w.flags.writeable
    assert np.array_equal(e.w, np.full(10_000, 1 / 10_000))
    assert not (e.x.flags.writeable or e.p.flags.writeable)


def test_public_constructor_still_owns_contiguous_copies(params):
    e = fq.gaussian_ensemble(params, 0.5, 1.5, -1.0, 0.25, 10_000, seed=11)
    copied = fq.PhaseSpaceEnsemble(e.x, e.p, e.w, params)
    for name in ("x", "p", "w"):
        mine, theirs = getattr(copied, name), getattr(e, name)
        assert mine.flags.c_contiguous and mine.flags.owndata
        assert not mine.flags.writeable and not np.shares_memory(mine, theirs)
        assert np.array_equal(mine, theirs)
