import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant import arrival
from flowquant.arrival import Component
from flowquant.transforms import _chirp_plan


@pytest.fixture(scope="module")
def mixed_beam(params, wide_grid):
    """Equal right- and left-mover sharing the arrival epoch T = 25."""
    a = fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)
    b = fq.gaussian_packet(wide_grid, params, -50.0, -2.0, 0.2)
    vals = (a.values + b.values)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * wide_grid.step)
    return fq.to_momentum(a.with_values(vals))


@pytest.fixture(scope="module")
def broad_mover(params, wide_grid):
    """Right-mover broad in momentum (p0 / sigma_p = 6.3): its wrong-way
    tail weighs 1.4e-10, above the 1e-12 cut of arrival_distribution."""
    return fq.to_momentum(fq.gaussian_packet(wide_grid, params, -60.0, 2.2, 0.35))


@pytest.fixture(scope="module")
def reference_distribution(reference_momentum, arrival_grid):
    return fq.arrival_distribution(reference_momentum, grid_T=arrival_grid)


@pytest.fixture(scope="module")
def mc_oracle(params):
    """Independent-marginal Monte Carlo oracle for the reference packet."""
    e = fq.gaussian_ensemble(params, -50.0, 2.5, 2.0, 0.2, 1_000_000,
                             seed=20240601)
    return fq.classical_arrival_oracle(e)


# ----------------------------------------------------------- split movers

def test_split_movers_right_mover(reference_momentum):
    plus, minus = fq.split_movers(reference_momentum)
    assert fq.norm_squared(minus) <= 1e-12
    assert abs(fq.inner_product(plus, minus)) == 0.0


def test_split_movers_even_packet(params, wide_grid):
    a = fq.gaussian_packet(wide_grid, params, 0.0, 2.0, 0.2)
    b = fq.gaussian_packet(wide_grid, params, 0.0, -2.0, 0.2)
    vals = a.values + b.values
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * wide_grid.step)
    pt = fq.to_momentum(a.with_values(vals))
    plus, minus = fq.split_movers(pt)
    assert abs(fq.norm_squared(plus) - fq.norm_squared(minus)) <= 1e-10


def test_split_movers_zero_momentum_guard(params, wide_grid):
    slow = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 0.0, 0.0, 0.5))
    with pytest.raises(fq.LowMomentumMass):
        fq.split_movers(slow)


def test_one_momentum_floor_refusal(params):
    # 1.64e-6 of mass below the 4 dp floor, 2.6e-8 below 1 dp: every entry
    # to the energy map refuses it at the one fixed floor, in one message
    grid = fq.Grid1D.from_bounds(-128.0, 128.0, 4096)
    slow = fq.to_momentum(fq.gaussian_packet(grid, params, -40.0, 0.55, 0.1))
    floor = fq.default_momentum_floor(slow.grid)
    assert floor == 4.0 * slow.grid.step
    assert fq.low_momentum_mass(slow, floor) > 1e-6 > fq.low_momentum_mass(slow, floor / 4)
    messages = set()
    for refuse in (lambda: fq.split_movers(slow),
                   lambda: fq.to_oriented_energy(slow),
                   lambda: fq.arrival_amplitude_fast(slow),
                   lambda: fq.arrival_distribution(slow)):
        with pytest.raises(fq.LowMomentumMass) as info:
            refuse()
        messages.add(str(info.value))
    assert messages == {f"mass {fq.low_momentum_mass(slow, floor):.3e} below "
                        f"|p| < {floor:.3e} exceeds 1e-06; the Jacobian of the "
                        "energy map diverges at p = 0"}


def test_split_movers_refuses_mass_at_p_zero(reference_momentum):
    # 1e-8 of mass on the p = 0 sample stays under the floor's 1e-6, but it
    # belongs to neither mover
    p = reference_momentum.points
    values = np.array(reference_momentum.values)
    values[p == 0.0] = math.sqrt(1e-8 / reference_momentum.grid.step)
    with pytest.raises(fq.LowMomentumMass, match="the p = 0 sample carries mass 1.000e-08"):
        fq.split_movers(reference_momentum.with_values(values))


def test_split_movers_complementary(reference_momentum):
    plus, minus = fq.split_movers(reference_momentum)
    p = reference_momentum.points
    recon = plus.values + minus.values
    nonzero = p != 0.0
    assert np.array_equal(recon[nonzero], reference_momentum.values[nonzero])


# ------------------------------------------------------------- amplitudes

def test_quadrature_oracle_norm(reference_momentum, arrival_grid):
    phi = fq.arrival_amplitude_quadrature(reference_momentum, arrival_grid)
    total = np.trapezoid(np.abs(phi.values) ** 2, arrival_grid.points)
    assert abs(total - 1.0) <= 1e-6


def test_quadrature_oracle_non_convergence(monkeypatch, reference_momentum,
                                           arrival_grid):
    # a zero tolerance is never met: the oracle gives up at its node cap
    monkeypatch.setattr(arrival, "_ORACLE_REL_TOL", 0.0)
    monkeypatch.setattr(arrival, "_ORACLE_MAX_NODES", 1024)
    with pytest.raises(fq.QuadratureNonConvergence, match="with 1024 nodes"):
        fq.arrival_amplitude_quadrature(reference_momentum, arrival_grid)


def test_fast_path_matches_oracle(reference_momentum, arrival_grid):
    fast = fq.arrival_amplitude_fast(reference_momentum, arrival_grid)
    oracle = fq.arrival_amplitude_quadrature(reference_momentum, arrival_grid)
    scale = np.abs(oracle.values).max()
    assert np.abs(fast.values - oracle.values).max() <= 1e-4 * scale


def test_fast_path_matches_oracle_mixed_beam(mixed_beam, arrival_grid):
    # the oracle integrates both momentum branches in one pass
    fast = fq.arrival_amplitude_fast(mixed_beam, arrival_grid)
    oracle = fq.arrival_amplitude_quadrature(mixed_beam, arrival_grid)
    scale = np.abs(oracle.values).max()
    assert np.abs(fast.values - oracle.values).max() <= 1e-4 * scale


def test_fast_path_parseval(reference_momentum, arrival_grid):
    fast = fq.arrival_amplitude_fast(reference_momentum, arrival_grid)
    total = np.trapezoid(np.abs(fast.values) ** 2, arrival_grid.points)
    assert abs(total - fq.norm_squared(reference_momentum)) <= 1e-5


def test_fast_path_zero_input(reference_momentum, arrival_grid):
    zero = reference_momentum.with_values(np.zeros_like(reference_momentum.values))
    s_grid = fq.default_oriented_grid(zero)
    assert s_grid.count == 1024  # not the 2**22 cap
    # the minimum grid spans the momentum box, with no margin
    s_box = np.abs(reference_momentum.points).max() ** 2 / 2.0
    assert s_grid.origin == -s_box and math.isclose(s_grid.step, 2.0 * s_box / 1024)
    out = fq.arrival_amplitude_fast(zero, arrival_grid)
    assert np.all(out.values == 0.0)


def test_oracle_reflection_symmetry(params, wide_grid, arrival_grid):
    mirror = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2))
    grid_neg = fq.Grid1D(-arrival_grid.last, arrival_grid.step, arrival_grid.count)
    phi_r = fq.arrival_amplitude_quadrature(
        fq.to_momentum(fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)),
        arrival_grid)
    phi_l = fq.arrival_amplitude_quadrature(mirror, grid_neg)
    d_r = np.abs(phi_r.values) ** 2
    d_l = np.abs(phi_l.values[::-1]) ** 2
    assert np.abs(d_r - d_l).max() <= 1e-8


def test_quasiclassical_mean(reference_distribution, mc_oracle):
    mean_q = fq.arrival_moments(reference_distribution, Component.PLUS).mean
    assert abs(mc_oracle.mean - 25.0) <= 0.02 * 25.0
    assert abs(mean_q - mc_oracle.mean) <= 0.02 * 25.0


# ------------------------------------------------------- oracle phase sums

def _direct_phase_sum(u, w0, dw, count, coef, to_grid):
    """_grid_phase_sum as a direct sum in long double, 64 nodes at a time."""
    u = np.asarray(u, dtype=np.longdouble)
    w = np.longdouble(w0) + np.longdouble(dw) * np.arange(count, dtype=np.longdouble)
    coef = np.asarray(coef, dtype=np.clongdouble)
    out = np.zeros(count if to_grid else len(u), dtype=np.clongdouble)
    for lo in range(0, len(u), 64):
        theta = np.multiply.outer(u[lo:lo + 64], w)
        kernel = np.cos(theta) + 1j * np.sin(theta)
        if to_grid:
            out += coef[lo:lo + 64] @ kernel
        else:
            out[lo:lo + 64] = kernel @ coef
    return out


def _one_chunk_plus_one(count):
    # the node rows per chunk of _grid_phase_sum, plus one
    n_b = math.isqrt(count - 1) + 1
    return arrival._TABLE_ENTRIES // (2 * -(-count // n_b) + n_b) + 1


def _momentum_case(count, n_nodes):
    """Samples of a packet at x0 = -50 on [-200, 200) (4,096 points) or at
    x0 = -12.5 on [-50, 50), and momentum nodes over +-3 sigma_p of its mean
    p0 = 2."""
    half = 200.0 if count == 4096 else 50.0
    grid = fq.Grid1D(-half, 2.0 * half / count, count)
    packet = fq.gaussian_packet(grid, fq.PhysicalParams(), -half / 4.0, 2.0, 0.2)
    p = np.linspace(1.4, 2.6, n_nodes) if n_nodes > 1 else np.array([2.0])
    return -p, grid.origin, grid.step, count, packet.values


def _arrival_case(count, n_nodes):
    """Gauss-like weights of a right-mover at x0 = -50 with p0 = 2 on the
    phases -p^2 / 2, and a T-grid centered on its arrival at T = 25."""
    step = 60.0 / 1024
    p = np.linspace(1.4, 2.6, n_nodes) if n_nodes > 1 else np.array([2.0])
    coef = np.sqrt(p) * np.exp(-((p - 2.0) ** 2) / 0.16 + 50j * p)
    return -0.5 * p**2, 25.0 - step * (count // 2), step, count, coef


@pytest.mark.parametrize("case,count", [
    (_momentum_case, 1000), (_momentum_case, 4096),
    (_arrival_case, 1), (_arrival_case, 7), (_arrival_case, 1024),
], ids=["momentum-1000", "momentum-4096", "T-1", "T-7", "T-1024"])
@pytest.mark.parametrize("nodes", ["1", "37", "chunk+1"])
def test_grid_phase_sum_matches_long_double(case, count, nodes):
    n_nodes = _one_chunk_plus_one(count) if nodes == "chunk+1" else int(nodes)
    args = case(count, n_nodes)
    to_grid = case is _arrival_case
    got = arrival._grid_phase_sum(*args, to_grid=to_grid)
    exact = _direct_phase_sum(*args, to_grid=to_grid)
    assert got.shape == exact.shape == ((count,) if to_grid else (n_nodes,))
    assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max()


@pytest.mark.parametrize("case,count", [(_momentum_case, 1000),
                                        (_arrival_case, 1024)])
def test_grid_phase_sum_chunking(monkeypatch, case, count):
    # one node per chunk against all nodes in one chunk
    args = case(count, 37)
    to_grid = case is _arrival_case
    whole = arrival._grid_phase_sum(*args, to_grid=to_grid)
    monkeypatch.setattr(arrival, "_TABLE_ENTRIES", 1)
    chunked = arrival._grid_phase_sum(*args, to_grid=to_grid)
    assert np.abs(chunked - whole).max() <= 1e-15 * np.abs(whole).max()


def test_momentum_at_memory(reference_packet):
    # two phase tables of ~sqrt(N_x) columns per chunk of nodes; a 512-node
    # slice of the full nodes x N_x kernel alone would take 32 MB
    p = np.linspace(1.0, 3.0, 4096)
    tracemalloc.start()
    try:
        arrival._momentum_at(reference_packet, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ----------------------------------------------------------- distribution

def test_distribution_pure_right_mover(reference_distribution):
    assert np.abs(reference_distribution.minus).max() <= 1e-12
    assert np.abs(reference_distribution.interference).max() <= 1e-12
    assert abs(reference_distribution.w_plus - 1.0) <= 1e-9


def test_distribution_accepts_position_rep(reference_packet, arrival_grid,
                                           reference_distribution):
    dist = fq.arrival_distribution(reference_packet, grid_T=arrival_grid)
    assert np.abs(dist.total - reference_distribution.total).max() <= 1e-12


def test_distribution_rejects_arrival_rep(reference_momentum, arrival_grid):
    phi = fq.arrival_amplitude_fast(reference_momentum, arrival_grid)
    with pytest.raises(fq.RepMismatch):
        fq.arrival_distribution(phi)
    phi_s, _ = fq.to_oriented_energy(reference_momentum)
    with pytest.raises(fq.RepMismatch):
        fq.arrival_distribution(phi_s)


def test_distribution_decomposition_identity(mixed_beam, arrival_grid):
    dist = fq.arrival_distribution(mixed_beam, grid_T=arrival_grid)
    recon = dist.plus + dist.minus + dist.interference
    assert np.abs(dist.total - recon).max() <= 1e-12


@pytest.mark.parametrize("packet,explicit_T", [
    ("mixed_beam", False), ("mixed_beam", True),
    ("broad_mover", False), ("broad_mover", True),
], ids=["default", "explicit", "broad-default", "broad-explicit"])
def test_distribution_is_the_per_mover_chain(request, packet, arrival_grid, explicit_T):
    # bit for bit: the benchmark's traced run replays arrival_distribution so
    psi_tilde = request.getfixturevalue(packet)
    grid_T = arrival_grid if explicit_T else fq.default_time_grid(psi_tilde)
    s_grid = fq.default_oriented_grid(psi_tilde)
    dist = fq.arrival_distribution(psi_tilde, grid_T=arrival_grid if explicit_T
                                   else None)
    amps = [fq.to_arrival_time(fq.to_oriented_energy(part, s_grid=s_grid)[0],
                               grid_T).values
            for part in fq.split_movers(psi_tilde)]
    assert dist.grid_T == grid_T
    assert np.array_equal(dist.amplitude, amps[0] + amps[1])
    assert np.array_equal(dist.total, np.abs(amps[0] + amps[1]) ** 2)
    if packet == "broad_mover":  # the light wrong-way mover is computed, not dropped
        assert 1e-12 < dist.w_minus < 1e-6
        assert dist.minus.max() > 0.0


def test_distribution_amplitude_is_read_only(reference_distribution):
    amplitude = reference_distribution.amplitude
    assert amplitude.dtype == np.complex128 and not amplitude.flags.writeable
    assert np.array_equal(np.abs(amplitude) ** 2, reference_distribution.total)


def test_distribution_independent_of_the_chirp_plan(mixed_beam, reference_momentum,
                                                    arrival_grid):
    # the second mover reuses the first one's chirp-z plan; the bytes must not
    # depend on which plan was kept from an earlier call
    def run():
        dist = fq.arrival_distribution(mixed_beam, grid_T=arrival_grid)
        return b"".join(a.tobytes() for a in (dist.total, dist.plus, dist.minus,
                                              dist.interference))

    _chirp_plan.cache_clear()
    first = run()
    assert _chirp_plan.cache_info().hits >= 1
    misses = _chirp_plan.cache_info().misses
    fq.arrival_distribution(reference_momentum, grid_T=fq.Grid1D(0.0, 40.0 / 700, 700))
    assert _chirp_plan.cache_info().misses > misses
    after_other = run()
    again = run()
    _chirp_plan.cache_clear()
    assert first == after_other == again == run()


def test_distribution_mixed_beam(mixed_beam, arrival_grid):
    dist = fq.arrival_distribution(mixed_beam, grid_T=arrival_grid)
    assert abs(dist.w_plus - 0.5) <= 1e-6
    assert abs(dist.w_minus - 0.5) <= 1e-6
    assert np.abs(dist.interference).max() > 0.01 * dist.total.max()
    assert abs(np.trapezoid(dist.interference, arrival_grid.points)) <= 1e-8


def test_distribution_normalization(mixed_beam, arrival_grid):
    dist = fq.arrival_distribution(mixed_beam, grid_T=arrival_grid)
    assert abs(np.trapezoid(dist.total, arrival_grid.points) - 1.0) <= 1e-6


@st.composite
def two_mover_packets(draw):
    """A Gaussian mover heading for x = 0 and its mirror in momentum coming
    from the other side, with a relative amplitude and phase, on the
    400-wide box: p0 / sigma_p from 6.5 (broad, the support reaches the
    momentum floor) to 16 (narrow), and a T-grid of the program's choice or
    one 14 spreads wide."""
    p0 = draw(st.floats(0.6, 2.0))
    sigma_p = p0 / draw(st.floats(6.5, 16.0))
    sign = draw(st.sampled_from([1, -1]))
    x_far = min(80.0, 170.0 - 10.5 / (2.0 * sigma_p))  # tails inside the box
    movers = [(-sign * draw(st.floats(20.0, x_far)), sign * p0, 1.0),
              (sign * draw(st.floats(20.0, x_far)), -sign * p0,
               draw(st.floats(0.5, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi))))]
    explicit = draw(st.booleans())
    return movers, sigma_p, explicit


@settings(max_examples=24, deadline=None, derandomize=True)
@given(case=two_mover_packets())
def test_distribution_identities_on_two_mover_packets(params, wide_grid, case):
    # total = plus + minus + interference to rounding, and the interference
    # integrates to zero, as the movers' s-supports are disjoint
    movers, sigma_p, explicit = case
    values = sum(amp * fq.gaussian_packet(wide_grid, params, x0, p0, sigma_p).values
                 for x0, p0, amp in movers)
    values /= math.sqrt(np.sum(np.abs(values) ** 2) * wide_grid.step)
    psi = fq.to_momentum(fq.WaveFunction(wide_grid, values, fq.Representation.POSITION,
                                         params))
    grid_T = None
    if explicit:  # about T0 = -m x0 / |p0|, 7 spreads
        # m (|x0| sigma_p / p0^2 + sigma_x / |p0|) either side
        ends = [(-x0 / abs(p0), abs(x0) * sigma_p / p0**2 + 0.5 / (sigma_p * abs(p0)))
                for x0, p0, _ in movers]
        lo = min(T0 - 7.0 * spread for T0, spread in ends)
        hi = max(T0 + 7.0 * spread for T0, spread in ends)
        grid_T = fq.Grid1D(lo, (hi - lo) / 2047, 2048)
    dist = fq.arrival_distribution(psi, grid_T=grid_T)
    parts = (dist.total, dist.plus, dist.minus, dist.interference)
    assert all(np.all(np.isfinite(a)) for a in parts)
    recon = dist.plus + dist.minus + dist.interference
    assert np.abs(dist.total - recon).max() <= 1e-12 * dist.total.max()
    assert abs(np.trapezoid(dist.interference, dist.grid_T.points)) <= 1e-6
    assert min(dist.w_plus, dist.w_minus) > 0.1


# ------------------------------------------------- interval probabilities

def test_probability_full_span(reference_distribution, arrival_grid):
    full = fq.probability_in_interval(reference_distribution,
                                      arrival_grid.origin, arrival_grid.last)
    assert abs(full - 1.0) <= 1e-6


def test_probability_far_tail(reference_distribution):
    tail = fq.probability_in_interval(reference_distribution, 0.5, 2.0)
    assert tail <= 1e-6


def test_probability_interval_errors(reference_distribution):
    with pytest.raises(fq.IntervalOutOfRange):
        fq.probability_in_interval(reference_distribution, 10.0, 5.0)
    with pytest.raises(fq.IntervalOutOfRange):
        fq.probability_in_interval(reference_distribution, -5.0, 10.0)


def test_probability_mirror_convention(params, wide_grid):
    """For a left-mover, arrival at -T: P over [a,b] equals the mirrored
    right-mover's P over [-b,-a]."""
    left = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2))
    right = fq.to_momentum(fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2))
    grid_T = fq.Grid1D(0.0, 60.0 / 1024, 1024)
    grid_T_neg = fq.Grid1D(-60.0 + 60.0 / 1024, 60.0 / 1024, 1024)
    d_left = fq.arrival_distribution(left, grid_T=grid_T_neg)
    d_right = fq.arrival_distribution(right, grid_T=grid_T)
    p_left = fq.probability_in_interval(d_left, -30.0, -20.0, Component.TOTAL)
    p_right = fq.probability_in_interval(d_right, 20.0, 30.0, Component.TOTAL)
    assert abs(p_left - p_right) <= 1e-8


# ----------------------------------------------------------------- moments

def test_moments_translation_under_evolution(reference_momentum):
    """Evolution acts on the density as the substitution T -> T + t, so the
    mean of the remaining-arrival-time density drops by t."""
    grid_T = fq.Grid1D(0.0, 5.0 / 64.0, 1024)
    t = 5.0
    d0 = fq.arrival_distribution(reference_momentum, grid_T=grid_T)
    dt = fq.arrival_distribution(fq.evolve_free(reference_momentum, t),
                                 grid_T=grid_T)
    m0 = fq.arrival_moments(d0, Component.PLUS)
    mt = fq.arrival_moments(dt, Component.PLUS)
    assert abs(mt.mean - (m0.mean - t)) <= 1e-6
    assert abs(mt.variance - m0.variance) <= 1e-6


def test_moments_mirror_negates_mean(params, wide_grid):
    right = fq.to_momentum(fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2))
    left = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2))
    grid_T = fq.Grid1D(0.0, 60.0 / 1024, 1024)
    grid_T_neg = fq.Grid1D(-60.0 + 60.0 / 1024, 60.0 / 1024, 1024)
    m_r = fq.arrival_moments(fq.arrival_distribution(right, grid_T=grid_T),
                             Component.PLUS)
    m_l = fq.arrival_moments(fq.arrival_distribution(left, grid_T=grid_T_neg),
                             Component.MINUS)
    assert abs(m_l.mean + m_r.mean) <= 1e-8


def test_moments_zero_weight(reference_distribution):
    with pytest.raises(fq.ZeroWeightComponent):
        fq.arrival_moments(reference_distribution, Component.MINUS)


# ---------------------------------------------------------------- backflow

def test_backflow_packet_negative_mass(params):
    grid_p = fq.Grid1D(-128.0, 256.0 / 4096, 4096).conjugate(params.hbar)
    psi = fq.make_backflow_packet(grid_p, params)
    p = psi.points
    neg = float(np.sum(np.abs(psi.values[p < 0.0]) ** 2) * psi.grid.step)
    assert neg <= 1e-10
    assert abs(fq.norm_squared(psi) - 1.0) <= 1e-12


def test_backflow_packet_leak_detection(params):
    grid_p = fq.Grid1D(-128.0, 256.0 / 4096, 4096).conjugate(params.hbar)
    with pytest.raises(fq.NegativeMomentumLeak):
        fq.make_backflow_packet(grid_p, params,
                                fq.BackflowSpec(p1=1.0, p2=3.0, sigma=0.24))
    with pytest.raises(ValueError):
        fq.make_backflow_packet(grid_p, params, fq.BackflowSpec(sigma=0.3))


def test_backflow_packet_refuses_zero_norm(params):
    # sigma = 0.001 on the conjugate of a 64-point box of width 16 (step
    # 0.39): every sample underflows, and the packet was all nan
    grid_p = fq.Grid1D.from_bounds(-8.0, 8.0, 64).conjugate(params.hbar)
    with pytest.raises(fq.GridTooSmall, match="norm on this grid is 0"):
        fq.make_backflow_packet(grid_p, params, fq.BackflowSpec(sigma=0.001))


def test_backflow_packet_arrival_weights(params):
    grid_p = fq.Grid1D(-128.0, 256.0 / 4096, 4096).conjugate(params.hbar)
    psi = fq.make_backflow_packet(grid_p, params)
    dist = fq.arrival_distribution(psi, grid_T=fq.Grid1D(-60.0, 240.0 / 2048, 2048))
    assert dist.w_minus <= 1e-10


def test_backflow_control_stays_positive(params):
    grid_x = fq.Grid1D(-128.0, 256.0 / 4096, 4096)
    psi = fq.make_backflow_packet(grid_x.conjugate(params.hbar), params,
                                  fq.BackflowSpec(a2=0.0))
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 21):
        psi_t = fq.to_position(fq.evolve_free(psi, float(t)))
        j = fq.probability_current(psi_t)
        sel = np.abs(psi_t.points) <= 20.0
        worst = min(worst, float(j[sel].min()))
    assert worst >= -1e-12


# ----------------------------------------------------- classical functions

def test_classical_arrival_functions():
    assert fq.classical_arrival_time(-50.0, 2.0) == 25.0
    assert fq.oriented_arrival_time(-50.0, 2.0) == 25.0
    assert fq.oriented_arrival_time(-50.0, -2.0) == 25.0
    assert fq.classical_arrival_time(-50.0, -2.0) == -25.0
    # oriented = sgn(p) * plain, checked pointwise
    rng = np.random.default_rng(5)
    x = rng.normal(size=64)
    p = rng.normal(size=64) + 3.0
    lhs = fq.oriented_arrival_time(x, p)
    rhs = np.sign(p) * fq.classical_arrival_time(x, p)
    assert np.abs(lhs - rhs).max() == 0.0


def test_default_time_grid_centered(reference_momentum):
    grid = fq.default_time_grid(reference_momentum)
    center = grid.origin + grid.span / 2.0
    assert abs(center - 25.0) <= 0.5
