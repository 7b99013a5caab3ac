import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant.grids import _cis_ramp
from flowquant.resample import interpolate
from flowquant.scenarios import (build_packet, build_params, build_x_grid,
                                 load_scenario, scenario_path)
from flowquant.transforms import (_chirp_plan, _cis, _cis_chirp, _fft_size,
                                  fourier_eval)


def test_gaussian_self_transform(centered_packet):
    # envelope exp(-x^2/2) maps to envelope exp(-p^2/2), real and positive at 0
    pt = fq.to_momentum(centered_packet)
    p = pt.points
    k0 = pt.grid.count // 2
    assert p[k0] == 0.0
    v0 = pt.values[k0]
    assert v0.real > 0.0 and abs(v0.imag) <= 1e-12 * v0.real
    sel = np.abs(p) <= 4.0
    expected = np.exp(-p[sel] ** 2 / 2.0)
    expected *= np.abs(pt.values[sel]).max() / expected.max()
    assert np.abs(np.abs(pt.values[sel]) - expected).max() <= 1e-9


def _long_double_riemann(values, grid_in, grid_out, sign, hbar):
    """(du / sqrt(2 pi hbar)) sum_j v_j exp(sign i u_j w_k / hbar) in long
    double, as (real, imag), one cos/sin per (j, k) pair."""
    ld = np.longdouble
    u = ld(grid_in.origin) + np.arange(grid_in.count).astype(ld) * ld(grid_in.step)
    w = ld(grid_out.origin) + np.arange(grid_out.count).astype(ld) * ld(grid_out.step)
    phase = np.multiply.outer(w, u) * (ld(sign) / ld(hbar))
    c, s = np.cos(phase), np.sin(phase)
    re, im = values.real.astype(ld), values.imag.astype(ld)
    pref = ld(grid_in.step) / np.sqrt(2 * ld(math.pi) * ld(hbar))
    return pref * (c @ re - s @ im), pref * (s @ re + c @ im)


def _exp_per_point_dft(values, grid_in, grid_out, sign, hbar):
    """The same sum by one FFT between pre- and post-phases formed by one
    complex exp per point."""
    n = grid_in.count
    pre = np.exp(1j * sign * grid_in.points * grid_out.origin / hbar)
    core = np.fft.fft(values * pre) if sign < 0 else np.fft.ifft(values * pre) * n
    post = np.exp(1j * sign * grid_in.origin * np.arange(n) * grid_out.step / hbar)
    return grid_in.step / math.sqrt(2.0 * math.pi * hbar) * post * core


@pytest.mark.parametrize("hbar,lo,hi,cx,p0,sigma_p", [
    (1.0, -200.0, 200.0, -50.0, 2.0, 0.3),   # phases up to 3.2e3 rad
    (1.3, -300.0, 100.0, -120.0, 1.1, 0.2),  # up to 4.8e3 rad
])
def test_fourier_pair_matches_long_double(hbar, lo, hi, cx, p0, sigma_p):
    # The pre- and post-phases come from two-table ramps; against a
    # long-double Riemann sum they must do as well as one exp per point.
    params = fq.PhysicalParams(hbar=hbar)
    grid = fq.Grid1D.from_bounds(lo, hi, 1024)
    psi = fq.gaussian_packet(grid, params, cx, p0, sigma_p)
    psi_tilde = fq.to_momentum(psi)
    assert abs(grid.origin * psi_tilde.grid.origin / hbar) >= 1e3

    def error(z, exact):
        return max(float(np.abs(z.real - exact[0]).max()),
                   float(np.abs(z.imag - exact[1]).max()))

    for values, grid_in, got, sign in (
            (psi.values, grid, psi_tilde, -1),
            (psi_tilde.values, psi_tilde.grid, fq.to_position(psi_tilde, grid), +1)):
        exact = _long_double_riemann(values, grid_in, got.grid, sign, hbar)
        direct = _exp_per_point_dft(values, grid_in, got.grid, sign, hbar)
        assert error(got.values, exact) <= 2.0 * error(direct, exact)


def test_shift_theorem(params, tight_grid, centered_packet):
    a = 16 * tight_grid.step
    shifted = fq.gaussian_packet(tight_grid, params, a, 0.0, 1.0 / math.sqrt(2.0))
    pt0 = fq.to_momentum(centered_packet)
    pt1 = fq.to_momentum(shifted)
    p = pt0.points
    hbar = params.hbar
    # the packet factory centers its phase at <x>, compensate that convention
    for p_probe in (-1.0, 0.5, 2.0):
        k = int(np.argmin(np.abs(p - p_probe)))
        expect = pt0.values[k] * np.exp(-1j * p[k] * a / hbar)
        assert abs(pt1.values[k] - expect) <= 1e-8


def test_round_trip_identity(reference_packet, wide_grid):
    pt = fq.to_momentum(reference_packet)
    back = fq.to_position(pt, wide_grid)
    assert np.abs(back.values - reference_packet.values).max() <= 1e-10


@pytest.mark.parametrize("x_grid,conjugate", [
    (fq.Grid1D(-87.5, 0.05, 1500), False),                  # another count
    (fq.Grid1D(-88.8, 0.1, 777), False),                    # another step
    (fq.Grid1D(-200.0 + 13.37, 400.0 / 4096, 4096), True),  # shifted origin
], ids=["count", "step", "origin"])
def test_to_position_evaluates_the_sum_on_any_grid(reference_momentum, x_grid, conjugate,
                                                   monkeypatch):
    # the trigonometric sum of the momentum samples at the points of x_grid;
    # a conjugate grid of any origin takes the FFT, no chirp-z
    if conjugate:
        def no_chirp_z(*args):
            raise AssertionError("conjugate grid took the chirp-z")
        monkeypatch.setattr("flowquant.transforms._chirp_z", no_chirp_z)
    psi = fq.to_position(reference_momentum, x_grid)
    p, hbar = reference_momentum.points, reference_momentum.params.hbar
    pref = reference_momentum.grid.step / math.sqrt(2.0 * math.pi * hbar)
    direct = np.concatenate([
        pref * (np.exp(1j * np.multiply.outer(x, p) / hbar) @ reference_momentum.values)
        for x in np.array_split(x_grid.points, -(-x_grid.count // 256))])
    assert psi.grid == x_grid
    assert np.abs(psi.values - direct).max() <= 1e-11 * np.abs(direct).max()


def test_parseval(reference_packet):
    pt = fq.to_momentum(reference_packet)
    assert abs(fq.norm_squared(pt) - fq.norm_squared(reference_packet)) <= 1e-10


def test_narrow_momentum_packet_is_plane_wave(params):
    grid = fq.Grid1D(-400.0, 800.0 / 8192, 8192)
    p0 = 2.0
    psi = fq.gaussian_packet(grid, params, 0.0, p0, 0.02)
    # local phase slope near the center fits the wavelength 2 pi hbar / p0
    x = grid.points
    sel = np.abs(x) <= 20.0
    phase = np.unwrap(np.angle(psi.values[sel]))
    slope = np.polyfit(x[sel], phase, 1)[0]
    wavelength = 2.0 * math.pi * params.hbar / slope
    expected = 2.0 * math.pi * params.hbar / p0
    assert abs(wavelength - expected) <= 0.01 * expected


def test_transform_linearity(params, tight_grid):
    a = fq.gaussian_packet(tight_grid, params, -1.0, 0.5, 0.7)
    b = fq.gaussian_packet(tight_grid, params, 2.0, -0.3, 0.9)
    alpha, beta = 0.6 - 0.1j, -0.4 + 0.9j
    combo = a.with_values(alpha * a.values + beta * b.values)
    lhs = fq.to_momentum(combo).values
    rhs = alpha * fq.to_momentum(a).values + beta * fq.to_momentum(b).values
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_rep_mismatch(reference_packet, reference_momentum):
    with pytest.raises(fq.RepMismatch):
        fq.to_momentum(reference_momentum)
    with pytest.raises(fq.RepMismatch):
        fq.to_position(reference_packet)


def test_evolve_free_basics(reference_momentum):
    same = fq.evolve_free(reference_momentum, 0.0)
    assert np.abs(same.values - reference_momentum.values).max() == 0.0
    evolved = fq.evolve_free(reference_momentum, 7.3)
    assert np.abs(np.abs(evolved.values)
                  - np.abs(reference_momentum.values)).max() <= 1e-15
    # phases compose
    a = fq.evolve_free(fq.evolve_free(reference_momentum, 2.5), 4.8)
    b = fq.evolve_free(reference_momentum, 7.3)
    assert np.abs(a.values - b.values).max() <= 1e-13


def test_evolve_free_ehrenfest(params, wide_grid):
    psi = fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)
    pt = fq.to_momentum(psi)
    t = 10.0
    moved = fq.to_position(fq.evolve_free(pt, t), wide_grid)
    mean_x, _ = fq.moments(moved)
    assert abs(mean_x - (-50.0 + t * 2.0 / params.mass)) <= 1e-6


def test_oriented_energy_forward(reference_momentum):
    phi, report = fq.to_oriented_energy(reference_momentum)
    assert report.unitarity_defect <= 1e-6
    s = phi.grid.points
    w = np.abs(phi.values) ** 2
    mean_s = np.trapezoid(s * w, s) / np.trapezoid(w, s)
    std_s = math.sqrt(np.trapezoid((s - mean_s) ** 2 * w, s)
                      / np.trapezoid(w, s))
    assert abs(mean_s - 2.0) <= 0.05        # s = p^2/2 at p = 2
    assert abs(std_s - 0.4) <= 0.05         # spread ~ p0 sigma_p
    # quadrature cross-check of the change of variables
    assert abs(np.trapezoid(w, s) - fq.norm_squared(reference_momentum)) <= 2e-6


def test_oriented_energy_right_mover_support(reference_momentum):
    plus, _ = fq.split_movers(reference_momentum)  # strictly p > 0 support
    phi, _ = fq.to_oriented_energy(plus)
    s = phi.grid.points
    assert np.all(phi.values[s < 0.0] == 0.0)


def test_oriented_energy_left_mover_support(params, wide_grid):
    _, minus = fq.split_movers(fq.to_momentum(
        fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2)))  # strictly p < 0
    phi, _ = fq.to_oriented_energy(minus)
    s = phi.grid.points
    assert np.all(phi.values[s > 0.0] == 0.0)
    assert np.abs(phi.values[s < 0.0]).max() > 0.0


@pytest.fixture(scope="module")
def two_movers(params, wide_grid):
    """A right-mover from x = -50 and a slower left-mover from x = 40."""
    a = fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)
    b = fq.gaussian_packet(wide_grid, params, 40.0, -1.5, 0.15)
    vals = a.values + 0.7j * b.values
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * wide_grid.step)
    return fq.to_momentum(a.with_values(vals))


def test_oriented_energy_maps_the_half_axes_independently(two_movers):
    # The arrival chain maps each mover on its own; the map of the whole
    # packet must be the sum of the movers' maps, to the bit.
    s_grid = fq.default_oriented_grid(two_movers)
    phi, _ = fq.to_oriented_energy(two_movers, s_grid)
    parts = [fq.to_oriented_energy(part, s_grid)[0].values
             for part in fq.split_movers(two_movers)]
    assert np.abs(parts[0]).max() > 0.0 and np.abs(parts[1]).max() > 0.0
    assert np.array_equal(phi.values, parts[0] + parts[1])

    s = phi.grid.points
    back, _ = fq.from_oriented_energy(phi, two_movers.grid)
    halves = [fq.from_oriented_energy(phi.with_values(np.where(side, phi.values, 0.0)),
                                      two_movers.grid)[0].values
              for side in (s > 0.0, s < 0.0)]
    assert np.array_equal(back.values, halves[0] + halves[1])


def test_oriented_energy_reflection(params, wide_grid, reference_momentum):
    # mirror packet: psi_2(x) = psi_1(-x), hence psi~_2(p) = psi~_1(-p)
    mirror = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2))
    s_grid = fq.default_oriented_grid(reference_momentum)
    phi1, _ = fq.to_oriented_energy(reference_momentum, s_grid=s_grid)
    phi2, _ = fq.to_oriented_energy(mirror, s_grid=s_grid)
    n = s_grid.count
    k = np.arange(1, n)
    assert np.abs(np.abs(phi2.values[k]) - np.abs(phi1.values[n - k])).max() <= 1e-7


def test_oriented_energy_low_momentum_guard(params, wide_grid):
    slow = fq.gaussian_packet(wide_grid, params, 0.0, 0.0, 0.5)
    with pytest.raises(fq.LowMomentumMass):
        fq.to_oriented_energy(fq.to_momentum(slow))


def test_oriented_energy_reads_only_the_support_of_a_narrow_mover(wide_grid):
    # Support at 1e-13 of the peak, widened by half a stencil: zero outside
    # it, and inside it the whole half-axis interpolated by the resampler.
    params = fq.PhysicalParams(hbar=0.8, mass=1.7)
    for cx, p0, sigma_p in ((-50.0, 2.0, 0.1), (40.0, -3.1, 0.15)):
        psi_tilde = fq.to_momentum(fq.gaussian_packet(wide_grid, params, cx, p0, sigma_p))
        mover = fq.split_movers(psi_tilde)[0 if p0 > 0.0 else 1]
        phi, _ = fq.to_oriented_energy(mover)
        m, sgn = params.mass, 1 if p0 > 0.0 else -1
        p = mover.points
        half = sgn * p > 0.0
        nodes, values = np.abs(p[half])[::sgn], mover.values[half][::sgn]
        amp = np.abs(values)
        support = np.flatnonzero(amp >= 1e-13 * amp.max())
        assert support.size < 0.2 * amp.size  # narrow
        lo, hi = nodes[max(support[0] - 3, 0)], nodes[min(support[-1] + 3, amp.size - 1)]

        s = phi.points
        floor = fq.default_momentum_floor(mover.grid) ** 2 / (2.0 * m)
        mapped = sgn * s >= floor
        full = np.zeros_like(phi.values)
        abs_s = np.abs(s[mapped])
        full[mapped] = interpolate(nodes, values, np.sqrt(2.0 * m * abs_s)) \
            * (m / (2.0 * abs_s)) ** 0.25
        run = (sgn * s > 0.0) & (np.abs(s) >= lo**2 / (2.0 * m)) & \
            (np.abs(s) <= hi**2 / (2.0 * m))
        assert np.all(phi.values[~run] == 0.0)
        assert np.abs(phi.values - full)[run].max() <= 1e-12 * np.abs(full).max()


def test_oriented_energy_round_trip(reference_momentum):
    phi, _ = fq.to_oriented_energy(reference_momentum)
    back, report = fq.from_oriented_energy(phi, reference_momentum.grid)
    p_min = fq.default_momentum_floor(reference_momentum.grid)
    sel = np.abs(reference_momentum.points) >= p_min
    err = np.abs(back.values - reference_momentum.values)[sel].max()
    assert err <= 1e-5
    assert report.unitarity_defect <= 1e-5


def test_from_oriented_energy_zero(reference_momentum):
    phi, _ = fq.to_oriented_energy(reference_momentum)
    zero = phi.with_values(np.zeros_like(phi.values))
    back, _ = fq.from_oriented_energy(zero, reference_momentum.grid)
    assert np.all(back.values == 0.0)


def test_arrival_time_parseval(reference_momentum):
    phi_s, _ = fq.to_oriented_energy(reference_momentum)
    phi_T = fq.to_arrival_time(phi_s)  # conjugate grid: exactly unitary step
    assert abs(fq.norm_squared(phi_T) - fq.norm_squared(phi_s)) <= 1e-10


def test_arrival_time_default_grid_is_only_a_default(reference_momentum):
    # one evaluation path: the default T-grid gives the bits of passing it
    phi_s, _ = fq.to_oriented_energy(reference_momentum)
    default = fq.to_arrival_time(phi_s)
    conjugate = phi_s.grid.conjugate(phi_s.params.hbar)
    passed = fq.to_arrival_time(phi_s, conjugate)
    assert default.grid == conjugate
    assert np.array_equal(default.values, passed.values)


def test_arrival_time_shift_theorem(reference_momentum, arrival_grid):
    phi_s, _ = fq.to_oriented_energy(reference_momentum)
    t = 3.0
    modulated = phi_s.with_values(
        phi_s.values * np.exp(-1j * phi_s.points * t / phi_s.params.hbar))
    lhs = fq.to_arrival_time(modulated, arrival_grid)
    shifted_grid = fq.Grid1D(arrival_grid.origin + t, arrival_grid.step,
                             arrival_grid.count)
    rhs = fq.to_arrival_time(phi_s, shifted_grid)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-12


def test_arrival_time_reflection(params, wide_grid, reference_momentum):
    mirror = fq.to_momentum(fq.gaussian_packet(wide_grid, params, 50.0, -2.0, 0.2))
    grid_T = fq.Grid1D(0.0, 60.0 / 512, 512)
    grid_T_neg = fq.Grid1D(-60.0 + 60.0 / 512, 60.0 / 512, 512)
    phi1 = fq.arrival_amplitude_fast(reference_momentum, grid_T)
    phi2 = fq.arrival_amplitude_fast(mirror, grid_T_neg)
    d1 = np.abs(phi1.values) ** 2
    d2 = np.abs(phi2.values[::-1]) ** 2   # T -> -T
    assert np.abs(d1 - d2).max() <= 1e-8


def test_time_translation_composition(reference_momentum):
    """Free evolution then arrival transform = argument substitution T -> T+t."""
    t = 5.0
    n = 1024
    dT = 5.0 / 64.0
    grid_T = fq.Grid1D(0.0, dT, n)
    s_grid = fq.default_oriented_grid(reference_momentum)
    phi0 = fq.arrival_amplitude_fast(reference_momentum, grid_T, s_grid=s_grid)
    phit = fq.arrival_amplitude_fast(fq.evolve_free(reference_momentum, t),
                                     grid_T, s_grid=s_grid)
    shift = 64
    d0 = np.abs(phi0.values) ** 2
    dt_ = np.abs(phit.values) ** 2
    err = np.abs(dt_[: n - shift] - d0[shift:]).max()
    assert err <= 1e-8


def test_fourier_eval_matches_conjugate_path(reference_packet):
    pt = fq.to_momentum(reference_packet)
    probe = fq.Grid1D(pt.grid.origin, pt.grid.step, pt.grid.count)
    direct = fourier_eval(reference_packet.values, reference_packet.grid, probe,
                          -1, reference_packet.params.hbar)
    assert np.abs(direct - pt.values).max() <= 1e-9  # chirp-z rounding floor


@pytest.mark.parametrize("n_in,n_out", [(40, 17), (17, 40), (32, 32), (33, 21),
                                        (9, 125), (40, 25)])
def test_fourier_eval_matches_direct_sum(n_in, n_out):
    # n_in > n_out needs the input chirp beyond the output range; n_in and
    # n_in - 1 inputs share one chirp-z plan (one FFT size for both here);
    # 40 + 25 - 1 = 64 fills the FFT size, the longest input a plan serves
    rng = np.random.default_rng(n_in * 1000 + n_out)
    hbar = 0.7
    grid_out = fq.Grid1D(0.4, 0.173, n_out)
    all_values = rng.normal(size=n_in) + 1j * rng.normal(size=n_in)
    for sign in (-1, 1):
        _chirp_plan.cache_clear()
        for n in (n_in, n_in - 1):
            grid_in = fq.Grid1D(-1.3, 0.11, n)
            values = all_values[:n]
            kern = np.exp(sign * 1j * np.outer(grid_out.points, grid_in.points) / hbar)
            direct = grid_in.step / math.sqrt(2.0 * math.pi * hbar) * (kern @ values)
            fast = fourier_eval(values, grid_in, grid_out, sign, hbar)
            assert np.abs(fast - direct).max() <= 1e-13 * np.abs(direct).max()
        info = _chirp_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_chirp_plan_is_read_only():
    for a in _chirp_plan(60, 17, 0.3):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_cis_matches_complex_exp():
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e3, 1e8):
        theta = rng.uniform(-scale, scale, 100_000)
        expected = np.exp(1j * theta)
        got = _cis(theta)
        for part in ("real", "imag"):
            e, g = getattr(expected, part), getattr(got, part)
            assert np.all(np.abs(g - e) <= np.spacing(np.abs(e)))
    assert _cis(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("n", [1, 2, 7, 4096, 65529])
def test_cis_ramp_matches_long_double(n):
    # arguments around 1e3, as in the pre-phases of the arrival step; the two
    # tables must not be worse than one cos/sin per float64 argument
    k = np.arange(n)
    for a, b in ((987.6543210123, 0.0173), (-1234.5678, 0.031),
                 (0.0, -700.0 / 65529)):
        theta = np.longdouble(a) + k.astype(np.longdouble) * np.longdouble(b)
        exact = np.cos(theta), np.sin(theta)

        def error(z):
            return max(float(np.abs(z.real - exact[0]).max()),
                       float(np.abs(z.imag - exact[1]).max()))

        got = _cis_ramp(a, b, n)
        assert got.shape == (n,)
        assert error(got) <= 2.0 * error(_cis(a + k * b))


@pytest.mark.parametrize("n", [1, 2, 4096, 102_048])
def test_cis_chirp_matches_long_double(n):
    # chirps as _chirp_plan makes them: theta = 2 pi c / n for c of order
    # one, j from m - size < 0; the phases reach ~3e5 at the largest n, where
    # rounding theta j^2 / 2 sets the error of both forms
    for theta, j0 in ((2.0 * math.pi * 0.37 / n, -(3 * n // 5)),
                      (-2.0 * math.pi * 0.91 / n, 1 - n), (1e-4, -3)):
        j = np.arange(j0, j0 + n)
        phase = np.longdouble(theta) * j.astype(np.longdouble) ** 2 / 2
        exact = np.cos(phase), np.sin(phase)

        def error(z):
            return max(float(np.abs(z.real - exact[0]).max()),
                       float(np.abs(z.imag - exact[1]).max()))

        got = _cis_chirp(theta, j0, n)
        assert got.shape == (n,)
        direct = _cis(0.5 * theta * j.astype(np.float64) ** 2)
        # within 1.2x the direct form, or a few ulps of unit modulus where
        # the direct form is exact (n = 1, 2)
        assert error(got) <= 1.2 * error(direct) + 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("zeros", [
    {"start": 30},
    {"end": 25},
    {"start": 12, "end": 40},
    {"start": 7, "end": 3, "interior": (20, 31)},
    {"start": 50, "end": 13},  # a single nonzero sample
    {"start": 64},  # all zeros: the bound below then demands exact zeros
], ids=["start", "end", "both", "interior", "single", "all"])
def test_fourier_eval_skips_zero_ends(zeros):
    rng = np.random.default_rng(len(zeros))
    hbar = 0.7
    grid_in = fq.Grid1D(-1.3, 0.11, 64)
    grid_out = fq.Grid1D(0.4, 0.173, 37)
    values = rng.normal(size=64) + 1j * rng.normal(size=64)
    values[:zeros.get("start", 0)] = 0.0
    values[64 - zeros.get("end", 0):] = 0.0
    lo, hi = zeros.get("interior", (0, 0))
    values[lo:hi] = 0.0  # interior zeros stay inside the transformed span
    for sign in (-1, 1):
        kern = np.exp(sign * 1j * np.outer(grid_out.points, grid_in.points) / hbar)
        direct = grid_in.step / math.sqrt(2.0 * math.pi * hbar) * (kern @ values)
        fast = fourier_eval(values, grid_in, grid_out, sign, hbar)
        assert fast.shape == direct.shape
        assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()


def test_fft_size_is_the_smallest_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(24) for b in range(15)
                    for c in range(11))
    for n in list(range(1, 3000)) + [66559, 132095, 4195327]:
        assert _fft_size(n) == next(s for s in smooth if s >= n)


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2)])
def test_fourier_eval_rows_match_one_row_calls(shape):
    # rows sharing their zero ends: each row of a stacked call has the bits
    # of a one-row call, as the arrival path's one-row calls keep theirs
    rng = np.random.default_rng(len(shape))
    grid_in = fq.Grid1D(-1.3, 0.11, 64)
    grid_out = fq.Grid1D(0.4, -0.173 + 0.35, 37)
    values = rng.normal(size=shape + (64,)) + 1j * rng.normal(size=shape + (64,))
    values[..., :6] = 0.0
    values[..., 50:] = 0.0
    for sign in (-1, 1):
        stacked = fourier_eval(values, grid_in, grid_out, sign, 0.7)
        assert stacked.shape == shape + (37,)
        for index in np.ndindex(*shape):
            one = fourier_eval(values[index], grid_in, grid_out, sign, 0.7)
            assert stacked[index].tobytes() == one.tobytes()


def test_fourier_eval_rows_with_different_zero_ends():
    # the skipped ends are those of every row: the sum stays exact
    rng = np.random.default_rng(3)
    hbar = 0.7
    grid_in = fq.Grid1D(-1.3, 0.11, 64)
    grid_out = fq.Grid1D(0.4, 0.173, 37)
    values = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
    values[0, :20] = values[1, 40:] = values[2] = 0.0
    kern = np.exp(1j * np.outer(grid_out.points, grid_in.points) / hbar)
    direct = grid_in.step / math.sqrt(2.0 * math.pi * hbar) * (values @ kern.T)
    fast = fourier_eval(values, grid_in, grid_out, 1, hbar)
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()
    assert not fast[2].any()


def _backflow_default():
    cfg = load_scenario(scenario_path("backflow_default.json"))
    params = build_params(cfg)
    scan = cfg["backflow_scan"]
    ts = np.linspace(*scan["t_range"], scan["t_count"])
    xs = np.linspace(*scan["x_range"], scan["x_count"])
    return build_packet(cfg, params, build_x_grid(cfg)), ts, xs


def test_free_current_matches_a_long_double_sum():
    # psi and dpsi/dx summed directly over the momentum samples above 1e-13
    # of the peak, in long double: the scan of backflow_default within
    # 1e-12 of max |j|, with its minimum in the same cell
    psi_tilde, ts, xs = _backflow_default()
    j = fq.free_current(psi_tilde, ts, xs)
    amp = np.abs(psi_tilde.values)
    keep = amp >= 1e-13 * amp.max()
    L = np.longdouble
    p = psi_tilde.points[keep].astype(L)[:, None]
    re = psi_tilde.values[keep].real.astype(L)[:, None]
    im = psi_tilde.values[keep].imag.astype(L)[:, None]
    pre = L(psi_tilde.grid.step) / np.sqrt(2 * L(np.pi))
    exact = np.empty_like(j)
    for k, t in enumerate(ts.astype(L)):
        phase = p * xs.astype(L)[None, :] - p * p * t / 2  # hbar = m = 1
        cos, sin = np.cos(phase), np.sin(phase)
        psi_re = pre * (re * cos - im * sin).sum(axis=0)
        psi_im = pre * (re * sin + im * cos).sum(axis=0)
        dpsi_re = -pre * (p * (re * sin + im * cos)).sum(axis=0)
        dpsi_im = pre * (p * (re * cos - im * sin)).sum(axis=0)
        exact[k] = psi_re * dpsi_im - psi_im * dpsi_re
    assert np.abs(j - exact).max() <= 1e-12 * np.abs(exact).max()
    assert np.argmin(j) == np.argmin(exact)


def test_free_current_on_the_grid_is_probability_current():
    # at the position grid's own points the exact sums are to_position and
    # the spectral derivative; hbar and m that are not powers of two.  The
    # bound is the spectral path's: against a long-double sum it is off by
    # 9e-12 of max |j| at t = 12, the chirp-z sum by 2e-13.
    params = fq.PhysicalParams(hbar=0.7, mass=1.3)
    grid = fq.Grid1D(-60.0, 120.0 / 2048, 2048)
    psi_tilde = fq.to_momentum(fq.gaussian_packet(grid, params, -10.0, 1.5, 0.4))
    ts = np.linspace(-3.0, 12.0, 7)
    j = fq.free_current(psi_tilde, ts, grid.points)
    for t, row in zip(ts, j):
        step = fq.probability_current(fq.to_position(fq.evolve_free(psi_tilde, float(t)),
                                                     grid))
        assert np.abs(row - step).max() <= 2e-11 * np.abs(step).max()


def test_free_current_of_the_zero_packet_is_zero():
    params = fq.PhysicalParams()
    grid_p = fq.Grid1D(-4.0, 0.125, 64)
    zero = fq.WaveFunction(grid_p, np.zeros(64), fq.Representation.MOMENTUM, params)
    j = fq.free_current(zero, [0.0, 1.0, 2.0], np.linspace(-1.0, 1.0, 5))
    assert j.shape == (3, 5) and not j.any()


@pytest.mark.parametrize("split", [1, 2, 3])
def test_free_current_rows_do_not_depend_on_the_block(split):
    # the scan's blocks of times give the bits of one call over all times
    psi_tilde, ts, xs = _backflow_default()
    ts = ts[:7]
    whole = fq.free_current(psi_tilde, ts, xs)
    parts = [fq.free_current(psi_tilde, ts[k:k + split], xs)
             for k in range(0, len(ts), split)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_free_current_refuses_uneven_points():
    psi_tilde, ts, _ = _backflow_default()
    with pytest.raises(fq.InvalidParameter, match="uniformly"):
        fq.free_current(psi_tilde, ts, [0.0, 1.0, 3.0])


def _spacing_bound(psi_tilde):
    """s_max and ds_target of default_oriented_grid, from its documented rule:
    the support cut at 1e-13 of the peak, the 4 dp floor, no margin, and the
    critical spacing p_lo dp / m."""
    m, dp = psi_tilde.params.mass, psi_tilde.grid.step
    p = psi_tilde.points
    amp = np.abs(psi_tilde.values)
    sup = np.abs(p[amp >= 1e-13 * amp.max()])
    s_max = sup.max() ** 2 / (2.0 * m)
    return s_max, max(sup.min(), 4.0 * dp) * dp / m


@pytest.mark.parametrize("p0,sigma_p,count", [
    (3.0, 0.2, 2160),    # narrow
    (2.2, 0.35, 37500),  # broad
    (2.5, 0.25, 28125),  # odd count
], ids=["narrow", "broad", "odd"])
def test_default_oriented_grid_is_the_smallest_smooth_count(params, wide_grid,
                                                            p0, sigma_p, count):
    psi_tilde = fq.to_momentum(fq.gaussian_packet(wide_grid, params, -50.0, p0, sigma_p))
    s_max, ds_target = _spacing_bound(psi_tilde)
    grid = fq.default_oriented_grid(psi_tilde)
    assert grid.count == _fft_size(math.ceil(2.0 * s_max / ds_target)) == count
    assert grid.step <= ds_target
    assert math.isclose(grid.count * grid.step, 2.0 * s_max, rel_tol=1e-14)
    assert grid.origin == -(grid.count // 2) * grid.step


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p0=st.floats(1.0, 5.0), ratio=st.floats(6.5, 16.0), x0=st.floats(-80.0, -20.0))
def test_default_oriented_grid_samples_the_box_at_its_nyquist_spacing(params, wide_grid,
                                                                      p0, ratio, x0):
    # A point x of the box arrives at T = -m x / p, so over p >= p_lo the
    # arrival content spans m L / p_lo; the s-grid's Riemann sum repeats
    # phi(T) with period 2 pi hbar / ds.
    psi_tilde = fq.to_momentum(fq.gaussian_packet(wide_grid, params, x0, p0, p0 / ratio))
    m, hbar, dp = params.mass, params.hbar, psi_tilde.grid.step
    box = wide_grid.count * wide_grid.step
    amp = np.abs(psi_tilde.values)
    sup = np.abs(psi_tilde.points[amp >= 1e-13 * amp.max()])
    p_lo = max(sup.min(), 4.0 * dp)
    grid = fq.default_oriented_grid(psi_tilde)
    # the aliasing period covers the box's arrival reach ...
    assert 2.0 * math.pi * hbar / grid.step >= m * box / p_lo * (1.0 - 1e-12)
    # ... and the grid is no finer than 5-smooth rounding makes it
    if grid.count > 1024:
        assert grid.step >= p_lo * dp / m / 1.07
    # it reaches the largest support energy to within one step, with no margin
    s_sup = sup.max() ** 2 / (2.0 * m)
    tol = 1e-12 * s_sup
    for end in (-grid.origin, grid.last):
        assert s_sup - grid.step - tol <= end <= s_sup + tol
