import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import flowquant as fq
from flowquant.grids import gauss_panels


def test_grid_validation():
    with pytest.raises(ValueError):
        fq.Grid1D(0.0, -1.0, 64)
    with pytest.raises(ValueError):
        fq.Grid1D(0.0, 1.0, 4)
    g = fq.Grid1D(-1.0, 0.25, 16)
    assert g.point(3) == -0.25
    assert g.points[3] == -0.25
    assert g.span == 4.0


def test_params_validation():
    with pytest.raises(ValueError):
        fq.PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError):
        fq.PhysicalParams(mass=-1.0)


def test_gaussian_packet_normalization_and_shape(centered_packet, tight_grid):
    # sigma_p = 1/sqrt(2) gives position std 1/sqrt(2), i.e. envelope exp(-x^2/2)
    assert abs(fq.norm_squared(centered_packet) - 1.0) <= 1e-10
    x = tight_grid.points
    expected = np.exp(-x**2 / 2.0)
    expected /= math.sqrt(np.sum(expected**2) * tight_grid.step)
    assert np.abs(centered_packet.values - expected).max() <= 1e-12


@pytest.mark.parametrize("cx,cp,sp", [(0.0, 0.0, 0.5), (3.0, -1.0, 0.8),
                                      (-4.5, 2.5, 1.2)])
def test_gaussian_packet_centers(params, tight_grid, cx, cp, sp):
    psi = fq.gaussian_packet(tight_grid, params, cx, cp, sp)
    mean_x, _ = fq.moments(psi)
    assert abs(mean_x - cx) <= 1e-8


def test_gaussian_packet_momentum_center(reference_packet):
    # independent check: first moment of |psi~|^2 by quadrature
    pt = fq.to_momentum(reference_packet)
    p = pt.points
    w = np.abs(pt.values) ** 2
    mean_p = np.trapezoid(p * w, p) / np.trapezoid(w, p)
    assert abs(mean_p - 2.0) <= 1e-6
    assert fq.packet_fits_box(reference_packet)


def test_gaussian_packet_errors(params):
    grid = fq.Grid1D(-30.0, 60.0 / 1024, 1024)
    with pytest.raises(fq.NonPositiveWidth):
        fq.gaussian_packet(grid, params, 0.0, 0.0, -0.1)
    small = fq.Grid1D(-2.0, 4.0 / 64, 64)
    with pytest.raises(fq.GridTooSmall):
        fq.gaussian_packet(small, params, 0.0, 0.0, 0.1)  # sigma_x = 5 >> box


def test_gaussian_packet_refuses_a_width_beyond_the_box(params):
    # hbar / (2 sigma_p) is refused before it is squared: 5e199 would
    # overflow, and 5e-324 gives an infinite width
    grid = fq.Grid1D(-30.0, 60.0 / 1024, 1024)
    for sigma_p in (1e-200, 5e-324):
        with pytest.raises(fq.GridTooSmall, match="exceeds the grid box"):
            fq.gaussian_packet(grid, params, 0.0, 1.0, sigma_p)


@pytest.mark.parametrize("hbar,count,cx,p0,sigma_p", [
    (0.7, 3000, -7.3, 2.9, 0.45),
    (1.0, 4096, -50.0, 2.2, 0.35),
    (1.0, 2000, 10.0, -4.3, 0.3),
])
def test_gaussian_packet_matches_long_double_closed_form(hbar, count, cx, p0, sigma_p):
    # p0 dx / hbar is not a short binary fraction, so k times the carrier's
    # ramp step rounds; the phases reach several hundred rad
    params = fq.PhysicalParams(hbar=hbar)
    grid = fq.Grid1D.from_bounds(-100.0, 100.0, count)
    assert (p0 * grid.step / hbar * 2**20) % 1.0 != 0.0
    psi = fq.gaussian_packet(grid, params, cx, p0, sigma_p)
    ld = np.longdouble
    x = ld(grid.origin) + np.arange(count).astype(ld) * ld(grid.step)
    sigma_x = ld(hbar) / (2 * ld(sigma_p))
    envelope = np.exp(-(x - ld(cx)) ** 2 / (4 * sigma_x * sigma_x))
    envelope /= np.sqrt(np.sum(envelope**2) * ld(grid.step))
    phase = ld(p0) * (x - ld(cx)) / ld(hbar)
    err = max(float(np.abs(psi.values.real - envelope * np.cos(phase)).max()),
              float(np.abs(psi.values.imag - envelope * np.sin(phase)).max()))
    assert err <= 1e-13 * float(envelope.max())


def test_norm_squared_basics(params, tight_grid, centered_packet):
    zero = fq.WaveFunction(tight_grid, np.zeros(tight_grid.count),
                           fq.Representation.POSITION, params)
    assert fq.norm_squared(zero) == 0.0
    assert abs(fq.norm_squared(centered_packet) - 1.0) <= 1e-10


def test_norm_of_two_orthogonal_packets(params, wide_grid):
    # disjoint momentum supports; orthogonality certified by quadrature
    a = fq.gaussian_packet(wide_grid, params, 0.0, 2.0, 0.2)
    b = fq.gaussian_packet(wide_grid, params, 0.0, -2.0, 0.2)
    overlap = fq.inner_product(a, b)
    assert abs(overlap) <= 1e-10
    combo = a.with_values((a.values + b.values) / math.sqrt(2.0))
    assert abs(fq.norm_squared(combo) - 1.0) <= 1e-8


def test_inner_product_properties(params, tight_grid):
    rng = np.random.default_rng(11)
    mk = lambda: fq.gaussian_packet(tight_grid, params, rng.uniform(-2, 2),
                                    rng.uniform(-1, 1), 0.7)
    phi, psi = mk(), mk()
    assert fq.inner_product(psi, psi) == pytest.approx(fq.norm_squared(psi),
                                                       abs=1e-12)
    assert abs(fq.inner_product(phi, psi)
               - np.conj(fq.inner_product(psi, phi))) <= 1e-12
    # linear in the second argument
    a, b = 0.3 - 0.2j, 1.1 + 0.7j
    combo = psi.with_values(a * psi.values + b * phi.values)
    lhs = fq.inner_product(phi, combo)
    rhs = a * fq.inner_product(phi, psi) + b * fq.inner_product(phi, phi)
    assert abs(lhs - rhs) <= 1e-12


def test_inner_product_mismatches(params, tight_grid, wide_grid):
    a = fq.gaussian_packet(tight_grid, params, 0.0, 0.0, 0.7)
    b = fq.gaussian_packet(wide_grid, params, 0.0, 0.0, 0.7)
    with pytest.raises(fq.GridMismatch):
        fq.inner_product(a, b)
    relabeled = fq.WaveFunction(a.grid, a.values, fq.Representation.MOMENTUM,
                                params)
    with pytest.raises(fq.RepMismatch):
        fq.inner_product(a, relabeled)


def test_current_real_wavefunction(centered_packet):
    j = fq.probability_current(centered_packet)
    assert np.abs(j).max() <= 1e-12


def test_current_integral_matches_momentum(params, wide_grid):
    psi = fq.gaussian_packet(wide_grid, params, 0.0, 1.5, 0.3)
    j = fq.probability_current(psi)
    total = np.trapezoid(j, wide_grid.points)
    expected = 1.5 / params.mass
    assert abs(total - expected) <= 0.01 * abs(expected)


def test_current_is_a_read_only_array(centered_packet):
    j = fq.probability_current(centered_packet)
    assert j.dtype == np.float64 and j.shape == (centered_packet.grid.count,)
    with pytest.raises(ValueError):
        j[0] = 1.0


def test_current_rep_mismatch(reference_momentum):
    with pytest.raises(fq.RepMismatch):
        fq.probability_current(reference_momentum)


def test_current_continuity(params):
    # d rho/dt + d j/dx = 0 for free evolution, checked at second order in dt
    grid = fq.Grid1D(-64.0, 128.0 / 2048, 2048)
    psi = fq.gaussian_packet(grid, params, -5.0, 1.0, 0.3)
    pt = fq.to_momentum(psi)
    dt = 1e-3
    rho_p = np.abs(fq.to_position(fq.evolve_free(pt, +dt), grid).values) ** 2
    rho_m = np.abs(fq.to_position(fq.evolve_free(pt, -dt), grid).values) ** 2
    drho_dt = (rho_p - rho_m) / (2.0 * dt)
    j = fq.probability_current(psi)
    dj_dx = np.real(fq.spectral_derivative(j.astype(complex), grid.step))
    interior = slice(64, -64)
    resid = drho_dt[interior] + dj_dx[interior]
    assert np.abs(np.trapezoid(resid, grid.points[interior])) <= 1e-8
    assert np.abs(resid).max() <= 1e-5


def test_backflow_packet_has_negative_current(params):
    # scan the shipped two-gaussian superposition at the time the wake forms
    grid_x = fq.Grid1D(-128.0, 256.0 / 4096, 4096)
    psi_tilde = fq.make_backflow_packet(grid_x.conjugate(params.hbar), params)
    psi_t = fq.to_position(fq.evolve_free(psi_tilde, 5.0))
    j = fq.probability_current(psi_t)
    sel = np.abs(psi_t.points) <= 20.0
    assert j[sel].min() < 0.0


def test_wavefunction_immutability(centered_packet):
    with pytest.raises(ValueError):
        centered_packet.values[0] = 1.0


def test_legendre_table_is_leggauss():
    # on [-1, 1] the panel rule is the table itself
    nodes, weights = gauss_panels(-1.0, 1.0)
    reference = leggauss(32)
    assert np.array_equal(nodes, reference[0])
    assert np.array_equal(weights, reference[1])
