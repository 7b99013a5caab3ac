import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import flowquant as fq
from flowquant.grids import _cis_ramp, _conjugate, _owning, _ramp_tables, gauss_panels


def test_grid_validation():
    with pytest.raises(ValueError):
        fq.Grid1D(0.0, -1.0, 64)
    with pytest.raises(ValueError):
        fq.Grid1D(0.0, 1.0, 4)
    with pytest.raises(fq.InvalidParameter, match="finite"):
        fq.Grid1D(0.0, math.inf, 8)
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
    # sigma_x = 0.5 fits the box, but the packet at x = 19 runs past its edge
    box = fq.Grid1D.from_bounds(-20.0, 20.0, 512)
    with pytest.raises(fq.GridTooSmall, match="does not decay"):
        fq.gaussian_packet(box, params, 19.0, 0.0, 1.0)


def test_zero_packet_fits_any_box(params):
    grid = fq.Grid1D(-30.0, 60.0 / 64, 64)
    assert fq.packet_fits_box(fq.WaveFunction(grid, np.zeros(64), fq.Representation.POSITION,
                                              params))


def test_gaussian_packet_refuses_a_width_beyond_the_box(params):
    # hbar / (2 sigma_p) is refused before it is squared: 5e199 would
    # overflow, and 5e-324 gives an infinite width
    grid = fq.Grid1D(-30.0, 60.0 / 1024, 1024)
    for sigma_p in (1e-200, 5e-324):
        with pytest.raises(fq.GridTooSmall, match="exceeds the grid box"):
            fq.gaussian_packet(grid, params, 0.0, 1.0, sigma_p)


def test_envelope_past_float64_is_zero(params):
    # (p - p1)^2 overflows to inf, where the envelope is 0: the packet is
    # refused for its zero norm, with no overflow warning before
    grid_p = fq.Grid1D(-12.5, 25.0 / 64, 64)
    spec = fq.BackflowSpec(p1=1e200, p2=2e200, sigma=1e150)
    with pytest.raises(fq.GridTooSmall, match="norm on this grid is 0"):
        fq.make_backflow_packet(grid_p, params, spec)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_wave_function_refuses_non_finite_values(params, bad):
    # a NaN or inf sample used to pass, and each consumer then failed its own
    # way: a bare ValueError, a wrong reason or a NaN current
    packet = fq.gaussian_packet(fq.Grid1D(-30.0, 60.0 / 256, 256), params, 0.0, 1.0, 0.5)
    values = packet.values.copy()
    values[100] = bad
    with pytest.raises(fq.InvalidParameter, match="values must be finite"):
        fq.WaveFunction(packet.grid, values, packet.rep, params)
    with pytest.raises(fq.InvalidParameter, match="values must be finite"):
        packet.with_values(values)
    # finite values whose squares pass float64 are still admitted
    values[100] = 1e200
    assert packet.with_values(values).values[100] == 1e200


def test_cis_ramp_returns_a_fresh_array_over_read_only_tables():
    first, second = _cis_ramp(0.25, 0.01, 100), _cis_ramp(0.25, 0.01, 100)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    for table in _ramp_tables(0.25, 0.01, 100, 1.0, 1.0):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_cis_ramp_in_place_product_leaves_the_next_call_unchanged():
    before = _cis_ramp(-3.5, 0.2, 300).view(np.uint64).copy()
    result = _cis_ramp(-3.5, 0.2, 300)
    result *= np.linspace(0.0, 2.0, 300)  # as gaussian_packet does
    assert np.array_equal(_cis_ramp(-3.5, 0.2, 300).view(np.uint64), before)


def test_cis_ramp_tells_signed_zeros_apart():
    # the pairs of each group are == to one another, so a cache keyed on
    # (a, b, n) alone would hand each one the tables of another
    groups = ([(0.0, -0.5), (-0.0, -0.5)],
              [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    for pairs in groups:
        expected = [np.multiply.outer(*_ramp_tables.__wrapped__(a, b, 10)).ravel()[:10]
                    for a, b in pairs]
        bits = {e.view(np.uint64).tobytes() for e in expected}
        assert len(bits) > 1  # the zeros' signs do reach the bits
        for _ in range(2):  # the second pass reads the cache
            for (a, b), e in zip(pairs, expected):
                assert np.array_equal(_cis_ramp(a, b, 10).view(np.uint64),
                                      e.view(np.uint64))


def test_cis_ramp_cache_is_bounded():
    size = _ramp_tables.cache_info().maxsize
    assert size == 32
    for k in range(3 * size):
        _cis_ramp(0.1 * k, 0.01, 50)
    assert _ramp_tables.cache_info().currsize == size


def test_conjugate_grid_is_the_formula_and_its_cache_is_bounded():
    for k in range(3 * _conjugate.cache_info().maxsize):
        grid = fq.Grid1D(-1.0, 0.01 * (k + 1), 64)
        dk = 2.0 * math.pi * 0.7 / grid.span
        assert grid.conjugate(0.7) == fq.Grid1D(-32 * dk, dk, 64)
    assert grid.conjugate(0.7) is grid.conjugate(0.7)  # with its points
    info = _conjugate.cache_info()
    assert info.maxsize == 4 and info.currsize == 4


def _owned_inputs(params, grid):
    """Fresh field values of each result type: a wave function, an arrival
    distribution and an ensemble."""
    n = grid.count
    return [(fq.WaveFunction, (grid, np.ones(n, dtype=np.complex128),
                               fq.Representation.POSITION, params)),
            (fq.ArrivalDistribution, (grid, *(np.full(n, float(k)) for k in range(4)),
                                      0.5, 0.5, np.ones(n, dtype=np.complex128))),
            (fq.PhaseSpaceEnsemble, (np.linspace(-1.0, 1.0, n), np.linspace(0.5, 2.0, n),
                                     params))]


def test_owning_wave_function_is_read_only(params):
    # grids._owning keeps the arrays it is handed and makes them read-only;
    # the public constructors still copy
    for cls, given in _owned_inputs(params, fq.Grid1D(-1.0, 0.125, 16)):
        made, copied = _owning(cls, *given), cls(*given)
        arrays = [(name, value) for name, value in zip(cls._fields, given)
                  if isinstance(value, np.ndarray)]
        assert arrays
        for name, handed in arrays:
            kept = getattr(made, name)
            assert kept is handed and np.shares_memory(kept, handed)
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 2.0
            mine = getattr(copied, name)
            assert not np.shares_memory(mine, kept) and np.array_equal(mine, kept)
    momentum = fq.to_momentum(fq.gaussian_packet(fq.Grid1D.from_bounds(-30.0, 30.0, 4096),
                                                 params, 0.0, 1.0, 0.5))
    for made in (momentum, fq.to_position(momentum)):
        assert not made.values.flags.writeable


def test_wave_function_modulus_is_cached_and_read_only(reference_momentum):
    amp = reference_momentum._amp
    assert amp is reference_momentum._amp  # taken once
    assert not amp.flags.writeable
    assert np.array_equal(amp.view(np.uint64),
                          np.abs(reference_momentum.values).view(np.uint64))


def test_moments_of_one_sample_on_a_huge_grid(params):
    # (u - mean)^2 overflows where the weight is 0: those terms count as 0,
    # so the spread of a single sample is 0, not nan
    grid = fq.Grid1D.from_bounds(-1e300, 1e300, 8)
    values = np.zeros(grid.count, dtype=np.complex128)
    values[grid.points == 0.0] = 1.0 / math.sqrt(grid.step)
    psi = fq.WaveFunction(grid, values, fq.Representation.POSITION, params)
    assert fq.moments(psi) == (0.0, 0.0)


@pytest.mark.parametrize("amplitude", [7.0, 1e100])
def test_moments_of_one_sample_off_zero_on_a_huge_grid(params, amplitude):
    # they were (-2.4999999999999998e+299, inf), and (-inf, inf) with an
    # overflow warning: the mean rounded off the sample, and u * w and
    # (u - mean)^2 passed float64
    grid = fq.Grid1D.from_bounds(-1e300, 1e300, 8)
    values = np.zeros(grid.count, dtype=np.complex128)
    values[3] = amplitude
    psi = fq.WaveFunction(grid, values, fq.Representation.POSITION, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, spread = fq.moments(psi)
    sample = grid.points[3]
    assert abs(mean - sample) <= math.ulp(sample)
    assert math.isfinite(spread) and spread <= 4 * math.ulp(abs(mean))


def test_moments_of_the_zero_function_is_invalid_parameter(centered_packet):
    zero = centered_packet.with_values(np.zeros_like(centered_packet.values))
    with pytest.raises(fq.InvalidParameter, match="moments of the zero function"):
        fq.moments(zero)


def test_legendre_table_is_leggauss():
    # on [-1, 1] the panel rule is the table itself
    nodes, weights = gauss_panels(-1.0, 1.0)
    reference = leggauss(32)
    assert np.array_equal(nodes, reference[0])
    assert np.array_equal(weights, reference[1])
