import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flowquant as fq
from test_acceptance import ledger


def bump_packet(grid, params, center, width, rep=fq.Representation.POSITION):
    """Smooth compactly supported probe, exactly zero outside |u-c| < w."""
    u = (grid.points - center) / width
    v = np.zeros(grid.count)
    m = np.abs(u) < 1.0
    v[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    v /= math.sqrt(np.sum(v**2) * grid.step)
    return fq.WaveFunction(grid, v, rep, params)


# ---------------------------------------------------------------- flows

def test_translation_flow():
    r = fq.integrate_flow(fq.constant_field(), 0.3, 2.0)
    assert not r.escaped
    assert abs(r.endpoint - 2.3) <= 1e-10


def test_homothety_flow():
    r = fq.integrate_flow(fq.linear_field(), 0.5, 1.0)
    assert abs(r.endpoint - 0.5 * math.e) <= 1e-9


def test_quadratic_flow_closed_form():
    # closed form x / (1 - t x)
    r = fq.integrate_flow(fq.quadratic_field(), 0.5, 1.0)
    assert abs(r.endpoint - 1.0) <= 1e-8


def test_cubic_field_is_odd_and_within_one_ulp():
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(-15.0, 15.0, 2000),
                        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-100, 100, 1000)])
    X = fq.cubic_field()
    fx = X(x)
    assert np.array_equal((-fx).view(np.int64), X(-x).view(np.int64))
    for v, f in zip(x.tolist(), fx.tolist()):
        exact = Fraction(v) ** 3
        assert abs(Fraction(f) - exact) <= math.ulp(float(exact))


_EDGE_POINTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.5, -2.5,
                         1e300, -1e300, np.inf, -np.inf])

_FORMULAS = [
    (fq.constant_field(), np.ones_like, np.zeros_like),
    (fq.linear_field(), lambda x: x, np.ones_like),
    (fq.quadratic_field(), lambda x: x ** 2, lambda x: 2.0 * x),
    (fq.cubic_field(), lambda x: np.copysign(np.abs(x) ** 3, x), lambda x: 3.0 * x ** 2),
    (fq.arrival_field(2.0), lambda p: 2.0 / p, lambda p: -2.0 / p ** 2),
    (fq.oriented_arrival_field(2.0), lambda p: 2.0 / np.abs(p),
     lambda p: -2.0 * np.sign(p) / p ** 2),
    (fq.straightened_oriented_field(), np.ones_like, np.zeros_like),
]


@pytest.mark.parametrize("field, func, deriv", _FORMULAS,
                         ids=[field.label for field, _, _ in _FORMULAS])
def test_built_in_fields_are_their_formulas(field, func, deriv):
    # bit for bit, with no warning, on an array of edge values and on a
    # Python float, which the field sees as a 0-d float array
    with np.errstate(all="ignore"):
        expected = [(func(x), deriv(x)) for x in (_EDGE_POINTS, np.asarray(-2.5))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [(field(x), field.derivative(x)) for x in (_EDGE_POINTS, -2.5)]
    for pair, want in zip(got, expected):
        for value, formula in zip(pair, want):
            assert np.shape(value) == np.shape(formula)
            assert np.asarray(value).tobytes() == np.asarray(formula).tobytes()


def test_hand_built_field_is_called_with_float_arrays():
    seen = []
    field = fq.VectorField1D(lambda x: seen.append(x) or 2.0 * x)
    assert field([1, 2]).tolist() == [2.0, 4.0] and field(3) == 6.0
    assert field.derivative([1, 2]).tolist() == pytest.approx([2.0, 2.0])
    assert all(isinstance(x, np.ndarray) and x.dtype == np.float64 for x in seen)
    assert seen[1].ndim == 0


def test_quadratic_flow_escape():
    r = fq.integrate_flow(fq.quadratic_field(), 0.5, 3.0)
    assert r.escaped
    assert r.endpoint is None
    assert r.t_reached < 3.0
    assert abs(r.t_reached - 2.0) <= 1e-6


def test_flow_backward_time():
    r = fq.integrate_flow(fq.linear_field(), 1.0, -1.0)
    assert abs(r.endpoint - math.exp(-1.0)) <= 1e-9


def test_flow_over_no_time_stays_put():
    assert fq.integrate_flow(fq.linear_field(), 2.5, 0.0) == fq.FlowResult(0.0, 2.5, False)


def test_classification_refuses_probes_outside_the_domain():
    field = fq.VectorField1D(np.ones_like, domain=((5.0, 6.0),), label="1 on (5, 6)")
    with pytest.raises(fq.OutOfDomain, match="no probe points"):
        fq.classify_flow(field, fq.ProbeSpec(interval=(-10.0, -1.0)))


def test_flow_endpoint_beyond_the_default_table():
    # the default tail table reaches about 2^200 max(1, |x0|) = 1.6e60 from
    # x0 and 2^-200 of the way to 0; t = +-200 lands at 3.6e86 and 6.9e-88
    for t in (200.0, -200.0):
        r = fq.integrate_flow(fq.linear_field(), 0.5, t)
        assert not r.escaped
        assert abs(r.endpoint / (0.5 * math.exp(t)) - 1.0) <= 1e-12


@pytest.mark.parametrize("t", [800.0, -800.0])
def test_flow_endpoint_beyond_float64_is_refused(t):
    # 0.5 e^800 overflows and 0.5 e^-800 underflows: one-line refusal
    with pytest.raises(fq.InvalidParameter) as err:
        fq.integrate_flow(fq.linear_field(), 0.5, t)
    assert "float64" in str(err.value)
    assert "\n" not in str(err.value)


def test_float_range_table_stops_where_x_leaves_the_normal_floats():
    # x^2 from 0.5 for t = -1e100 ends at 1e-100, past the default table;
    # the float-range table stops where x^2 is below the normal floats
    # (|x| < 1.5e-154) instead of splitting panels on subnormal X to the
    # panel limit, which took 1.68M evaluations of X against 190k now
    calls = []

    def square(x):
        calls.append(np.size(x))
        return np.asarray(x, dtype=float) ** 2

    quadratic = fq.quadratic_field()
    field = fq.VectorField1D(*(square if name == "func" else getattr(quadratic, name)
                               for name in quadratic._fields))
    r = fq.integrate_flow(field, 0.5, -1e100)
    assert abs(r.endpoint / 1e-100 - 1.0) <= 1e-14
    assert sum(calls) <= 400_000
    # an endpoint where X is subnormal is refused, not returned off by 1.5e-9
    with pytest.raises(fq.InvalidParameter, match="normal floats"):
        fq.integrate_flow(fq.quadratic_field(), 0.5, -1e160)


def test_flow_domain_errors():
    with pytest.raises(fq.OutOfDomain):
        fq.integrate_flow(fq.arrival_field(), 0.0, 1.0)


def test_arrival_field_boundary_escape():
    # backward flow of m/p drives p > 0 into the boundary at p = 0
    r = fq.integrate_flow(fq.arrival_field(), 1.0, -2.0)
    assert r.escaped
    assert abs(abs(r.t_reached) - 0.5) <= 1e-3  # p0^2 / 2m


# -------------------------------------------------------- classification

EXPECTED_TABLE = [
    (fq.constant_field, fq.FlowVerdict.COMPLETE),
    (fq.linear_field, fq.FlowVerdict.COMPLETE),
    (fq.quadratic_field, fq.FlowVerdict.PLUGGABLE_INCOMPLETE),
    (fq.cubic_field, fq.FlowVerdict.INCURABLE),
    (fq.arrival_field, fq.FlowVerdict.HALF_LINE_INCOMPLETE),
    (fq.straightened_oriented_field, fq.FlowVerdict.COMPLETE),
]


@pytest.mark.parametrize("factory,expected", EXPECTED_TABLE,
                         ids=[f[0].__name__ for f in EXPECTED_TABLE])
def test_classification_table(factory, expected):
    fc = fq.classify_flow(factory())
    assert fc.verdict is expected


def test_classification_invariants():
    quad = fq.classify_flow(fq.quadratic_field())
    assert quad.lost_mass_fraction > 1e-3
    assert abs(quad.lost_mass_fraction - quad.gap_measure) <= 0.05 * quad.lost_mass_fraction

    cubic = fq.classify_flow(fq.cubic_field())
    assert cubic.lost_mass_fraction > 1e-3
    assert cubic.gap_measure <= 1e-3

    arrival = fq.classify_flow(fq.arrival_field())
    assert arrival.invariant_components == 2

    complete = fq.classify_flow(fq.linear_field())
    assert complete.lost_mass_fraction <= 1e-3
    assert complete.gap_measure <= 1e-3


def test_classification_component_count():
    # one invariant component per half-line holding probes
    both = fq.classify_flow(fq.arrival_field(), fq.ProbeSpec(interval=(-10.0, 10.0)))
    assert both.invariant_components == 2
    right = fq.classify_flow(fq.arrival_field(), fq.ProbeSpec(interval=(0.5, 10.0)))
    assert right.invariant_components == 1


def test_classification_drops_probe_within_rounding_of_edge():
    # An odd count puts the middle probe ~1e-15 from p = 0; it would escape
    # at once and make the verdict inconclusive.
    probes = fq.ProbeSpec(interval=(-12.9, 12.9), count=279)
    fc = fq.classify_flow(fq.arrival_field(), probes)
    assert fc.verdict is fq.FlowVerdict.HALF_LINE_INCOMPLETE


# Closed-form escape times of probes started at x0, forward and backward in
# time (inf where the orbit end is never reached): x^2 blows up at 1/|x0|
# toward +inf forward and -inf backward; x^3 at 1/(2 x0^2) forward; m/p
# reaches p = 0 at x0^2/2m backward.
CLOSED_FORM_ESCAPES = [
    (fq.quadratic_field,
     lambda x0: (np.where(x0 > 0, 1.0 / x0, np.inf),
                 np.where(x0 < 0, -1.0 / x0, np.inf))),
    (fq.cubic_field,
     lambda x0: (np.where(x0 != 0, 0.5 / x0**2, np.inf), np.full(x0.size, np.inf))),
    (fq.arrival_field,
     lambda x0: (np.full(x0.size, np.inf), 0.5 * x0**2)),
]


@pytest.mark.parametrize("factory,closed_form", CLOSED_FORM_ESCAPES,
                         ids=[f[0].__name__ for f in CLOSED_FORM_ESCAPES])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.floats(-20.0, 20.0), width=st.floats(0.5, 30.0),
       half_count=st.integers(8, 1024), t_probe=st.floats(0.01, 50.0))
def test_classification_matches_closed_form(factory, closed_form, a, width,
                                            half_count, t_probe):
    count = 2 * half_count
    b = a + width
    x0 = a + (b - a) / count * (np.arange(count) + 0.5)
    if factory is fq.arrival_field:   # probes within rounding of p = 0 are dropped
        x0 = x0[np.abs(x0) > 4.0 * np.spacing(max(abs(a), abs(b)))]
    times = closed_form(x0)
    for t in times:
        assume(not np.any(np.abs(t - t_probe) <= 1e-9 * t_probe))
    expected = [np.count_nonzero(t < t_probe) / x0.size for t in times]

    # x^2, x^3 and m/p always decide: an inconclusive verdict fails here
    fc = fq.classify_flow(factory(), fq.ProbeSpec(interval=(a, b), count=count,
                                                  t_probe=t_probe))
    assert [fc.forward_escape_fraction, fc.backward_escape_fraction] == expected
    for sample in fc.escape_samples:
        t = closed_form(np.array([sample.start]))[0 if sample.direction > 0 else 1][0]
        assert abs(sample.t_escape - t) <= 1e-11 * t


def test_classification_refuses_unrepresentable_field_values():
    # x^2 underflows to 0 on this window: the probes would pass for fixed
    # points, and the verdict for Incurable although every probe blows up
    # forward at 1/x0 < t_probe.
    tiny = fq.ProbeSpec(interval=(1e-300, 2e-300), count=16, t_probe=1e300)
    with pytest.raises(fq.InvalidParameter, match="not representable"):
        fq.classify_flow(fq.quadratic_field(), tiny)
    with pytest.raises(fq.InvalidParameter, match="not representable"):
        fq.classify_flow(fq.quadratic_field(), fq.ProbeSpec(interval=(1e200, 2e200)))
    # a probe on the declared zero is a fixed point, not a refusal
    on_zero = fq.classify_flow(fq.quadratic_field(),
                               fq.ProbeSpec(interval=(-1.0, 1.0), count=17))
    assert on_zero.verdict is fq.FlowVerdict.PLUGGABLE_INCOMPLETE


def test_classification_deterministic():
    a = fq.classify_flow(fq.quadratic_field())
    b = fq.classify_flow(fq.quadratic_field())
    assert a == b


def test_classification_ignores_probe_time_near_old_threshold():
    # at this t_probe 2 of 2048 probes escape each way; the verdict does not
    # depend on how many do
    probes = fq.ProbeSpec(t_probe=0.1002004008016032)
    fc = fq.classify_flow(fq.quadratic_field(), probes)
    assert fc.verdict is fq.FlowVerdict.PLUGGABLE_INCOMPLETE
    assert (fc.n_plus, fc.n_minus) == (1, 1)


def slow_field():
    """X = 1 + (x/50)^2: every trajectory leaves the line in a finite time
    (50 pi end to end), longer than the default t_probe."""
    return fq.VectorField1D(lambda x: 1.0 + (np.asarray(x, dtype=float) / 50.0) ** 2,
                            lambda x: np.asarray(x, dtype=float) / 1250.0,
                            label="1+(x/50)^2")


def undecided_field():
    """X = x (1 + ln^2(1 + x^2)): from x = 1 the end +inf is reached at
    t = 0.61605, but the tail segments still shrink by only 1 % at the
    200th doubling."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 + np.log1p(x * x) ** 2)
    return fq.VectorField1D(f, zeros=(0.0,), label="x(1+ln^2(1+x^2))")


@pytest.mark.parametrize("probes", [
    fq.ProbeSpec(), fq.ProbeSpec(interval=(0.5, 10.0)),
    fq.ProbeSpec(interval=(-10.0, -0.5)),
    fq.ProbeSpec(interval=(-100.0, 100.0), t_probe=50.0)])
def test_classification_slow_blow_up_is_pluggable(probes):
    fc = fq.classify_flow(slow_field(), probes)
    assert fc.verdict is fq.FlowVerdict.PLUGGABLE_INCOMPLETE
    assert (fc.n_plus, fc.n_minus) == (1, 1)


def test_transport_rejects_slow_blow_up(centered_packet):
    with pytest.raises(fq.NotComplete):
        fq.transport(centered_packet, slow_field(), 0.1)


@pytest.mark.parametrize("interval", [(0.5, 10.0), (-10.0, -0.5)])
def test_classification_half_line_from_one_half_line(interval):
    # the half-line without probes is read from one interior point
    fc = fq.classify_flow(fq.arrival_field(), fq.ProbeSpec(interval=interval))
    assert fc.verdict is fq.FlowVerdict.HALF_LINE_INCOMPLETE
    assert (fc.n_plus, fc.n_minus) == (0, 2)
    assert fc.invariant_components == 1


def test_classification_undecided_tail_is_inconclusive():
    with pytest.raises(fq.InconclusiveClassification) as exc:
        fq.classify_flow(undecided_field())
    assert exc.value.diagnostics["end"] in ("inf", "-inf")
    last = exc.value.diagnostics["last_segments"]
    assert 0.98 < last[-1] / last[-2] < 1.0
    with pytest.raises(fq.InconclusiveClassification):
        fq.straighten(undecided_field(), 1.0)


def test_tail_table_ends_where_x_overflows():
    # X = x sqrt(1 + x^2) / (1 + |x|) is about x at large |x|, so +-inf is
    # never reached, but X overflows near 1e308 while the edges do not; a
    # segment past that overflow would count as no time and settle the clock
    def f(x):
        return x * np.sqrt(1.0 + x * x) / (1.0 + np.abs(x))
    field = fq.VectorField1D(f, zeros=(0.0,), label="x sqrt(1+x^2)/(1+|x|)")
    far = fq.classify_flow(field, fq.ProbeSpec(interval=(1e140, 2e140)))
    assert far.verdict is fq.FlowVerdict.COMPLETE
    # the exact endpoint 1e140 e^400 overflows: a refusal, not an escape
    with pytest.raises(fq.InvalidParameter, match="float64"):
        fq.integrate_flow(field, 1e140, 400.0)
    r = fq.integrate_flow(field, 1e140, 20.0)
    assert not r.escaped
    assert abs(r.endpoint / (1e140 * math.exp(20.0)) - 1.0) <= 1e-14
    # a field that underflows far out, with no overflow, still decides
    bump = fq.VectorField1D(lambda x: np.exp(-x * x), label="exp(-x^2)")
    assert fq.classify_flow(bump).verdict is fq.FlowVerdict.COMPLETE


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.one_of(st.just(1.0), st.floats(1.5, 3.0)))
def test_power_field_indices_match_escape_times(k):
    # X = x^k on x > 0 reaches +inf in the time 1/(k - 1) from x = 1 iff
    # k > 1, and never reaches the zero at 0
    field = fq.VectorField1D(lambda x: np.abs(np.asarray(x, dtype=float)) ** k,
                             domain=((0.0, math.inf),), zeros=(0.0,),
                             label=f"x^{k}")
    fc = fq.classify_flow(field)
    forward = fq.integrate_flow(field, 1.0, 10.0)
    backward = fq.integrate_flow(field, 1.0, -10.0)
    assert (fc.n_plus, fc.n_minus) == (int(forward.escaped), int(backward.escaped))
    assert forward.escaped == (k > 1.0) and not backward.escaped
    if forward.escaped:
        assert math.isclose(forward.t_reached, 1.0 / (k - 1.0), rel_tol=1e-9)
    expected = fq.FlowVerdict.INCURABLE if k > 1.0 else fq.FlowVerdict.COMPLETE
    assert fc.verdict is expected


# X = c x^k on x > 0 reaches +inf in finite time iff k > 1 and 0 iff k < 1:
# the verdict is Incurable with (n+, n-) = (1, 0) or (0, 1).  The orbit of
# x0 is (x0^(1-k) + c (1-k) t)^(1/(1-k)), which reaches its end at
# |t| = x0^(1-k) / (c |1-k|).

_POWER_PROBES = fq.ProbeSpec(interval=(0.5, 2.0), count=256, t_probe=4.0)


def power_field(c: float, k: float) -> fq.VectorField1D:
    return fq.VectorField1D(lambda x: c * np.abs(x) ** k, domain=((0.0, math.inf),),
                            label=f"{c} x^{k}")


def power_escape_time(c: float, k: float, x0: float) -> float:
    """x0^(1-k) / (c |1-k|), correctly rounded."""
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        return float(mpmath.mpf(x0) ** (1 - k) / (c * abs(1 - k)))


def power_endpoint(c: float, k: float, x0: float, t: float) -> float:
    """(x0^(1-k) + c (1-k) t)^(1/(1-k)), correctly rounded."""
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        return float((mpmath.mpf(x0) ** (1 - k) + c * (1 - k) * mpmath.mpf(t)) ** (1 / (1 - k)))


def check_power_field(c: float, k: float, x0: float, toward: float, away: float):
    """Classify c x^k, then integrate from x0 past its end, for the fraction
    toward of its escape time toward that end, and for the time away from
    it.  Returns the largest relative errors of the escape times (probes'
    and x0's) and of the two endpoints."""
    field = power_field(c, k)
    fc = fq.classify_flow(field, _POWER_PROBES)
    assert fc.verdict is fq.FlowVerdict.INCURABLE
    assert (fc.n_plus, fc.n_minus) == ((1, 0) if k > 1.0 else (0, 1))
    direction = 1 if k > 1.0 else -1
    escape = []
    for sample in fc.escape_samples:
        assert sample.direction == direction
        escape.append(abs(sample.t_escape / power_escape_time(c, k, sample.start) - 1.0))
    tau = power_escape_time(c, k, x0)
    reached = fq.integrate_flow(field, x0, 2.0 * direction * tau)
    assert reached.escaped
    escape.append(abs(abs(reached.t_reached) / tau - 1.0))
    endpoint = []
    for t in (toward * direction * tau, -away * direction):
        r = fq.integrate_flow(field, x0, t)
        assert not r.escaped
        endpoint.append(abs(r.endpoint / power_endpoint(c, k, x0, t) - 1.0))
    return max(escape), max(endpoint)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(c=st.sampled_from([0.5, 1.0, 2.0]),
       k=st.one_of(st.floats(0.1, 0.7), st.floats(1.3, 3.0)),
       x0=st.floats(0.5, 2.0), toward=st.floats(0.0, 0.5), away=st.floats(0.0, 4.0))
def test_power_field_decides_with_exact_escape_times(c, k, x0, toward, away):
    escape, endpoint = check_power_field(c, k, x0, toward, away)
    ledger(flow_power_escape_time=escape, flow_power_endpoint=endpoint)


@pytest.mark.parametrize("k", [
    pytest.param(k, id=f"k={k}", marks=pytest.mark.xfail(
        raises=fq.InconclusiveClassification, strict=True,
        reason="power tails near k = 1 neither settle nor stall in the tail table "
               "(ROADMAP item 8, Finding 1)"))
    for k in (0.75, 0.9, 1.05, 1.2, 1.25)])
def test_power_field_near_k_1_decides(k):
    for c in (0.5, 1.0, 2.0):
        check_power_field(c, k, 1.0, 0.5, 4.0)


def test_classification_reads_each_orbit_end_once(monkeypatch):
    # the verdict reuses the probe tables' orbit ends: no extra tail pass
    from flowquant import flows
    calls = []
    tail = flows._tail

    def counted(*args, **kwargs):
        calls.append(args)
        return tail(*args, **kwargs)

    monkeypatch.setattr(flows, "_tail", counted)
    fq.classify_flow(fq.quadratic_field())
    assert len(calls) == 4



BUILT_IN_FIELDS = [fq.constant_field, fq.linear_field, fq.quadratic_field, fq.cubic_field,
                   fq.arrival_field, fq.oriented_arrival_field, fq.straightened_oriented_field]


def _whole_table_class(field, probes, fc):
    """fc with its escape diagnostics rebuilt from every probe's travel
    times, as _orbit_tables tabulates them: every gap between the probes
    integrated and summed toward both orbit ends."""
    from flowquant import flows
    a, b = sorted(probes.interval)
    grid = a + (b - a) / probes.count * (np.arange(probes.count) + 0.5)
    lo, hi = np.array(field.domain, dtype=float).T
    slack = 4.0 * np.spacing(max(abs(a), abs(b)))
    grid = grid[((grid[:, None] > lo + slack) & (grid[:, None] < hi - slack)).any(axis=1)]
    t_esc = np.full((2, grid.size), math.inf)
    for _, idx, _, _, _, t_fwd, t_bwd, _ in flows._orbit_tables(field, grid):
        t_esc[:, idx] = t_fwd, t_bwd
    esc = t_esc < probes.t_probe
    esc_f, esc_b = (float(np.count_nonzero(e) / grid.size) for e in esc)
    samples = tuple(fq.EscapeSample(float(grid[i]), direction, float(t_esc[di, i]))
                    for di, direction in enumerate((+1, -1))
                    for i in np.flatnonzero(esc[di])[:8])
    return fq.FlowClass(fc.verdict, max(esc_f, esc_b), min(esc_f, esc_b),
                        fc.invariant_components, esc_f, esc_b, fc.n_plus, fc.n_minus,
                        samples)


def _bits(fc):
    """The fields of a FlowClass, with every float as its exact hex form."""
    floats = (fc.lost_mass_fraction, fc.gap_measure, fc.forward_escape_fraction,
              fc.backward_escape_fraction)
    return (fc.verdict, fc.invariant_components, fc.n_plus, fc.n_minus,
            *(x.hex() for x in floats),
            tuple((s.start.hex(), s.direction, s.t_escape.hex()) for s in fc.escape_samples))


# Windows of every size, from ones that straddle the orbit ends at 0 to ones
# whose edge lies within rounding of 0.
_EDGES = st.one_of(st.floats(-50.0, 50.0),
                   st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-12, -1e-12]))
_WIDTHS = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("factory", BUILT_IN_FIELDS, ids=[f.__name__ for f in BUILT_IN_FIELDS])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(edge=_EDGES, width=_WIDTHS, toward_edge=st.booleans(),
       count=st.integers(16, 4096), t_probe=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
def test_classification_equals_whole_travel_time_tables(factory, edge, width, toward_edge,
                                                         count, t_probe):
    # only the escape times below t_probe are integrated, and none toward an
    # end never reached; the result keeps every bit of the whole tables'
    interval = (edge - width, edge) if toward_edge else (edge, edge + width)
    field, probes = factory(), fq.ProbeSpec(interval=interval, count=count, t_probe=t_probe)
    try:
        fc = fq.classify_flow(field, probes)
    except (fq.OutOfDomain, fq.InvalidParameter, fq.InconclusiveClassification):
        return
    assert _bits(fc) == _bits(_whole_table_class(field, probes, fc))


@pytest.mark.parametrize("factory", BUILT_IN_FIELDS, ids=[f.__name__ for f in BUILT_IN_FIELDS])
@pytest.mark.parametrize("count", [2047, 4096])
def test_classification_equals_whole_tables_on_the_default_window(factory, count):
    field = factory()
    for t_probe in (1e-3, 4.0, 18.0, 1e3):  # at 18, scans stop in their second chunk
        probes = fq.ProbeSpec(count=count, t_probe=t_probe)
        fc = fq.classify_flow(field, probes)
        assert _bits(fc) == _bits(_whole_table_class(field, probes, fc))


@pytest.mark.parametrize("factory", [fq.constant_field, fq.linear_field,
                                     fq.straightened_oriented_field])
def test_complete_classification_integrates_only_the_tails(monkeypatch, factory):
    # no orbit end of a complete field is reached, so no probe can escape
    # and no gap between probes is integrated: each _travel_time call is a
    # _tail's
    from flowquant import flows
    calls = {"tail": 0, "travel": 0}
    tail, travel = flows._tail, flows._travel_time

    def counted_tail(*args, **kwargs):
        calls["tail"] += 1
        return tail(*args, **kwargs)

    def counted_travel(*args, **kwargs):
        calls["travel"] += 1
        return travel(*args, **kwargs)

    monkeypatch.setattr(flows, "_tail", counted_tail)
    monkeypatch.setattr(flows, "_travel_time", counted_travel)
    fc = fq.classify_flow(factory(), fq.ProbeSpec(count=4096))
    assert fc.verdict is fq.FlowVerdict.COMPLETE
    assert calls["travel"] == calls["tail"] > 0


_GAP_CASES = [
    (fq.quadratic_field, np.geomspace(1e-8, 1e8, 301)),
    (fq.cubic_field, np.linspace(-3.0, -1e-3, 257)),
    (fq.arrival_field, np.concatenate([np.geomspace(1e-300, 1e-6, 40),
                                       np.linspace(1e-5, 40.0, 160)])),
    (fq.oriented_arrival_field, np.geomspace(1e-12, 1e12, 97)),
]


@pytest.mark.parametrize("factory,x", _GAP_CASES, ids=[f[0].__name__ for f in _GAP_CASES])
def test_travel_time_bits_do_not_depend_on_the_chunk(monkeypatch, factory, x):
    # each integral is split on its own, so neither the chunk size nor the
    # sub-range a gap is integrated in changes its bits: classification
    # integrates the probe gaps a chunk at a time, from either end
    from flowquant import flows
    field, a, b = factory(), x[:-1], x[1:]
    want = flows._travel_time(field, a, b)
    for chunk in (1, 7, 1024, 4096):
        monkeypatch.setattr(flows, "_TRAVEL_CHUNK", chunk)
        assert flows._travel_time(field, a, b).tobytes() == want.tobytes()
    monkeypatch.setattr(flows, "_TRAVEL_CHUNK", 1024)
    cuts = [0, 1, 2, 30, 31, a.size // 2, a.size - 1, a.size]
    parts = [flows._travel_time(field, a[i:j], b[i:j]) for i, j in zip(cuts[:-1], cuts[1:])]
    assert np.concatenate(parts).tobytes() == want.tobytes()
    backward = flows._travel_time(field, a[::-1], b[::-1])
    assert backward[::-1].tobytes() == want.tobytes()


# ------------------------------------------------------------ straighten

def test_straighten_homothety_half_line():
    field = fq.VectorField1D(lambda x: np.asarray(x, dtype=float),
                             lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             domain=((0.0, math.inf),), label="x on (0,inf)")
    st = fq.straighten(field, 1.0)
    for xv in (2e-9, 1e-6, 0.5, 2.0, 10.0):
        assert abs(st.s_of_x(xv) - math.log(xv)) <= 1e-9
    assert st.global_chart
    assert abs(st.x_of_s(math.log(2.0)) - 2.0) <= 1e-9
    # next to the fixed point x = 0, where 1/X blows up
    assert abs(st.x_of_s(math.log(2e-9)) / 2e-9 - 1.0) <= 1e-9


def test_straighten_x_of_s_array_matches_scalar():
    # Each point of an array call takes the Newton steps it would take alone,
    # and few of them: the end cell (1e-9, 0.02), across which s = log x
    # spans seven decades, has log-spaced nodes for the first guess.
    calls = []

    def deriv(x):
        calls.append(np.size(x))
        return np.ones_like(np.asarray(x, dtype=float))

    field = fq.VectorField1D(lambda x: np.asarray(x, dtype=float), deriv,
                             domain=((0.0, math.inf),), label="x on (0,inf)")
    st = fq.straighten(field, 1.0)
    s = np.log([2e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.3, 1.0, 2.0, 7.5, 19.0])
    calls.clear()
    together = st.x_of_s(s)
    steps_together = sum(calls)
    calls.clear()
    alone = np.array([st.x_of_s(v) for v in s])
    assert steps_together == sum(calls)
    assert steps_together <= 4 * s.size
    assert np.allclose(together, alone, rtol=1e-14, atol=0.0)
    assert np.allclose(together, np.exp(s), rtol=1e-13, atol=0.0)


def test_straighten_constant_field():
    st = fq.straighten(fq.constant_field(), 0.25)
    for xv in (-3.0, 0.5, 7.0):
        assert abs(st.s_of_x(xv) - (xv - 0.25)) <= 1e-12


def test_straighten_oriented_arrival_both_branches():
    field = fq.oriented_arrival_field()
    right = fq.straighten(field, 1e-9)
    for pv in (0.5, 1.0, 3.0):
        assert abs(right.s_of_x(pv) - pv**2 / 2.0) <= 1e-9
    left = fq.straighten(field, -1e-9)
    for pv in (-0.5, -1.0, -3.0):
        assert abs(left.s_of_x(pv) - (-(pv**2) / 2.0)) <= 1e-9
    # each branch covers only a half-line of s
    assert not right.global_chart


def test_straighten_nearly_vanishing_field():
    # 1/X peaks 1e6-fold within 1e-3 of x = 0, inside one table cell
    field = fq.VectorField1D(lambda x: np.asarray(x, dtype=float) ** 2 + 1e-6)
    st = fq.straighten(field, 0.0)
    for xv in (-3.0, 0.5, 7.0):
        assert abs(st.s_of_x(xv) - 1e3 * math.atan(1e3 * xv)) <= 1e-9


def test_straighten_quadratic_not_global():
    field = fq.VectorField1D(lambda x: np.asarray(x, dtype=float) ** 2,
                             lambda x: 2.0 * np.asarray(x, dtype=float),
                             domain=((0.0, math.inf),), label="x^2 on (0,inf)")
    st = fq.straighten(field, 1.0)
    assert not st.global_chart  # s = -1/x is bounded above


def test_straighten_rejects_zero_field():
    # x_ref on a declared zero has no orbit to chart
    with pytest.raises(fq.ZeroFieldValue):
        fq.straighten(fq.linear_field(), 0.0)


def test_straighten_default_span_stops_at_declared_zeros():
    # the orbit of 1 under X = x is (0, inf), with the global chart log x
    st = fq.straighten(fq.linear_field(), 1.0)
    assert st.global_chart
    for xv in (2e-9, 0.5, 2.0, 10.0):
        assert abs(st.s_of_x(xv) - math.log(xv)) <= 1e-9
    assert abs(st.x_of_s(math.log(3.0)) - 3.0) <= 1e-12
    # the orbit of -1 under X = x^2 is (-inf, 0), with s = -1/x - 1
    st = fq.straighten(fq.quadratic_field(), -1.0)
    assert not st.global_chart
    assert abs(st.s_of_x(-0.5) - 1.0) <= 1e-12
    assert abs(st.s_of_x(-10.0) + 0.9) <= 1e-12
    with pytest.raises(ValueError, match="outside the tabulated span"):
        st.s_of_x(0.5)


@pytest.mark.parametrize("span", [(-1.0, 0.0), (-1.0, 3.0), (-2.0, 2.0)])
def test_straighten_rejects_span_holding_declared_zero(span):
    # straighten takes no span: its chart is the orbit of x_ref, which ends
    # at the declared zero, so neither the zero nor a point past it is charted
    lo, hi = span
    st = fq.straighten(fq.quadratic_field(), lo)
    assert st.s_of_x(lo) == 0.0
    with pytest.raises(ValueError, match="outside the tabulated span"):
        st.s_of_x(hi)
    with pytest.raises(ValueError, match="outside the tabulated span"):
        st.s_of_x(0.0)
    with pytest.raises(fq.ZeroFieldValue):
        fq.straighten(fq.quadratic_field(), 0.0)


def test_straighten_rejects_undeclared_zero():
    # X = x - 5 declares no zero: the orbit of 0 seems to be the whole line,
    # but X changes sign across the tail nodes toward +inf
    field = fq.VectorField1D(lambda x: np.asarray(x, dtype=float) - 5.0,
                             label="x - 5")
    with pytest.raises(fq.ZeroFieldValue):
        fq.straighten(field, 0.0)


def test_straighten_chart_covers_the_orbit():
    # the chart runs as far as the orbit's travel-time table, not a window
    # around x_ref
    st = fq.straighten(fq.linear_field(), 1.0)
    assert math.isclose(st.s_of_x(1e6), math.log(1e6), rel_tol=1e-13)
    # the relative error of x is the absolute error of s, which at s = 100
    # is the rounding of the clock summed over 144 tail segments: 10 ulps
    assert math.isclose(st.x_of_s(100.0), math.exp(100.0), rel_tol=2e-13)
    st = fq.straighten(fq.quadratic_field(), -1.0)
    assert math.isclose(st.s_of_x(-1e6), 1e-6 - 1.0, rel_tol=1e-13)
    with pytest.raises(ValueError, match="outside the tabulated span"):
        st.s_of_x(0.5)


# -------------------------------------------------------------- transport

def test_transport_shift(params, tight_grid, centered_packet):
    t = 128 * tight_grid.step  # on-node shift: interpolation is exact
    out, report = fq.transport(centered_packet, fq.constant_field(), t)
    expected = fq.gaussian_packet(tight_grid, params, t, 0.0,
                                  1.0 / math.sqrt(2.0))
    assert np.abs(out.values - expected.values).max() <= 1e-10
    assert report.unitarity_defect <= 1e-10


def test_transport_homothety(centered_packet, tight_grid):
    out, report = fq.transport(centered_packet, fq.linear_field(), math.log(2.0))
    x = tight_grid.points
    raw = np.exp(-x**2 / 2.0)
    nrm = math.sqrt(np.sum(raw**2) * tight_grid.step)
    expected = np.exp(-((x / 2.0) ** 2) / 2.0) / nrm / math.sqrt(2.0)
    assert np.abs(out.values - expected).max() <= 1e-8
    assert report.unitarity_defect <= 1e-8


def test_transport_norm_preservation(centered_packet):
    for field in (fq.constant_field(), fq.linear_field()):
        _, report = fq.transport(centered_packet, field, 0.37)
        assert report.unitarity_defect <= 1e-8


def test_transport_group_law(centered_packet):
    field = fq.linear_field()
    one, _ = fq.transport(centered_packet, field, 0.3)
    two, _ = fq.transport(one, field, 0.4)
    direct, _ = fq.transport(centered_packet, field, 0.7)
    assert np.abs(two.values - direct.values).max() <= 1e-7


def test_transport_rejects_incomplete(centered_packet):
    # the verdict is always that of the dragged field
    for field, t in ((fq.quadratic_field(), 0.1), (fq.cubic_field(), 0.3)):
        with pytest.raises(fq.NotComplete):
            fq.transport(centered_packet, field, t)


# -------------------------------------------------------------- generator

def test_lie_derivative_constant_field(params, tight_grid):
    # exp(ikx) on a grid mode: L_1 psi = psi' = ik psi
    k = 2.0 * math.pi * 32 / tight_grid.span
    vals = np.exp(1j * k * tight_grid.points)
    psi = fq.WaveFunction(tight_grid, vals, fq.Representation.POSITION, params)
    lie = fq.lie_derivative(psi, fq.constant_field())
    assert np.abs(lie.values - 1j * k * vals).max() <= 1e-9


def test_lie_derivative_linear_field(centered_packet, tight_grid):
    # X = x on exp(-x^2/2): (1/2)(x psi' + (x psi)') = (1/2 - x^2) psi
    lie = fq.lie_derivative(centered_packet, fq.linear_field())
    x = tight_grid.points
    expected = (0.5 - x**2) * centered_packet.values
    assert np.abs(lie.values - expected).max() <= 1e-8


def test_lie_derivative_rough_input(params, tight_grid):
    rng = np.random.default_rng(3)
    noisy = fq.WaveFunction(tight_grid, rng.normal(size=tight_grid.count),
                            fq.Representation.POSITION, params)
    with pytest.raises(fq.RoughInput):
        fq.lie_derivative(noisy, fq.constant_field())


@pytest.mark.parametrize("factory", [fq.constant_field, fq.linear_field])
def test_generator_matches_transport_derivative(centered_packet, factory):
    # transport drags the packet forward, so its t-derivative at zero is the
    # negative Lie derivative; compare against the reversed difference quotient
    field = factory()
    eps = 1e-4
    fwd, _ = fq.transport(centered_packet, field, +eps)
    bwd, _ = fq.transport(centered_packet, field, -eps)
    quotient = (bwd.values - fwd.values) / (2.0 * eps)
    lie = fq.lie_derivative(centered_packet, field)
    assert np.abs(quotient - lie.values).max() <= 1e-3


FIELDS_FOR_SYMMETRY = [
    ("const", fq.constant_field, fq.Representation.POSITION),
    ("x", fq.linear_field, fq.Representation.POSITION),
    ("x^2", fq.quadratic_field, fq.Representation.POSITION),
    ("x^3", fq.cubic_field, fq.Representation.POSITION),
    ("m/p", fq.arrival_field, fq.Representation.MOMENTUM),
    ("straightened", fq.straightened_oriented_field,
     fq.Representation.ORIENTED_ENERGY),
]


@pytest.mark.parametrize("label,factory,rep", FIELDS_FOR_SYMMETRY,
                         ids=[f[0] for f in FIELDS_FOR_SYMMETRY])
def test_generator_symmetry(params, label, factory, rep):
    # symmetry holds for every field; self-adjointness is a separate question
    # answered by classify_flow — that separation is the point of this test
    grid = fq.Grid1D(-16.0, 32.0 / 2048, 2048)
    phi = bump_packet(grid, params, 3.0, 1.5, rep)
    psi = bump_packet(grid, params, 4.0, 2.0, rep)
    field = factory()
    f_psi = fq.apply_generator(psi, field)
    f_phi = fq.apply_generator(phi, field)
    lhs = fq.inner_product(phi, f_psi)
    rhs = fq.inner_product(f_phi, psi)
    scale = math.sqrt(fq.norm_squared(phi) * fq.norm_squared(psi))
    assert abs(lhs - rhs) <= 1e-8 * scale


# ------------------------------------------------------ plugged transport

@pytest.fixture(scope="module")
def straddling_packet(params):
    """Two compact bumps either side of the flow pole x = 1/t at t = 0.5."""
    grid = fq.Grid1D(-40.0, 80.0 / 4096, 4096)
    x = grid.points

    def bump(c, w):
        u = (x - c) / w
        v = np.zeros_like(x)
        m = np.abs(u) < 1.0
        v[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return v

    vals = bump(1.0, 0.6) + bump(3.5, 0.6)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * grid.step)
    return fq.WaveFunction(grid, vals, fq.Representation.POSITION, params)


def test_pluggable_norm_preserved(straddling_packet):
    for phase in (0.0, 1.3):
        _, report = fq.pluggable_transport(straddling_packet,
                                           fq.quadratic_field(), 0.5, phase)
        assert report.unitarity_defect <= 1e-5


def test_pluggable_inequivalent_extensions(params, straddling_packet):
    out0, _ = fq.pluggable_transport(straddling_packet, fq.quadratic_field(),
                                     0.5, 0.0)
    out1, _ = fq.pluggable_transport(straddling_packet, fq.quadratic_field(),
                                     0.5, 1.0)
    chi = fq.gaussian_packet(straddling_packet.grid, params, -5.0, 0.0, 0.5)
    diff = abs(fq.inner_product(chi, out0) - fq.inner_product(chi, out1))
    assert diff > 1e-3


def test_pluggable_phase_inert_when_nothing_escapes(params):
    grid = fq.Grid1D(-40.0, 80.0 / 4096, 4096)
    x = grid.points
    u = x / 0.5
    vals = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
    vals /= math.sqrt(np.sum(vals**2) * grid.step)
    psi = fq.WaveFunction(grid, vals, fq.Representation.POSITION, params)
    a, _ = fq.pluggable_transport(psi, fq.quadratic_field(), 0.5, 0.0)
    b, _ = fq.pluggable_transport(psi, fq.quadratic_field(), 0.5, 2.0)
    assert np.abs(a.values - b.values).max() <= 1e-10


def test_pluggable_rejects_other_fields(straddling_packet):
    with pytest.raises(fq.NotPluggable):
        fq.pluggable_transport(straddling_packet, fq.cubic_field(), 0.5, 0.0)
    with pytest.raises(fq.NotPluggable):
        fq.pluggable_transport(straddling_packet, fq.linear_field(), 0.5, 0.0)
    # x^2 itself, but on x > 0 alone: +inf is reached and 0 never, Incurable
    half = fq.VectorField1D(lambda x: x ** 2, domain=((0.0, math.inf),), label="x^2, x > 0")
    with pytest.raises(fq.NotPluggable, match="classified Incurable"):
        fq.pluggable_transport(straddling_packet, half, 0.5, 0.0)
