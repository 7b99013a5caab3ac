"""Transport flows of 1-D vector fields and the quantization they induce.

An observable linear in momentum, f = X(x) p, generates the flow
dx/dt = X(x).  When every trajectory exists for all times (the field is
complete) the induced drag of wave functions is unitary and its generator is
the unique self-adjoint quantization of f; when trajectories blow up in
finite time the symmetric operator (hbar/2i)(X d/dx + d/dx X) has either many
self-adjoint extensions or none.  This module integrates the flows, decides
completeness from the orbit ends, transports wave functions with the
half-density Jacobian factor, applies the generator, and implements the
phase-ambiguous "plugged" transport for the quadratic field where escaping
and starving regions happen to match.

Key conventions:

* ``transport`` drags the packet along the field: a bump at x0 moves to
  G_t(x0).  Its time derivative at t = 0 is therefore the *negative* of
  ``lie_derivative`` (which differentiates the pull-back family).
* completeness verdicts count the orbit ends that trajectories reach in
  finite time forward (n+) and backward (n-), the von Neumann deficiency
  indices of the symmetric operator.  Probe trajectories are diagnostics:
  the coverage gap of the time-t flow map equals, in one dimension, the
  escape fraction of the reverse-time run (a point is missed by the forward
  image exactly when its backward trajectory blows up).

No flow is stepped in time.  The zeros of X and the domain edges cut the line
into orbits on which X keeps one sign, and the time to travel from x to y is
the integral of 1/X from x to y.  A trajectory blows up in finite time
exactly when that integral converges to the end of its orbit (a finite
domain edge or +-inf; a zero of X is never reached).  Every travel time is
computed on composite Gauss-Legendre panels, and G_t(x) is the point whose
travel time from x is t, found by Newton steps.
"""

import enum
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (InconclusiveClassification, InvalidParameter,
                     NotComplete, NotPluggable, OutOfDomain, RoughInput,
                     ZeroFieldValue)
from .grids import WaveFunction, _Record, gauss_panels, spectral_derivative

# transport and pluggable_transport import resample and transforms
# themselves, so that classification loads neither.
if TYPE_CHECKING:
    from .transforms import TransformReport

_FULL_LINE = ((-math.inf, math.inf),)


class VectorField1D(_Record):
    """Scalar field X over one coordinate, the object being quantized.

    ``domain`` is a tuple of open intervals; trajectories cannot cross the
    gaps between them.  ``zeros`` lists every point of the domain where X
    vanishes: flows are computed orbit by orbit between these fixed points,
    so a hand-built field must declare all of them (the factories below do).
    ``deriv`` is the closed-form derivative when known, otherwise a central
    difference is used.  ``func`` and ``deriv`` are always called on a float
    array (0-d for a scalar argument), with numpy's divide, invalid and
    overflow warnings silenced: a field is its formula, and the callers read
    inf and nan themselves.
    """

    func: Callable
    deriv: Callable | None = None
    domain: tuple[tuple[float, float], ...] = _FULL_LINE
    zeros: tuple[float, ...] = ()
    label: str = ""

    def __call__(self, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.func(np.asarray(x, dtype=float))

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.deriv is not None:
                return self.deriv(x)
            h = 1e-6 * (1.0 + np.abs(x))
            return (self.func(x + h) - self.func(x - h)) / (2.0 * h)

    def component_of(self, x: float) -> tuple[float, float]:
        for a, b in self.domain:
            if a < x < b:
                return (a, b)
        raise OutOfDomain(f"{x} is not inside the domain of field {self.label!r}")


def constant_field() -> VectorField1D:
    return VectorField1D(np.ones_like, np.zeros_like, label="const(1)")


def linear_field() -> VectorField1D:
    """X(x) = x, the generator of homotheties."""
    return VectorField1D(lambda x: x, np.ones_like, zeros=(0.0,), label="x")


def quadratic_field() -> VectorField1D:
    """X(x) = x^2; trajectories blow up in finite time 1/x0."""
    return VectorField1D(lambda x: x ** 2, lambda x: 2.0 * x, zeros=(0.0,), label="x^2")


def cubic_field() -> VectorField1D:
    """X(x) = x^3; blow-up with no matching starved region.  x^3 is formed
    as |x|^3 with the sign of x: exactly odd, as accurate as x ** 3, and it
    keeps glibc pow off its slow path for negative bases."""
    return VectorField1D(lambda x: np.copysign(np.abs(x) ** 3, x), lambda x: 3.0 * x ** 2,
                         zeros=(0.0,), label="x^3")


_HALF_LINES = ((-math.inf, 0.0), (0.0, math.inf))


def arrival_field(mass: float = 1.0) -> VectorField1D:
    """X(p) = m/p on the punctured momentum line (plain arrival time)."""
    return VectorField1D(lambda p: mass / p, lambda p: -mass / p ** 2,
                         domain=_HALF_LINES, label="m/p")


def oriented_arrival_field(mass: float = 1.0) -> VectorField1D:
    """X(p) = m/|p| on the punctured momentum line (oriented arrival time)."""
    return VectorField1D(lambda p: mass / np.abs(p), lambda p: -mass * np.sign(p) / p**2,
                         domain=_HALF_LINES, label="m/|p|")


def straightened_oriented_field() -> VectorField1D:
    """The oriented arrival field expressed in its flow coordinate.

    In the signed-kinetic-energy variable s = sgn(p) p^2/(2m) the two
    momentum half-axes glue into a single line and the field becomes the unit
    translation field, which is complete.
    """
    f = constant_field()
    return VectorField1D(f.func, f.deriv, label="m/|p| straightened")


# --------------------------------------------------------------------------
# Travel times and the flow map

class FlowResult(_Record):
    """Outcome of integrating dx/dt = X(x) from one initial point; an
    escaped trajectory has no endpoint and reaches its blow-up time."""

    t_reached: float
    endpoint: float | None
    escaped: bool


def _panel_time(field: VectorField1D, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Travel time, the integral of 1/X, across each panel [lo, hi]."""
    nodes, weights = gauss_panels(lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(weights / field(nodes), axis=-1)


_SPLIT_TOL = 1e-14   # relative agreement of a panel with its two halves
_MAX_PANELS = 256    # live panels per integral before they are taken as is
_TRAVEL_CHUNK = 1024  # integrals per pass: their panels stay in cache


def _travel_time(field: VectorField1D, a, b) -> np.ndarray:
    """Integral of 1/X from a to b, elementwise, on Gauss-Legendre panels
    halved until their halves agree: a 1/X that blows up just beyond an end
    or peaks between the ends is resolved to rounding.  Non-finite panels
    are not split; they make the result non-finite."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    out = np.zeros(a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, a.size, _TRAVEL_CHUNK):
            lo, hi = a[start:start + _TRAVEL_CHUNK], b[start:start + _TRAVEL_CHUNK]
            owner = np.arange(start, start + lo.size)
            whole = _panel_time(field, lo, hi)
            while owner.size:
                mid = 0.5 * (lo + hi)
                left, right = _panel_time(field, lo, mid), _panel_time(field, mid, hi)
                halves = left + right
                crowded = np.bincount(owner)[owner] > _MAX_PANELS
                done = (~np.isfinite(halves) | crowded
                        | (np.abs(whole - halves) <= _SPLIT_TOL * np.abs(halves)))
                np.add.at(out, owner[done], halves[done])
                split = ~done
                owner = np.concatenate([owner[split], owner[split]])
                lo, hi = (np.concatenate([lo[split], mid[split]]),
                          np.concatenate([mid[split], hi[split]]))
                whole = np.concatenate([left[split], right[split]])
    return out.reshape(shape)


#: Tail segments per orbit end: enough for escape times (the tail integral
#: settles or diverges well within them) and for flow maps up to about
#: 2^200 max(1, |x|).
_TAIL_SEGMENTS = 200
#: Tail segments that reach the end of the float range from any start:
#: doubling from max(1, |x|) >= 1 overflows within 1024 segments, and halving
#: a gap of at most 2^1025 leaves the normal floats within 2048.
_FLOAT_TAIL_SEGMENTS = 2048
_TINY = np.finfo(np.float64).tiny
_STALLED_SEGMENTS = 10  # last tail segments that show divergence by not shrinking


def _tail(field: VectorField1D, x_from: float, target: float,
          segments: int = _TAIL_SEGMENTS):
    """Travel times from x_from toward target, the end of its orbit.

    The segments double in length toward an infinite target, starting at
    max(1, |x_from|), until the edges overflow, and halve toward a finite
    one until the gap to it is no longer a normal float (a panel there would
    be split to the panel limit on rounding noise); at most ``segments`` of
    them, only while X at the edges is finite, and past the default
    _TAIL_SEGMENTS only while it is at least the smallest normal float.
    Returns the edges after x_from and the integral of 1/X from x_from to
    each, as far as it is finite; that integral's limit at the target, the
    reach; and the last segments if the reach is undecided, else None.  The
    reach is settled, the total once a segment no longer adds to it (the end
    is reached in finite time), or diverged, +-inf, when the target is a
    zero of X, a segment is not finite or the last _STALLED_SEGMENTS
    segments do not decrease.  Else it is undecided, and also +-inf, which
    is how the flow maps read it.
    """
    k = np.arange(segments + 1)
    with np.errstate(over="ignore"):
        if math.isinf(target):
            edges = x_from + math.copysign(max(1.0, abs(x_from)), target) * (2.0**k - 1.0)
            kept = np.isfinite(edges)
        else:
            gap = (x_from - target) * 0.5**k
            edges = target + gap
            kept = np.abs(gap) >= _TINY
    # The edges stop where X is not finite: a segment past an overflow of X
    # would count as zero time, and the clock would settle there.  Past the
    # default segments, which decide escape times, they also stop where X
    # leaves the normal floats: there 1/X is rounding noise, and each panel
    # would be split to the panel limit.
    magnitude = np.abs(field(edges))
    kept &= np.isfinite(magnitude)
    beyond = k > _TAIL_SEGMENTS
    kept[beyond] &= magnitude[beyond] >= _TINY
    kept = np.logical_and.accumulate(kept)
    # A prefix; one segment at least, as before.
    edges = edges[:max(2, np.count_nonzero(kept))]
    seg = _travel_time(field, edges[:-1], edges[1:])
    clock = np.cumsum(seg)
    diverged = ~np.isfinite(clock)  # once not finite, the cumulative sum stays so
    settled = np.concatenate([[False], clock[1:] == clock[:-1]])
    stop = np.flatnonzero(diverged | settled)
    table = slice(np.count_nonzero(~diverged))
    edges, clock = edges[1:][table], clock[table]
    never = math.copysign(math.inf, seg[0])
    if target in field.zeros or stop.size and diverged[stop[0]]:
        return edges, clock, never, None
    if stop.size:
        return edges, clock, float(clock[stop[0]]), None
    last = np.abs(seg[-_STALLED_SEGMENTS - 1:])
    if last.size > _STALLED_SEGMENTS and np.all(last[1:] >= (1.0 - 1e-9) * last[:-1]):
        return edges, clock, never, None
    return edges, clock, never, last


def _reached(end: float, reach: float, last) -> bool:
    """Whether an orbit end is reached in finite time, from its _tail; an
    undecided tail raises InconclusiveClassification."""
    if last is not None:
        raise InconclusiveClassification(
            f"the travel time to the orbit end {end:g} neither settles nor "
            f"diverges; its last segments are {last[-2]:.6g}, {last[-1]:.6g}",
            {"end": f"{end:g}", "last_segments": last.tolist()})
    return math.isfinite(reach)


def _interior(lo: float, hi: float) -> float:
    """A point inside the open interval (lo, hi)."""
    if math.isinf(hi):
        return 0.0 if math.isinf(lo) else lo + max(1.0, abs(lo))
    return hi - max(1.0, abs(hi)) if math.isinf(lo) else 0.5 * lo + 0.5 * hi


def _orbits(field: VectorField1D, x: np.ndarray, segments: int = _TAIL_SEGMENTS,
            every_orbit: bool = False):
    """The orbits holding some of the increasing points x, with their ends.

    The orbits are the open intervals between consecutive domain edges and
    zeros of X; on each, X keeps one sign.  Per orbit this yields its domain
    component, the indices of its points, the points, and the _tail from the
    first point to the lower end and from the last point to the upper end,
    each as (end, edges, clock, reach, last).  With ``every_orbit``, an
    orbit that holds no point is read from one interior point and has no
    indices.
    """
    for component, (a, b) in enumerate(field.domain):
        cuts = [a, *sorted(z for z in field.zeros if a < z < b), b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            idx = np.flatnonzero((x > lo) & (x < hi))
            if idx.size == 0 and not every_orbit:
                continue
            p = x[idx] if idx.size else np.array([_interior(lo, hi)])
            yield (component, idx, p, (lo, *_tail(field, p[0], lo, segments)),
                   (hi, *_tail(field, p[-1], hi, segments)))


def _orbit_tables(field: VectorField1D, x: np.ndarray, segments: int = _TAIL_SEGMENTS):
    """Travel-time tables of the orbits holding some of the increasing points x.

    Per orbit of _orbits this yields its domain component, the indices of
    its points, increasing table nodes (tail edges toward the lower end, the
    points, tail edges toward the upper end), the clock at the nodes and at
    the points (the integral of 1/X from the first point, which the flow
    advances at unit rate), each point's travel time to the end of its orbit
    forward and backward in time, inf when that end is never reached, and
    those two ends as (end, reach, last) from _tail.  Each travel time is a
    sum of terms of one sign, so it is accurate to rounding relative to
    itself.
    """
    for component, idx, p, lower, upper in _orbits(field, x, segments):
        lo, left, clock_lo, reach_lo, last_lo = lower
        hi, right, clock_hi, reach_hi, last_hi = upper
        gaps = _travel_time(field, p[:-1], p[1:])
        s = np.concatenate([[0.0], np.cumsum(gaps)])
        to_lo = abs(reach_lo) + np.abs(s)
        to_hi = abs(reach_hi) + np.abs(np.append(np.cumsum(gaps[::-1])[::-1], 0.0))
        nodes = np.concatenate([left[::-1], p, right])
        clock = np.concatenate([clock_lo[::-1], s, s[-1] + clock_hi])
        ends = (lo, reach_lo, last_lo), (hi, reach_hi, last_hi)
        if field(p[0]) > 0:
            yield component, idx, nodes, clock, s, to_hi, to_lo, ends[::-1]
        else:
            yield component, idx, nodes, clock, s, to_lo, to_hi, ends


def _times_below(field: VectorField1D, a: np.ndarray, b: np.ndarray, reach: float,
                 limit: float) -> np.ndarray:
    """Travel times from the points of one orbit to one of its ends, where
    they are below limit, and inf where they are not.

    The points are numbered from that end inward, the gap between the
    points j and j + 1 runs from a[j] to b[j], and reach is the end's from
    _tail.  A time is |reach| plus the magnitude of the running sum of the
    gaps, bit for bit as _orbit_tables forms it.  The gaps are integrated
    from the end inward a _TRAVEL_CHUNK at a time, and the scan stops at the
    first time that is not below limit: 1/X keeps one sign on an orbit, so
    the times grow inward.  Toward an end that is never reached no gap is
    integrated.
    """
    times = np.full(a.size + 1, math.inf)
    reach = abs(reach)
    if not reach < limit:
        return times
    times[0], carry = reach, 0.0
    for start in range(0, a.size, _TRAVEL_CHUNK):
        stop = min(start + _TRAVEL_CHUNK, a.size)
        gaps = _travel_time(field, a[start:stop], b[start:stop])
        s = np.cumsum(np.concatenate([[carry], gaps]))
        block = reach + np.abs(s[1:])
        below = block < limit
        if not below.all():
            first = int(np.argmin(below))
            times[start + 1:start + 1 + first] = block[:first]
            break
        times[start + 1:stop + 1] = block
        carry = s[-1]
    return times


def _invert(field: VectorField1D, nodes: np.ndarray, clock: np.ndarray,
            target: np.ndarray) -> np.ndarray:
    """Points x with clock(x) = target, where the clock is the integral of
    1/X tabulated at the increasing nodes: Newton steps on d clock/dx = 1/X,
    clamped to the bracketing cell, from a first guess linear in the clock.
    Targets outside the table give nan."""
    sign = 1.0 if clock[-1] > clock[0] else -1.0
    q = sign * target
    j = np.clip(np.searchsorted(sign * clock, q) - 1, 0, nodes.size - 2)
    lo, hi = nodes[j], nodes[j + 1]
    rel = target - clock[j]
    with np.errstate(over="ignore"):  # targets off the table: replaced by nan
        x = lo + (hi - lo) * (rel / (clock[j + 1] - clock[j]))
    inside = (q >= sign * clock[0]) & (q <= sign * clock[-1])
    x[~inside] = np.nan
    todo = np.flatnonzero(inside)
    for _ in range(60):
        if todo.size == 0:
            break
        xt = x[todo]
        resid = _travel_time(field, lo[todo], xt) - rel[todo]
        # Newton's error e contracts to (X'/2X) e^2 with e = resid * X,
        # so below |resid X'| = 1e-8 this step lands at rounding and is
        # the point's last.
        settled = np.abs(resid * field.derivative(xt)) <= 1e-8
        x[todo] = np.clip(xt - resid * field(xt), lo[todo], hi[todo])
        todo = todo[~settled]
    return x


def _flow_map(field: VectorField1D, x: np.ndarray, t: float,
              segments: int = _TAIL_SEGMENTS):
    """G_t at the increasing points x, its derivative dG_t/dx, and each
    point's travel time to the end of its orbit in the direction of t.
    ``segments`` tail segments per orbit end bound how far G_t can reach.

    G_t(x) is the point whose travel time from x is t, and its derivative is
    X(G_t(x))/X(x), or exp(t X'(x)) at a zero of X.  G_t is nan where the
    trajectory ends before |t|, and outside the domain.
    """
    fixed = field(x) == 0.0
    y = np.where(fixed, x, np.nan)
    t_end = np.full(x.size, math.inf)
    for _, idx, nodes, clock, s, t_fwd, t_bwd, _ in _orbit_tables(field, x, segments):
        t_end[idx] = t_fwd if t > 0 else t_bwd
        go = t_end[idx] > abs(t)
        y[idx[go]] = _invert(field, nodes, clock, s[go] + t)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = field(y) / field(x)
    jac[fixed] = np.exp(t * field.derivative(x[fixed]))
    return y, jac, t_end


def integrate_flow(field: VectorField1D, x0: float, t: float) -> FlowResult:
    """The flow from x0 for time t, from travel times (see the module notes).

    A trajectory whose travel time to the end of its orbit is at most |t|
    is flagged escaped, with that time, signed like t, as t_reached: its
    exact blow-up time (to rounding).  A finite domain edge ends the orbit
    like +-inf does.  An endpoint beyond the default travel-time table
    (about 2^200 max(1, |x0|) from x0, or within 2^-200 of an orbit end) is
    looked up again on a table that runs to the end of the float range, so
    only an endpoint that float64 cannot hold, or where X overflows or is
    below the normal floats, is refused.
    """
    field.component_of(x0)
    if t == 0.0:
        return FlowResult(0.0, x0, False)
    for segments in (_TAIL_SEGMENTS, _FLOAT_TAIL_SEGMENTS):
        y, _, t_end = _flow_map(field, np.array([float(x0)]), t, segments)
        if t_end[0] <= abs(t):
            tau = math.copysign(float(t_end[0]), t)
            return FlowResult(tau, None, True)
        if not math.isnan(y[0]):
            return FlowResult(t, float(y[0]), False)
    raise InvalidParameter(
        f"G_t({x0:g}) for t = {t:g} lies beyond the float64 range or where "
        "X overflows or is below the normal floats")


# --------------------------------------------------------------------------
# Completeness classification

class FlowVerdict(enum.Enum):
    COMPLETE = "Complete"
    PLUGGABLE_INCOMPLETE = "PluggableIncomplete"
    INCURABLE = "Incurable"
    HALF_LINE_INCOMPLETE = "HalfLineIncomplete"


class ProbeSpec(_Record):
    """Probe ensemble for the escape diagnostics of a classification."""

    interval: tuple[float, float] = (-10.0, 10.0)
    count: int = 2048
    t_probe: float = 4.0


class EscapeSample(_Record):
    start: float
    direction: int
    t_escape: float


class FlowClass(_Record):
    """Completeness verdict with its deficiency indices and probe diagnostics.

    ``n_plus`` and ``n_minus`` count the orbit ends of the domain reached in
    finite time forward and backward; the verdict is read from them alone.
    ``lost_mass_fraction`` is the larger of the two directional escape
    fractions of the probes and ``gap_measure`` the smaller; by the coverage
    duality of 1-D flows the reverse-direction escape fraction is exactly
    the fraction of the probe window missed by the forward image.
    ``invariant_components`` counts the domain components that hold probes.
    """

    verdict: FlowVerdict
    lost_mass_fraction: float
    gap_measure: float
    invariant_components: int
    forward_escape_fraction: float
    backward_escape_fraction: float
    n_plus: int
    n_minus: int
    escape_samples: tuple[EscapeSample, ...] = ()


def classify_flow(field: VectorField1D, probes: ProbeSpec = ProbeSpec()) -> FlowClass:
    """Classify the completeness of a field from the ends of its orbits.

    An orbit end is reached in finite time when the integral of 1/X to it
    converges (see _tail).  With n+ and n- the ends reached forward and
    backward over the whole domain, the verdict is Complete when
    n+ = n- = 0; HalfLineIncomplete when two or more domain components each
    reach ends in one direction of time only; Incurable when n+ != n-; and
    PluggableIncomplete otherwise.  An undecided end raises
    InconclusiveClassification.  The probes, a midpoint grid over the probe
    interval, are diagnostics only: a probe escapes in a direction of time
    when its travel time to the end of its orbit is below t_probe.  Only
    those times are computed (see _times_below): none toward an end that is
    never reached, and toward a reached end the gaps between probes only
    until a probe's time is no longer below t_probe.  The results are bit
    for bit those of the whole travel-time tables.  Deterministic for a
    fixed ProbeSpec.
    """
    a, b = sorted(probes.interval)
    step = (b - a) / probes.count
    grid = a + step * (np.arange(probes.count) + 0.5)
    # A probe within rounding of a domain edge is dropped like one on it; it
    # would escape through the edge at once.
    lo, hi = np.array(field.domain, dtype=float).T
    slack = 4.0 * np.spacing(max(abs(a), abs(b)))
    inside = (grid[:, None] > lo + slack) & (grid[:, None] < hi - slack)
    keep = inside.any(axis=1)
    grid = grid[keep]
    if grid.size == 0:
        raise OutOfDomain("no probe points fall inside the field's domain")
    # Where X underflows to 0 or overflows, the orbit tables would take a
    # probe for a fixed point or a blow-up and give a wrong verdict.
    xv = field(grid)
    bad = ((xv == 0.0) | ~np.isfinite(xv)) & ~np.isin(grid, field.zeros)
    if bad.any():
        raise InvalidParameter(
            f"field {field.label!r} is {xv[bad][0]:g} at the probe "
            f"{grid[bad][0]:g}, which is not a declared zero: X is not "
            "representable in float64 on this probe window")
    # A trajectory that reaches a finite edge has escaped, so a probe that
    # survives stays in its component: each one holding probes is invariant.
    invariant_components = int(np.count_nonzero(inside.any(axis=0)))

    t_esc = np.full((2, grid.size), math.inf)   # [direction, probe]
    reached = [[0, 0] for _ in field.domain]   # [component][direction]
    for comp, idx, p, *tails in _orbits(field, grid, every_orbit=True):
        ends = [(end, reach, last) for end, _, _, reach, last in tails]
        # X of one sign on the probes makes their times grow inward; with an
        # undeclared zero among them every gap is integrated.
        limit = probes.t_probe if np.all(xv[idx] > 0) or np.all(xv[idx] < 0) else math.inf
        times = [_times_below(field, p[:-1], p[1:], ends[0][1], limit),
                 _times_below(field, p[-2::-1], p[:0:-1], ends[1][1], limit)[::-1]]
        if field(p[0]) > 0:  # forward in time is toward the upper end
            ends, times = ends[::-1], times[::-1]
        if idx.size:
            t_esc[:, idx] = times
        for direction, end in enumerate(ends):
            reached[comp][direction] += _reached(*end)
    esc = t_esc < probes.t_probe
    esc_f, esc_b = (float(np.count_nonzero(e) / grid.size) for e in esc)
    samples = tuple(EscapeSample(float(grid[i]), direction, float(t_esc[di, i]))
                    for di, direction in enumerate((+1, -1))
                    for i in np.flatnonzero(esc[di])[:8])

    n_plus, n_minus = map(sum, zip(*reached))
    if n_plus == n_minus == 0:
        verdict = FlowVerdict.COMPLETE
    elif len(reached) >= 2 and all((fwd > 0) != (bwd > 0) for fwd, bwd in reached):
        verdict = FlowVerdict.HALF_LINE_INCOMPLETE
    elif n_plus != n_minus:
        verdict = FlowVerdict.INCURABLE
    else:
        verdict = FlowVerdict.PLUGGABLE_INCOMPLETE
    return FlowClass(verdict, max(esc_f, esc_b), min(esc_f, esc_b),
                     invariant_components, esc_f, esc_b, n_plus, n_minus, samples)


# --------------------------------------------------------------------------
# Straightening coordinate

class StraightenResult(_Record):
    """Monotone chart s(x) in which the field becomes d/ds, on the orbit of
    x_ref: s is the integral of 1/X from x_ref."""

    s_of_x: Callable
    x_of_s: Callable
    global_chart: bool


def straighten(field: VectorField1D, x_ref: float) -> StraightenResult:
    """Solve ds/dx = 1/X with s(x_ref) = 0 on the orbit of x_ref.

    The chart is that orbit's travel-time table (see _orbit_tables): x_ref
    and the tail edges toward both orbit ends, which halve toward a finite
    end and double toward +-inf, with s summed outward from x_ref.  s_of_x
    adds the quadrature from the bracketing node, so it is accurate to
    rounding rather than to the table resolution; x_of_s takes Newton steps
    inside the bracketing cell.  ``global_chart`` is True when s maps the
    orbit onto all of R: neither end is reached in finite time.  A zero of X
    at x_ref or at a table node, or a sign change across the nodes where X
    is finite, raises ZeroFieldValue: an undeclared zero gives no chart.
    """
    field.component_of(x_ref)
    if x_ref in field.zeros:
        raise ZeroFieldValue(f"field {field.label!r} vanishes at x_ref = {x_ref}")
    (_, _, nodes, table_s, _, _, _, ends), = _orbit_tables(
        field, np.array([float(x_ref)]))
    xvals = np.asarray(field(nodes), dtype=float)
    finite = xvals[np.isfinite(xvals)]
    if np.any(xvals == 0.0) or np.any(np.sign(finite) != np.sign(finite[:1])):
        raise ZeroFieldValue(
            f"field {field.label!r} vanishes or changes sign on the orbit of {x_ref}")
    span = (float(nodes[0]), float(nodes[-1]))

    def s_of_x(x):
        xs = np.asarray(x, dtype=float)
        outside = (xs < span[0]) | (xs > span[1])
        if np.any(outside):
            raise InvalidParameter(f"{xs[outside][0]} outside the tabulated span {span}")
        j = np.clip(np.searchsorted(nodes, xs) - 1, 0, nodes.size - 2)
        s = table_s[j] + _travel_time(field, nodes[j], xs)
        return float(s) if s.ndim == 0 else s

    s_min, s_max = sorted((table_s[0], table_s[-1]))

    def x_of_s(s):
        ss = np.asarray(s, dtype=float)
        flat = ss.ravel()
        outside = (flat < s_min) | (flat > s_max)
        if np.any(outside):
            raise InvalidParameter(f"{flat[outside][0]} outside the tabulated chart range")
        x = _invert(field, nodes, table_s, flat)
        return float(x[0]) if ss.ndim == 0 else x.reshape(ss.shape)

    global_chart = not any(_reached(*end) for end in ends)
    return StraightenResult(s_of_x, x_of_s, global_chart)


# --------------------------------------------------------------------------
# Transport, generator, plugged transport

def transport(psi: WaveFunction, field: VectorField1D, t: float,
              ) -> "tuple[WaveFunction, TransformReport]":
    """Unitary drag of a wave function along the flow of a complete field.

    (G_t psi)(x) = psi(G_{-t}(x)) sqrt|G'_{-t}(x)|: the pull-back point
    inverts the travel time, and its Jacobian is X(G_{-t}(x))/X(x).  A bump
    at x0 ends up at G_t(x0).  The field is classified with the default
    ProbeSpec, and one that is not Complete raises NotComplete.
    """
    verdict = classify_flow(field).verdict
    if verdict is not FlowVerdict.COMPLETE:
        raise NotComplete(
            f"field {field.label!r} classified {verdict.value}; "
            "transport would not be unitary")
    return _drag(psi, t, lambda x: (*_flow_map(field, x, -t)[:2], None))


def _drag(psi: WaveFunction, t: float, pull_back, plug_phase: float = 0.0,
          ) -> "tuple[WaveFunction, TransformReport]":
    """psi(y) sqrt|jac| at the grid points x, with (y, jac, replug) =
    pull_back(x), and the norm report: the drag that transport and
    pluggable_transport share.  At t = 0 it is a copy of psi.  Points whose
    pull-back y is not finite get 0, and the points of the mask replug (None
    for none) take the phase exp(i plug_phase)."""
    from .resample import interpolate
    from .transforms import TransformReport
    vals = psi.values
    if t != 0.0:
        x = psi.grid.points
        pullback, jac, replug = pull_back(x)
        vals = np.zeros(len(x), dtype=np.complex128)
        ok = np.isfinite(pullback)
        pulled = interpolate(x, psi.values, pullback[ok])
        vals[ok] = pulled * np.sqrt(np.abs(jac[ok]))
        if replug is not None:
            vals = np.where(replug, vals * np.exp(1j * plug_phase), vals)
    out = psi.with_values(vals)
    return out, TransformReport.between(psi, out)


_TAIL_BAND = 0.10  # outermost fraction of spectral bins checked for roughness


def lie_derivative(psi: WaveFunction, field: VectorField1D) -> WaveFunction:
    """Half-density Lie derivative (1/2)(X psi' + (X psi)').

    Derivatives are spectral.  The quantized observable acts as
    (hbar/i) times this, see ``apply_generator``.  Inputs must be smooth on
    the grid scale; a spectral tail above 1e-8 of the power raises RoughInput.
    """
    v = psi.values
    spec = np.fft.fft(v)
    n = len(v)
    freq_idx = np.abs(np.fft.fftfreq(n))
    tail = freq_idx >= 0.5 * (1.0 - _TAIL_BAND)
    power = np.abs(spec) ** 2
    total = power.sum()
    if total > 0.0 and power[tail].sum() > 1e-8 * total:
        raise RoughInput(
            "wave function has significant power in the outer spectral band; "
            "spectral differentiation would be unreliable")

    x = psi.points
    xvals = np.asarray(field(x), dtype=float)
    finite = np.isfinite(xvals)
    xv = np.where(finite, xvals, 0.0)

    dv = spectral_derivative(v, psi.grid.step)
    term1 = np.where(finite, xv * dv, 0.0)
    term2 = spectral_derivative(np.where(finite, xv * v, 0.0), psi.grid.step)
    return psi.with_values(0.5 * (term1 + term2))


def apply_generator(psi: WaveFunction, field: VectorField1D) -> WaveFunction:
    """The symmetric operator (hbar/i)(X d/dx + (1/2) X') applied to psi.

    Symmetry holds for every real field; whether the operator is essentially
    self-adjoint is decided separately by ``classify_flow``.
    """
    lie = lie_derivative(psi, field)
    return lie.with_values(-1j * psi.params.hbar * lie.values)


_PLUG_PROBES = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def pluggable_transport(psi: WaveFunction, field: VectorField1D, t: float,
                        plug_phase: float,
                        ) -> "tuple[WaveFunction, TransformReport]":
    """Norm-preserving but non-unique transport for the quadratic field.

    The time-t flow map x -> x/(1 - t x), read as a measurable bijection of
    the line, re-injects the mass that blows up past the pole into the region
    the regular flow never reaches.  The re-entrant branch may carry an
    arbitrary constant phase, so each plug_phase defines a different unitary
    extension of the same symmetric generator.

    Only the quadratic form X = x^2 is supported; the loss/gap matching is
    specific to its single-pole flow.  The field is classified with the
    default ProbeSpec, and must be PluggableIncomplete.
    """
    probe_vals = np.asarray(field(_PLUG_PROBES), dtype=float)
    if not np.allclose(probe_vals, _PLUG_PROBES**2, rtol=1e-9, atol=1e-12):
        raise NotPluggable("plugged transport is implemented for X = x^2 only")
    verdict = classify_flow(field).verdict
    if verdict is not FlowVerdict.PLUGGABLE_INCOMPLETE:
        raise NotPluggable(f"field classified {verdict.value}, not PluggableIncomplete")

    def pull_back(x):  # G_{-t}(x) = x / (1 + t x); past the pole it re-enters
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = 1.0 + t * x
            return x / denom, 1.0 / denom**2, denom < 0.0

    return _drag(psi, t, pull_back, plug_phase)
