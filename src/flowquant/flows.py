"""Transport flows of 1-D vector fields and the quantization they induce.

An observable linear in momentum, f = X(x) p, generates the flow
dx/dt = X(x).  When every trajectory exists for all times (the field is
complete) the induced drag of wave functions is unitary and its generator is
the unique self-adjoint quantization of f; when trajectories blow up in
finite time the symmetric operator (hbar/2i)(X d/dx + d/dx X) has either many
self-adjoint extensions or none.  This module integrates the flows, measures
completeness with probe ensembles, transports wave functions with the
half-density Jacobian factor, applies the generator, and implements the
phase-ambiguous "plugged" transport for the quadratic field where escaping
and starving regions happen to match.

Key conventions:

* ``transport`` drags the packet along the field: a bump at x0 moves to
  G_t(x0).  Its time derivative at t = 0 is therefore the *negative* of
  ``lie_derivative`` (which differentiates the pull-back family).
* completeness verdicts come from escape statistics of probe trajectories;
  the coverage gap of the time-t flow map equals, in one dimension, the
  escape fraction of the reverse-time run (a point is missed by the forward
  image exactly when its backward trajectory blows up).  Direct interval
  coverage of the probe window is unreliable for contracting complete flows,
  so the reverse-run identity is what the classifier reports.

Every flow runs on one numpy Dormand-Prince stepper (``integrate_ensemble``),
and every travel-time integral of 1/X on composite Gauss-Legendre panels.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (InconclusiveClassification, IntegrationFailure,
                     InvalidParameter, NotComplete, NotPluggable, OutOfDomain,
                     RoughInput, ZeroFieldValue)
from .grids import (WaveFunction, gauss_panels, norm_squared,
                    spectral_derivative)
from .resample import resample_complex
from .transforms import TransformReport

_FULL_LINE = ((-math.inf, math.inf),)


@dataclass(frozen=True)
class VectorField1D:
    """Scalar field X over one coordinate, the object being quantized.

    ``domain`` is a tuple of open intervals; trajectories cannot cross the
    gaps between them.  ``deriv`` is the closed-form derivative when known,
    otherwise a central difference is used.
    """

    func: Callable
    deriv: Callable | None = None
    domain: tuple[tuple[float, float], ...] = _FULL_LINE
    label: str = ""

    def __call__(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.func(x)

    def derivative(self, x):
        if self.deriv is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                return self.deriv(x)
        h = 1e-6 * (1.0 + np.abs(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.func(x + h) - self.func(x - h)) / (2.0 * h)

    def component_of(self, x: float) -> tuple[float, float]:
        for a, b in self.domain:
            if a < x < b:
                return (a, b)
        raise OutOfDomain(f"{x} is not inside the domain of field {self.label!r}")


def constant_field(value: float = 1.0) -> VectorField1D:
    return VectorField1D(lambda x: np.full_like(np.asarray(x, dtype=float), value),
                         lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                         label=f"const({value:g})")


def linear_field() -> VectorField1D:
    """X(x) = x, the generator of homotheties."""
    return VectorField1D(lambda x: np.asarray(x, dtype=float),
                         lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         label="x")


def quadratic_field() -> VectorField1D:
    """X(x) = x^2; trajectories blow up in finite time 1/x0."""
    return VectorField1D(lambda x: np.asarray(x, dtype=float) ** 2,
                         lambda x: 2.0 * np.asarray(x, dtype=float),
                         label="x^2")


def cubic_field() -> VectorField1D:
    """X(x) = x^3; blow-up with no matching starved region."""
    return VectorField1D(lambda x: np.asarray(x, dtype=float) ** 3,
                         lambda x: 3.0 * np.asarray(x, dtype=float) ** 2,
                         label="x^3")


_HALF_LINES = ((-math.inf, 0.0), (0.0, math.inf))


def arrival_field(mass: float = 1.0) -> VectorField1D:
    """X(p) = m/p on the punctured momentum line (plain arrival time)."""
    return VectorField1D(lambda p: mass / np.asarray(p, dtype=float),
                         lambda p: -mass / np.asarray(p, dtype=float) ** 2,
                         domain=_HALF_LINES, label="m/p")


def oriented_arrival_field(mass: float = 1.0) -> VectorField1D:
    """X(p) = m/|p| on the punctured momentum line (oriented arrival time)."""
    def f(p):
        p = np.asarray(p, dtype=float)
        return mass / np.abs(p)

    def df(p):
        p = np.asarray(p, dtype=float)
        return -mass * np.sign(p) / p**2

    return VectorField1D(f, df, domain=_HALF_LINES, label="m/|p|")


def straightened_oriented_field() -> VectorField1D:
    """The oriented arrival field expressed in its flow coordinate.

    In the signed-kinetic-energy variable s = sgn(p) p^2/(2m) the two
    momentum half-axes glue into a single line and the field becomes the unit
    translation field, which is complete.
    """
    f = constant_field(1.0)
    return VectorField1D(f.func, f.deriv, label="m/|p| straightened")


# --------------------------------------------------------------------------
# Single-trajectory integration

@dataclass(frozen=True)
class FlowResult:
    """Outcome of integrating dx/dt = X(x) from one initial point."""

    start: float
    t_requested: float
    t_reached: float
    endpoint: float | None
    escaped: bool
    escape_time_estimate: float | None = None


def _panel_time(field: VectorField1D, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Travel time, the integral of 1/X, across each panel [lo, hi]."""
    nodes, weights = gauss_panels(lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(weights / field(nodes), axis=-1)


_SPLIT_TOL = 1e-14   # relative agreement of a panel with its two halves
_MAX_PANELS = 256    # live panels per integral before they are taken as is
_TRAVEL_CHUNK = 4096  # integrals per pass, to bound the memory


def _travel_time(field: VectorField1D, a, b) -> np.ndarray:
    """Integral of 1/X from a to b, elementwise, on Gauss-Legendre panels
    halved until their halves agree: a 1/X that blows up just beyond an end
    or peaks between the ends is resolved to rounding.  Non-finite panels
    are not split; they make the result non-finite."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    out = np.zeros(a.size)
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


_TAIL_SEGMENTS = 200


def _tail_time(field: VectorField1D, x_from: float, direction: int,
               target: float) -> float | None:
    """Remaining travel time from x_from to target (may be +-inf) along the flow.

    Integrates dxi / (direction * X(xi)) over doubling segments (halving ones
    toward a finite target) and stops at the first segment that no longer
    adds to the total; returns None when the integral diverges, i.e. the
    point is never reached.  Halving segments that round onto the target
    sample 1/X there, so a zero of X at the target counts as divergence.
    """
    if math.isinf(target):
        edges = [x_from]
        for _ in range(_TAIL_SEGMENTS):
            edges.append(edges[-1] + math.copysign(max(1.0, abs(edges[-1])), target))
        edges = np.array(edges)
    else:
        edges = target + (x_from - target) * 0.5 ** np.arange(_TAIL_SEGMENTS + 1)
    seg = direction * _travel_time(field, edges[:-1], edges[1:])
    total = np.cumsum(seg)
    diverged = ~np.isfinite(total) | (np.abs(total) > 1e9)
    settled = np.abs(seg) < 1e-13 * (1.0 + np.abs(total))
    stop = np.flatnonzero(diverged | settled)
    if stop.size == 0 or diverged[stop[0]]:
        return None
    return abs(float(total[stop[0]]))


def _flow_rhs(field: VectorField1D, direction: int) -> Callable:
    """dx/dt = direction * X(x) on integrate_ensemble's (m, 1) states."""
    return lambda y: direction * np.asarray(field(y[:, 0]), dtype=float)[:, None]


_FLOW_RTOL, _FLOW_ATOL = 1e-10, 1e-12  # tighter than the classifier's


def integrate_flow(field: VectorField1D, x0: float, t: float,
                   escape_radius: float = 1e6) -> FlowResult:
    """Adaptive integration of the flow with escape detection.

    One probe of ``integrate_ensemble`` at relative tolerance 1e-10.  If |x|
    crosses the escape radius before time t, the result is flagged escaped
    and the blow-up time is estimated by adding the residual travel time
    beyond the last step; a trajectory that reaches a finite domain boundary
    is flagged escaped at the time it gets there.
    """
    comp = field.component_of(x0)
    if escape_radius <= abs(x0):
        raise InvalidParameter("escape_radius must exceed |x0|")
    if t == 0.0:
        return FlowResult(x0, 0.0, 0.0, x0, False)

    direction = 1 if t > 0 else -1
    bounds = tuple(b for b in comp if math.isfinite(b))
    res = integrate_ensemble(_flow_rhs(field, direction), np.array([x0]),
                             abs(t), escape_radius, bounds,
                             rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
    if res.status[0] == DONE:
        return FlowResult(x0, t, t, float(res.state[0, 0]), False)
    tau = float(res.t_event[0])
    if res.status[0] == ESCAPED:
        x_last = float(res.state[0, 0])
        tail = _tail_time(field, x_last, direction, math.copysign(math.inf, x_last))
        estimate = None if tail is None else direction * (float(res.t_reached[0]) + tail)
    else:
        estimate = direction * tau
    return FlowResult(x0, t, direction * tau, None, True, estimate)


# --------------------------------------------------------------------------
# Vectorized ensemble integrator (Dormand-Prince 5(4), per-probe step control)

_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                   -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
_DP_B4 = np.array([5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
                   -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0])

RUNNING, DONE, ESCAPED, BOUNDARY = 0, 1, 2, 3


@dataclass
class EnsembleResult:
    state: np.ndarray     # (n, d) final states
    t_reached: np.ndarray  # (n,)
    status: np.ndarray    # (n,) DONE / ESCAPED / BOUNDARY
    t_event: np.ndarray   # (n,) event times, nan where none


def integrate_ensemble(f: Callable, y0: np.ndarray, t_end: float,
                       escape_radius: float,
                       boundaries: tuple[float, ...] = (),
                       rtol: float = 1e-8, atol: float = 1e-11,
                       h_floor: float = 1e-14,
                       max_iter: int = 100_000) -> EnsembleResult:
    """Integrate independent trajectories with individual adaptive steps.

    ``f`` maps states (m, d) -> derivatives (m, d); escape and boundary
    crossings are detected on component 0.  Trajectories whose step size
    underflows against a finite boundary (fields diverging there) are
    absorbed as boundary hits.  Pure numpy, deterministic.
    """
    y = np.array(y0, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n, d = y.shape
    t = np.zeros(n)
    status = np.full(n, RUNNING, dtype=np.int8)
    t_event = np.full(n, np.nan)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f0 = np.asarray(f(y), dtype=float)
    scale0 = atol + rtol * np.abs(y[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.minimum(t_end / 100.0, 0.1 * scale0 / (np.abs(f0[:, 0]) + 1e-300))
    h = np.clip(np.where(np.isfinite(h), h, t_end / 100.0), h_floor, t_end)

    bnds = np.array(boundaries, dtype=float)

    for _ in range(max_iter):
        act = np.flatnonzero(status == RUNNING)
        if act.size == 0:
            break
        ya = y[act]
        ha = np.minimum(h[act], t_end - t[act])

        k = np.empty((7, act.size, d))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k[0] = f(ya)
            for i in range(1, 7):
                incr = sum(aij * k[j] for j, aij in enumerate(_DP_A[i]))
                k[i] = f(ya + ha[:, None] * incr)
            y5 = ya + ha[:, None] * np.tensordot(_DP_B5, k, axes=(0, 0))
            y4 = ya + ha[:, None] * np.tensordot(_DP_B4, k, axes=(0, 0))
            scale = atol + rtol * np.maximum(np.abs(ya), np.abs(y5))
            enorm = np.max(np.abs(y5 - y4) / scale, axis=1)
        enorm = np.where(np.isfinite(enorm) & np.all(np.isfinite(y5), axis=1),
                         enorm, np.inf)

        accept = enorm <= 1.0
        with np.errstate(divide="ignore"):
            factor = np.clip(0.9 * enorm**-0.2, 0.2, 5.0)
        factor = np.where(np.isfinite(factor), factor, 0.2)

        idx_acc = act[accept]
        if idx_acc.size:
            x_prev = y[idx_acc, 0]
            t_prev = t[idx_acc]
            h_used = ha[accept]
            y[idx_acc] = y5[accept]
            t[idx_acc] = t_prev + h_used
            x_new = y[idx_acc, 0]

            esc = np.abs(x_new) >= escape_radius
            if np.any(esc):
                sub = idx_acc[esc]
                frac = (escape_radius - np.abs(x_prev[esc])) / (
                    np.abs(x_new[esc]) - np.abs(x_prev[esc]))
                t_event[sub] = t_prev[esc] + np.clip(frac, 0.0, 1.0) * h_used[esc]
                status[sub] = ESCAPED
            for b in bnds:
                crossed = ((x_prev - b) * (x_new - b) <= 0.0) & (status[idx_acc] == RUNNING)
                if np.any(crossed):
                    sub = idx_acc[crossed]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        frac = (b - x_prev[crossed]) / (x_new[crossed] - x_prev[crossed])
                    frac = np.where(np.isfinite(frac), frac, 0.5)
                    t_event[sub] = t_prev[crossed] + np.clip(frac, 0.0, 1.0) * h_used[crossed]
                    status[sub] = BOUNDARY
            done = (t[idx_acc] >= t_end * (1.0 - 1e-15)) & (status[idx_acc] == RUNNING)
            status[idx_acc[done]] = DONE

        h[act] = np.maximum(ha * factor, h_floor)

        stalled = act[(~accept) & (ha <= h_floor * 1.001)]
        for i in stalled:
            near = bnds[np.abs(y[i, 0] - bnds) <= 1e-3 * (1.0 + np.abs(bnds))] \
                if bnds.size else np.array([])
            if near.size:
                status[i] = BOUNDARY
                t_event[i] = t[i]
            else:
                raise IntegrationFailure(
                    f"ensemble integration stalled at x = {y[i, 0]} away from any boundary")
    else:
        raise IntegrationFailure(
            f"ensemble integration exceeded its budget of {max_iter} iterations")

    return EnsembleResult(y, t, status, t_event)


# --------------------------------------------------------------------------
# Completeness classification

class FlowVerdict(enum.Enum):
    COMPLETE = "Complete"
    PLUGGABLE_INCOMPLETE = "PluggableIncomplete"
    INCURABLE = "Incurable"
    HALF_LINE_INCOMPLETE = "HalfLineIncomplete"


@dataclass(frozen=True)
class ProbeSpec:
    """Probe ensemble for completeness classification."""

    interval: tuple[float, float] = (-10.0, 10.0)
    count: int = 2048
    t_probe: float = 4.0
    escape_radius: float = 1e6
    tol: float = 1e-3


@dataclass(frozen=True)
class EscapeSample:
    start: float
    direction: int
    t_escape: float


@dataclass(frozen=True)
class FlowClass:
    """Completeness verdict with its probe diagnostics.

    ``lost_mass_fraction`` is the larger of the two directional escape
    fractions and ``gap_measure`` the smaller; by the coverage duality of 1-D
    flows the reverse-direction escape fraction is exactly the fraction of
    the probe window missed by the forward image.  ``invariant_components``
    counts the domain components that hold probes.
    """

    verdict: FlowVerdict
    lost_mass_fraction: float
    gap_measure: float
    invariant_components: int
    forward_escape_fraction: float
    backward_escape_fraction: float
    escape_samples: tuple[EscapeSample, ...] = ()


def _band_guarded_above(value: float, tol: float, diagnostics: dict,
                        what: str) -> bool:
    if 0.5 * tol < value < 2.0 * tol:
        raise InconclusiveClassification(
            f"{what} = {value:.6g} lies within a factor 2 of the decision "
            f"threshold {tol:g}; refusing to guess", diagnostics)
    return value > tol


def classify_flow(field: VectorField1D, probes: ProbeSpec = ProbeSpec()) -> FlowClass:
    """Classify the completeness of a field from probe trajectories.

    Probes on a midpoint grid over the probe interval are integrated forward
    and backward for t_probe.  Escapes (through the radius or into a finite
    domain boundary) measure the lost mass per direction; the reverse
    direction's escapes measure the coverage gap.  Deterministic for a fixed
    ProbeSpec.
    """
    a, b = probes.interval
    if probes.escape_radius <= max(abs(a), abs(b)):
        raise InvalidParameter(
            f"escape_radius {probes.escape_radius:g} must exceed |x| on the "
            f"probe interval [{a:g}, {b:g}]")
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
    held, comp_of_probe = np.unique(inside[keep].argmax(axis=1),
                                    return_inverse=True)
    # Every finite edge absorbs the trajectories that reach it, so a probe
    # that survives stays in its component: each component holding probes is
    # invariant.
    invariant_components = held.size
    n_total = grid.size

    edges = np.unique(field.domain)
    edges = tuple(edges[np.isfinite(edges)])
    runs = [integrate_ensemble(_flow_rhs(field, direction), grid[:, None],
                               probes.t_probe, probes.escape_radius,
                               boundaries=edges) for direction in (+1, -1)]
    esc = np.array([res.status != DONE for res in runs])   # [direction, probe]
    t_esc = np.array([res.t_event for res in runs])

    esc_f = float(np.count_nonzero(esc[0]) / n_total)
    esc_b = float(np.count_nonzero(esc[1]) / n_total)
    lost = max(esc_f, esc_b)
    gap = min(esc_f, esc_b)

    samples = tuple(EscapeSample(float(grid[i]), direction, float(t_esc[di, i]))
                    for di, direction in enumerate((+1, -1))
                    for i in np.flatnonzero(esc[di])[:8])

    diagnostics = {
        "forward_escape_fraction": esc_f,
        "backward_escape_fraction": esc_b,
        "invariant_components": invariant_components,
        "tol": probes.tol,
    }

    def build(verdict):
        return FlowClass(verdict, lost, gap, invariant_components,
                         esc_f, esc_b, samples)

    any_f = _band_guarded_above(esc_f, probes.tol, diagnostics, "forward escape fraction")
    any_b = _band_guarded_above(esc_b, probes.tol, diagnostics, "backward escape fraction")
    if not any_f and not any_b:
        return build(FlowVerdict.COMPLETE)

    if invariant_components >= 2:
        per_comp = np.bincount(comp_of_probe)
        f_c = np.bincount(comp_of_probe, weights=esc[0]) / per_comp
        b_c = np.bincount(comp_of_probe, weights=esc[1]) / per_comp
        one_sided = [
            _band_guarded_above(float(f_c[ci]), probes.tol, diagnostics,
                                f"component {ci} forward escapes")
            != _band_guarded_above(float(b_c[ci]), probes.tol, diagnostics,
                                   f"component {ci} backward escapes")
            for ci in range(invariant_components)]
        if all(one_sided):
            return build(FlowVerdict.HALF_LINE_INCOMPLETE)

    if not _band_guarded_above(gap, probes.tol, diagnostics, "coverage gap"):
        return build(FlowVerdict.INCURABLE)

    mismatch = abs(esc_f - esc_b)
    if mismatch <= max(0.05 * lost, 4.0 / n_total):
        return build(FlowVerdict.PLUGGABLE_INCOMPLETE)
    raise InconclusiveClassification(
        f"lost mass {lost:.4g} and gap {gap:.4g} are both significant but do "
        "not match; no verdict fits", diagnostics)


# --------------------------------------------------------------------------
# Straightening coordinate

@dataclass(frozen=True)
class StraightenResult:
    """Monotone chart s(x) in which the field becomes d/ds."""

    s_of_x: Callable
    x_of_s: Callable
    global_chart: bool
    table_x: np.ndarray
    table_s: np.ndarray


def straighten(field: VectorField1D, x_ref: float,
               span: tuple[float, float] | None = None,
               table_points: int = 1025) -> StraightenResult:
    """Solve ds/dx = 1/X by adaptive Gauss-Legendre quadrature from x_ref.

    The chart is tabulated on ``span`` (default: the domain component clipped
    to x_ref +- 20) and refined by quadrature from a table node on
    evaluation, so s_of_x is accurate to rounding rather than to the table
    resolution; x_of_s takes Newton steps inside the bracketing table cell.
    ``global_chart`` is True when s maps the component onto all of R, i.e.
    the cumulative time integral diverges toward both ends.
    """
    comp = field.component_of(x_ref)
    if span is None:
        lo = max(comp[0], x_ref - 20.0) if math.isfinite(comp[0]) else x_ref - 20.0
        hi = min(comp[1], x_ref + 20.0) if math.isfinite(comp[1]) else x_ref + 20.0
        if math.isfinite(comp[0]) and lo <= comp[0]:
            lo = comp[0] + 1e-9 * (1.0 + abs(comp[0]))
        if math.isfinite(comp[1]) and hi >= comp[1]:
            hi = comp[1] - 1e-9 * (1.0 + abs(comp[1]))
        span = (lo, hi)
    if not (span[0] <= x_ref <= span[1]):
        raise ValueError("x_ref must lie inside the tabulation span")

    nodes = np.linspace(span[0], span[1], table_points)
    xvals = np.asarray(field(nodes), dtype=float)
    if np.any(~np.isfinite(xvals)) or np.any(xvals == 0.0) or \
            np.any(np.sign(xvals) != np.sign(xvals[0])):
        raise ZeroFieldValue(
            f"field {field.label!r} vanishes or changes sign inside the span")

    seg = _travel_time(field, nodes[:-1], nodes[1:])

    def start_node(x):
        return np.clip(np.searchsorted(nodes, x) - 1, 0, table_points - 2)

    # Summed outward from x_ref, so that a long end cell (1/X blowing up at
    # the boundary) does not swamp the rest of the table in rounding.
    r = int(start_node(x_ref))
    table_s = np.concatenate([-np.cumsum(seg[:r][::-1])[::-1], [0.0],
                              np.cumsum(seg[r:])])
    table_s -= _travel_time(field, nodes[r], x_ref)

    def s_of_x(x):
        xs = np.asarray(x, dtype=float)
        outside = (xs < span[0]) | (xs > span[1])
        if np.any(outside):
            raise ValueError(f"{xs[outside][0]} outside the tabulated span {span}")
        j = start_node(xs)
        s = table_s[j] + _travel_time(field, nodes[j], xs)
        return float(s) if s.ndim == 0 else s

    increasing = table_s[-1] > table_s[0]
    ts = table_s if increasing else -table_s

    def x_of_s(s):
        ss = np.asarray(s, dtype=float)
        flat = ss.ravel()
        q = flat if increasing else -flat
        outside = (q < ts[0]) | (q > ts[-1])
        if np.any(outside):
            raise ValueError(f"{flat[outside][0]} outside the tabulated chart range")
        j = np.clip(np.searchsorted(ts, q) - 1, 0, table_points - 2)
        lo_x, hi_x = nodes[j], nodes[j + 1]
        x = lo_x + (hi_x - lo_x) * (q - ts[j]) / (ts[j + 1] - ts[j])
        todo = np.arange(x.size)
        for _ in range(60):
            xt = x[todo]
            resid = s_of_x(xt) - flat[todo]
            # Newton's error e contracts to (X'/2X) e^2 with e = resid * X,
            # so below |resid X'| = 1e-8 this step lands at rounding and is
            # the point's last.
            settled = np.abs(resid * field.derivative(xt)) <= 1e-8
            x[todo] = np.clip(xt - resid * field(xt), lo_x[todo], hi_x[todo])
            todo = todo[~settled]
            if todo.size == 0:
                break
        return float(x[0]) if ss.ndim == 0 else x.reshape(ss.shape)

    global_chart = all(_tail_time(field, x, 1, end) is None
                       for x, end in zip(span, comp))
    return StraightenResult(s_of_x, x_of_s, global_chart, nodes, table_s)


# --------------------------------------------------------------------------
# Transport, generator, plugged transport

def transport(psi: WaveFunction, field: VectorField1D, t: float,
              flow_class: FlowClass | None = None,
              probe_spec: ProbeSpec | None = None,
              ) -> tuple[WaveFunction, TransformReport]:
    """Unitary drag of a wave function along the flow of a complete field.

    (G_t psi)(x) = psi(G_{-t}(x)) sqrt|G'_{-t}(x)|: the pull-back point and
    its Jacobian come from the flow and its variational equation integrated
    together.  A bump at x0 ends up at G_t(x0).
    """
    if flow_class is None:
        flow_class = classify_flow(field, probe_spec or ProbeSpec())
    if flow_class.verdict is not FlowVerdict.COMPLETE:
        raise NotComplete(
            f"field {field.label!r} classified {flow_class.verdict.value}; "
            "transport would not be unitary")
    norm_in = math.sqrt(norm_squared(psi))
    if t == 0.0:
        return psi.with_values(psi.values), TransformReport.from_norms(norm_in, norm_in)

    direction = -1.0 if t > 0 else 1.0
    tau = abs(t)

    def rhs(state):
        yy = state[:, 0]
        jj = state[:, 1]
        fx = np.asarray(field(yy), dtype=float)
        dfx = np.asarray(field.derivative(yy), dtype=float)
        return np.stack([direction * fx, direction * dfx * jj], axis=1)

    x = psi.grid.points
    state0 = np.stack([x, np.ones_like(x)], axis=1)
    radius = 10.0 * (abs(psi.grid.origin) + psi.grid.span) + 10.0
    res = integrate_ensemble(rhs, state0, tau, radius,
                             rtol=1e-11, atol=1e-13)

    vals = np.zeros(len(x), dtype=np.complex128)
    ok = res.status == DONE
    pulled, residual = resample_complex(x, psi.values, res.state[ok, 0])
    vals[ok] = pulled * np.sqrt(np.abs(res.state[ok, 1]))
    out = psi.with_values(vals)
    report = TransformReport.from_norms(norm_in, math.sqrt(norm_squared(out)), residual)
    return out, report


_TAIL_BAND = 0.10  # outermost fraction of spectral bins checked for roughness


def lie_derivative(psi: WaveFunction, field: VectorField1D,
                   tail_tol: float = 1e-8) -> WaveFunction:
    """Half-density Lie derivative (1/2)(X psi' + (X psi)').

    Derivatives are spectral.  The quantized observable acts as
    (hbar/i) times this, see ``apply_generator``.  Inputs must be smooth on
    the grid scale; a spectral tail above ``tail_tol`` raises RoughInput.
    """
    v = psi.values
    spec = np.fft.fft(v)
    n = len(v)
    freq_idx = np.abs(np.fft.fftfreq(n))
    tail = freq_idx >= 0.5 * (1.0 - _TAIL_BAND)
    power = np.abs(spec) ** 2
    total = power.sum()
    if total > 0.0 and power[tail].sum() > tail_tol * total:
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
                        flow_class: FlowClass | None = None,
                        ) -> tuple[WaveFunction, TransformReport]:
    """Norm-preserving but non-unique transport for the quadratic field.

    The time-t flow map x -> x/(1 - t x), read as a measurable bijection of
    the line, re-injects the mass that blows up past the pole into the region
    the regular flow never reaches.  The re-entrant branch may carry an
    arbitrary constant phase, so each plug_phase defines a different unitary
    extension of the same symmetric generator.

    Only the quadratic form X = x^2 is supported; the loss/gap matching is
    specific to its single-pole flow.
    """
    probe_vals = np.asarray(field(_PLUG_PROBES), dtype=float)
    if not np.allclose(probe_vals, _PLUG_PROBES**2, rtol=1e-9, atol=1e-12):
        raise NotPluggable("plugged transport is implemented for X = x^2 only")
    if flow_class is None:
        flow_class = classify_flow(field)
    if flow_class.verdict is not FlowVerdict.PLUGGABLE_INCOMPLETE:
        raise NotPluggable(
            f"field classified {flow_class.verdict.value}, not PluggableIncomplete")

    norm_in = math.sqrt(norm_squared(psi))
    x = psi.grid.points
    if t == 0.0:
        return psi.with_values(psi.values), TransformReport.from_norms(norm_in, norm_in)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = 1.0 + t * x
        pullback = x / denom
        jac = 1.0 / denom**2
    pulled, residual = resample_complex(x, psi.values, pullback)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = np.where(pulled == 0.0, 0.0, pulled * np.sqrt(np.abs(jac)))
    replug = denom < 0.0
    vals = np.where(replug, vals * np.exp(1j * plug_phase), vals)
    out = psi.with_values(vals)
    report = TransformReport.from_norms(norm_in, math.sqrt(norm_squared(out)), residual)
    return out, report
