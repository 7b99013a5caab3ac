"""Oriented arrival time of a free particle.

The classical arrival time at the plane x = 0 is t = -m x / p; its oriented
variant T = -m x / |p| = sgn(p) t is the observable that survives
quantization.  Both classical observables live in :mod:`flowquant.classical`;
this module holds the quantization.  In the oriented-energy representation
the corresponding operator is (hbar/i) d/ds, so its spectral amplitude is
the Fourier transform of phi~(s) with the -i kernel:

    phi(T) = (2 pi hbar)^(-1/2) integral phi~(s) exp(-i s T / hbar) ds
           = (2 pi hbar)^(-1/2) integral psi~(p) sqrt(|p|/m)
                                 exp(-i sgn(p) p^2 T / (2 m hbar)) dp.

This sign anchors T to the classical observable: a quasiclassical
right-mover started at <x> = -50 with p0 = 2 has its density centered at
T = +25, and free evolution acts as the argument substitution T -> T + t.

Two independent evaluations of this amplitude are provided: a fast
transform-chain path (momentum -> oriented energy -> arrival time) and a
direct oscillatory-quadrature oracle working from the momentum samples.  The
probability density |phi(T)|^2 splits into right-mover, left-mover and
interference parts; the movers' s-supports are disjoint, so the interference
term integrates to zero while remaining visible pointwise.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (IntervalOutOfRange, InvalidParameter, LowMomentumMass,
                     NegativeMomentumLeak, QuadratureNonConvergence,
                     RepMismatch, ZeroWeightComponent)
from .grids import (Grid1D, PhysicalParams, Representation, WaveFunction,
                    _normalized, gauss_panels, moments, norm_squared)
from .transforms import (_momentum_floor, default_oriented_grid,
                         to_arrival_time, to_momentum, to_oriented_energy,
                         to_position)


class Component(enum.Enum):
    TOTAL = "total"
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True, eq=False)
class ArrivalDistribution:
    """Arrival-time density and its mover decomposition.

    total = plus + minus + interference holds pointwise by construction
    (total is the density of the summed amplitude, which is kept as
    ``amplitude``).  w_plus and w_minus are the momentum-space mover weights;
    a mover below 1e-12 of the total weight contributes a zero amplitude.
    """

    grid_T: Grid1D
    total: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    interference: np.ndarray
    w_plus: float
    w_minus: float
    amplitude: np.ndarray

    def __post_init__(self):
        for name in ("total", "plus", "minus", "interference", "amplitude"):
            dtype = np.complex128 if name == "amplitude" else np.float64
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def component(self, which: Component) -> np.ndarray:
        return {Component.TOTAL: self.total, Component.PLUS: self.plus,
                Component.MINUS: self.minus}[which]


def split_movers(psi_tilde: WaveFunction) -> tuple[WaveFunction, WaveFunction]:
    """Right-mover / left-mover decomposition in the momentum representation.

    psi+ keeps the p > 0 samples, psi- the p < 0 samples; an exact p = 0
    sample belongs to neither and must carry at most 1e-10 of mass.  The
    momentum floor of the energy map applies here too (the split feeds that
    map downstream), with the same refusal.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    _momentum_floor(psi_tilde)
    p = psi_tilde.points
    zero = p == 0.0
    zero_mass = float(np.sum(np.abs(psi_tilde.values[zero]) ** 2) * psi_tilde.grid.step)
    if zero_mass > 1e-10:
        raise LowMomentumMass(
            f"the p = 0 sample carries mass {zero_mass:.3e} > 1e-10")
    plus = psi_tilde.with_values(np.where(p > 0.0, psi_tilde.values, 0.0))
    minus = psi_tilde.with_values(np.where(p < 0.0, psi_tilde.values, 0.0))
    return plus, minus


def default_time_grid(psi_tilde: WaveFunction) -> Grid1D:
    """512-point T-grid centered on the classical arrival estimate -m <x> / p0.

    The span is 8 times the classical spread estimate
    m (|<x>| sigma_p / p0^2 + sigma_x / p0), with p0 the mean of |p|, and at
    least 16 m sigma_x / p0.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    m = psi_tilde.params.mass
    x_mean, x_std = moments(to_position(psi_tilde))
    p = psi_tilde.points
    w = np.abs(psi_tilde.values) ** 2
    w_total = w.sum()
    p0 = float(np.sum(np.abs(p) * w) / w_total)
    p_std = float(math.sqrt(np.sum((np.abs(p) - p0) ** 2 * w) / w_total))
    center = -m * x_mean / p0
    span = 8.0 * m * (abs(x_mean) * p_std / p0**2 + x_std / p0)
    span = max(span, 16.0 * m * x_std / p0)
    return Grid1D(center - span / 2.0, span / 512, 512)


def arrival_amplitude_fast(psi_tilde: WaveFunction, grid_T: Grid1D | None = None,
                           s_grid: Grid1D | None = None) -> WaveFunction:
    """Arrival amplitude via the transform chain (the production path)."""
    phi_s, _ = to_oriented_energy(psi_tilde, s_grid=s_grid)
    return to_arrival_time(phi_s, grid_T)


# Each chunk of nodes forms two phase tables and one product of about this
# many complex entries in all (~4 MB), whatever the grid's count.
_TABLE_ENTRIES = 2**18


def _grid_phase_sum(u: np.ndarray, w0: float, dw: float, count: int,
                    coef: np.ndarray, to_grid: bool) -> np.ndarray:
    """Trigonometric sums of exp(i u_j w_k) over the uniform grid
    w_k = w0 + k dw, 0 <= k < count:

        to_grid false: out[j] = sum_k coef[k] exp(i u_j w_k), one per u_j;
        to_grid true:  out[k] = sum_j coef[j] exp(i u_j w_k), one per w_k.

    With k = a B + b and B = ceil(sqrt(count)) each phase factors into
    E1[j, a] = exp(i u_j (w0 + a B dw)) and E2[j, b] = exp(i u_j b dw), so a
    node costs about 2 sqrt(count) exponentials and its share of one matrix
    product instead of count exponentials.  The tables come from numpy's exp,
    so the sums share no code with the transform chain.
    """
    n_b = math.isqrt(count - 1) + 1
    n_a = -(-count // n_b)
    w_a = w0 + (n_b * dw) * np.arange(n_a)
    w_b = dw * np.arange(n_b)
    if to_grid:
        out = np.zeros((n_a, n_b), dtype=np.complex128)
    else:
        out = np.empty(len(u), dtype=np.complex128)
        padded = np.zeros(n_a * n_b, dtype=np.complex128)
        padded[:count] = coef
        coef_ba = padded.reshape(n_a, n_b).T
    rows = max(1, _TABLE_ENTRIES // (2 * n_a + n_b))
    for lo in range(0, len(u), rows):
        iu = 1j * u[lo:lo + rows]
        e1 = np.multiply.outer(iu, w_a)
        np.exp(e1, out=e1)
        e2 = np.multiply.outer(iu, w_b)
        np.exp(e2, out=e2)
        if to_grid:
            e1 *= coef[lo:lo + rows, None]
            out += e1.T @ e2
        else:
            inner = e2 @ coef_ba
            inner *= e1
            out[lo:lo + rows] = inner.sum(axis=1)
    return out.ravel()[:count] if to_grid else out


def _momentum_at(psi_x: WaveFunction, p_nodes: np.ndarray) -> np.ndarray:
    """psi~ at arbitrary momenta from the x-samples: the trigonometric sum
    (2 pi hbar)^(-1/2) dx sum_n psi(x_n) exp(-i p x_n / hbar), which is exact
    for the sampled packet.  ``_grid_phase_sum`` evaluates it from two phase
    tables of about sqrt(N_x) columns per node, so memory stays at a few MB
    for any node count or N_x."""
    grid = psi_x.grid
    hbar = psi_x.params.hbar
    pref = grid.step / math.sqrt(2.0 * math.pi * hbar)
    return pref * _grid_phase_sum(p_nodes * (-1.0 / hbar), grid.origin, grid.step,
                                  grid.count, psi_x.values, to_grid=False)


# Above the trigonometric-evaluation noise floor (~1e-15 of the peak); the
# truncated tail contributes O(1e-11) of the amplitude.
_ORACLE_SUPPORT_CUT = 1e-12
_ORACLE_REL_TOL = 1e-8  # target of the oracle's node doubling
_ORACLE_MAX_NODES = 2**17  # the node count at which it gives up


def arrival_amplitude_quadrature(psi_tilde: WaveFunction, grid_T: Grid1D) -> WaveFunction:
    """Arrival amplitude by direct oscillatory quadrature (the oracle).

    Composite Gauss-Legendre quadrature of the momentum integral from p = 0
    (the sqrt(|p|) weight is finite there), with the node count doubled from
    256 until the amplitude changes by less than 1e-8 of its peak; past 2^17
    nodes it raises QuadratureNonConvergence.  The integrand
    samples psi~ exactly (trigonometric sums over the position samples), and
    the quadrature sum goes to the T-grid as a second trigonometric sum.  Both
    sums run in ``_grid_phase_sum`` (two phase tables from numpy's exp and a
    matrix product), independent of the interpolating transform chain.  The
    two routes share the input samples, numpy's FFT and one phase helper,
    ``grids._cis_ramp`` (and the ``_cis`` it calls): the oracle's
    ``to_position`` forms its pre- and post-phases with it, and the chain's
    chirp-z forms its phase ramps with it.  They share no interpolation,
    energy map, s-grid or chirp-z.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    m = psi_tilde.params.mass
    hbar = psi_tilde.params.hbar
    psi_x = to_position(psi_tilde)
    p = psi_tilde.points
    amp = np.abs(psi_tilde.values)
    peak = amp.max()

    branches = []
    for positive in (True, False):
        mask = (p > 0.0) if positive else (p < 0.0)
        sup = mask & (amp >= _ORACLE_SUPPORT_CUT * peak)
        if not np.any(sup):
            continue
        pa = np.abs(p[sup])
        lo = max(pa.min() - 2.0 * psi_tilde.grid.step, 0.0)
        hi = pa.max() + 2.0 * psi_tilde.grid.step
        branches.append((1.0 if positive else -1.0, lo, hi))
    if not branches:
        return WaveFunction(grid_T, np.zeros(grid_T.count, dtype=np.complex128),
                            Representation.ARRIVAL_TIME, psi_tilde.params)

    def level(n_nodes: int) -> np.ndarray:
        phi = np.zeros(grid_T.count, dtype=np.complex128)
        for sgn, lo, hi in branches:
            edges = np.linspace(lo, hi, max(4, math.ceil(n_nodes / 32)) + 1)
            nodes, weights = (a.ravel() for a in gauss_panels(edges[:-1], edges[1:]))
            vals = _momentum_at(psi_x, sgn * nodes)
            base = weights * vals * np.sqrt(nodes / m) / math.sqrt(2.0 * math.pi * hbar)
            phi += _grid_phase_sum(sgn * nodes**2 / (-2.0 * m * hbar), grid_T.origin,
                                   grid_T.step, grid_T.count, base, to_grid=True)
        return phi

    n = 256
    prev = level(n)
    while True:
        n *= 2
        cur = level(n)
        scale = max(float(np.abs(cur).max()), 1e-300)
        err = float(np.abs(cur - prev).max() / scale)
        if err <= _ORACLE_REL_TOL:
            return WaveFunction(grid_T, cur, Representation.ARRIVAL_TIME,
                                psi_tilde.params)
        if n >= _ORACLE_MAX_NODES:
            raise QuadratureNonConvergence(
                f"oscillatory quadrature stuck at relative error {err:.3e} "
                f"with {n} nodes (target {_ORACLE_REL_TOL:g})")
        prev = cur


def arrival_distribution(psi: WaveFunction, grid_T: Grid1D | None = None,
                         s_grid: Grid1D | None = None) -> ArrivalDistribution:
    """Arrival-time distribution with right/left-mover decomposition.

    Accepts position or momentum input (position is converted to momentum
    first); any other representation raises RepMismatch.  Both mover
    amplitudes are computed on a common s-grid and T-grid so the
    decomposition identities hold exactly.
    """
    if psi.rep is Representation.POSITION:
        psi_tilde = to_momentum(psi)
    elif psi.rep is Representation.MOMENTUM:
        psi_tilde = psi
    else:
        raise RepMismatch(
            f"arrival_distribution needs position or momentum input, got {psi.rep.value}")

    plus, minus = split_movers(psi_tilde)
    w_plus = norm_squared(plus)
    w_minus = norm_squared(minus)
    if s_grid is None:
        s_grid = default_oriented_grid(psi_tilde)
    if grid_T is None:
        grid_T = default_time_grid(psi_tilde)

    def amplitude(part: WaveFunction, weight: float) -> np.ndarray:
        if weight <= 1e-12 * max(w_plus + w_minus, 1e-300):
            return np.zeros(grid_T.count, dtype=np.complex128)
        return arrival_amplitude_fast(part, grid_T, s_grid=s_grid).values

    phi_plus = amplitude(plus, w_plus)
    phi_minus = amplitude(minus, w_minus)

    plus_d = np.abs(phi_plus) ** 2
    minus_d = np.abs(phi_minus) ** 2
    interference = 2.0 * np.real(phi_plus * np.conj(phi_minus))
    phi = phi_plus + phi_minus
    total = np.abs(phi) ** 2
    return ArrivalDistribution(grid_T, total, plus_d, minus_d, interference,
                               w_plus, w_minus, phi)


def probability_in_interval(dist: ArrivalDistribution, a: float, b: float,
                            component: Component = Component.TOTAL) -> float:
    """P(T in [a, b]) by trapezoidal integration of the selected density."""
    T = dist.grid_T.points
    if not (a < b):
        raise IntervalOutOfRange(f"need a < b, got [{a}, {b}]")
    if a < T[0] or b > T[-1]:
        raise IntervalOutOfRange(
            f"[{a}, {b}] is not inside the tabulated span [{T[0]}, {T[-1]}]")
    density = dist.component(component)
    inner = (T > a) & (T < b)
    ts = np.concatenate(([a], T[inner], [b]))
    vs = np.concatenate(([np.interp(a, T, density)], density[inner],
                         [np.interp(b, T, density)]))
    val = float(np.trapezoid(vs, ts))
    return float(np.clip(val, 0.0, 1.0 + 1e-6))


@dataclass(frozen=True)
class ArrivalMoments:
    mean: float
    variance: float


def arrival_moments(dist: ArrivalDistribution,
                    component: Component = Component.TOTAL) -> ArrivalMoments:
    """Mean and variance of the normalized component density; a component
    of weight at most 1e-6 raises ZeroWeightComponent."""
    density = dist.component(component)
    T = dist.grid_T.points
    weight = float(np.trapezoid(density, T))
    if weight <= 1e-6:
        raise ZeroWeightComponent(
            f"component {component.value} carries weight {weight:.3e}")
    mean = float(np.trapezoid(T * density, T) / weight)
    var = float(np.trapezoid((T - mean) ** 2 * density, T) / weight)
    return ArrivalMoments(mean, var)


@dataclass(frozen=True)
class BackflowSpec:
    """Two positive-momentum Gaussians whose interference drives j < 0."""

    p1: float = 1.0
    p2: float = 3.0
    a1: float = 1.0
    a2: float = 1.6
    rel_phase: float = math.pi
    sigma: float = 0.1


def make_backflow_packet(grid_p: Grid1D, params: PhysicalParams,
                         spec: BackflowSpec = BackflowSpec()) -> WaveFunction:
    """Normalized superposition of two positive-momentum Gaussians; one whose
    norm on grid_p is zero (sigma far below its step) raises GridTooSmall.

    Despite containing only positive momenta (up to a checked leak of at most
    1e-10 of mass at p < 0), the packet develops regions of negative
    probability current at later times.
    """
    if not (spec.sigma > 0.0 and min(spec.p1, spec.p2) > 4.0 * spec.sigma):
        raise InvalidParameter(
            f"backflow packet needs p1, p2 > 4 sigma > 0 to carry positive momenta "
            f"only, got p1={spec.p1:g}, p2={spec.p2:g}, sigma={spec.sigma:g}")
    p = grid_p.points
    g1 = np.exp(-((p - spec.p1) ** 2) / (4.0 * spec.sigma**2))
    g2 = np.exp(-((p - spec.p2) ** 2) / (4.0 * spec.sigma**2))
    values = spec.a1 * g1 + spec.a2 * np.exp(1j * spec.rel_phase) * g2
    psi = _normalized(grid_p, values, Representation.MOMENTUM, params)
    neg_mass = float(np.sum(np.abs(psi.values[p < 0.0]) ** 2) * grid_p.step)
    if neg_mass > 1e-10:
        raise NegativeMomentumLeak(
            f"negative-momentum mass {neg_mass:.3e} exceeds 1e-10")
    return psi
