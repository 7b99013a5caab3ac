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

Two independent evaluations of this amplitude are provided: the fast
transform chain (momentum -> oriented energy -> arrival time) of
arrival_distribution, whose amplitude arrival_amplitude_fast returns, and a
direct oscillatory-quadrature oracle working from the momentum samples.  The
probability density |phi(T)|^2 splits into right-mover, left-mover and
interference parts; the movers' s-supports are disjoint, so the interference
term integrates to zero while remaining visible pointwise.
"""

import enum
import math

import numpy as np

from .errors import (IntervalOutOfRange, InvalidParameter,
                     QuadratureNonConvergence, RepMismatch, ZeroWeightComponent)
from .grids import (Grid1D, Representation, WaveFunction, _freeze, _owning,
                    _Record, _support, gauss_panels, moments)
from .transforms import (_energy_map, _momentum_floor, _pull_back_half,
                         _refuse_square_overflow, _trimmed_trig_sum,
                         default_oriented_grid, to_momentum, to_position)


class Component(enum.Enum):
    TOTAL = "total"
    PLUS = "plus"
    MINUS = "minus"


class ArrivalDistribution(_Record, eq=False):
    """Arrival-time density and its mover decomposition.

    total = plus + minus + interference holds pointwise by construction
    (total is the density of the summed amplitude, which is kept as
    ``amplitude``).  w_plus and w_minus are the momentum-space mover weights.
    A mover of at most 1e-12 of the total weight is gated out: it contributes
    a zero amplitude, and its density is zero.
    """

    grid_T: Grid1D
    total: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    interference: np.ndarray
    w_plus: float
    w_minus: float
    amplitude: np.ndarray

    def __post_init__(self, copy: bool | None = True):
        _freeze(self, copy, total=np.float64, plus=np.float64, minus=np.float64,
                interference=np.float64, amplitude=np.complex128)

    def component(self, which: Component) -> np.ndarray:
        return {Component.TOTAL: self.total, Component.PLUS: self.plus,
                Component.MINUS: self.minus}[which]


def split_movers(psi_tilde: WaveFunction) -> tuple[WaveFunction, WaveFunction]:
    """Right-mover / left-mover decomposition in the momentum representation.

    psi+ keeps the p > 0 samples, psi- the p < 0 samples.  The split feeds
    the energy map downstream, so it admits what that map admits, by the
    same check (transforms._momentum_floor): at most 1e-6 of mass below the
    momentum floor, and at most 1e-10 on an exact p = 0 sample, which
    belongs to neither mover.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    _momentum_floor(psi_tilde)
    p = psi_tilde.points
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
    p, w = psi_tilde.points, psi_tilde._amp ** 2
    w_total = w.sum()
    p0 = float(np.sum(np.abs(p) * w) / w_total)
    _refuse_square_overflow(p0, "the packet's mean |p|")
    p_std = float(math.sqrt(np.sum((np.abs(p) - p0) ** 2 * w) / w_total))
    center = -m * x_mean / p0
    span = 8.0 * m * (abs(x_mean) * p_std / p0**2 + x_std / p0)
    span = max(span, 16.0 * m * x_std / p0)
    return Grid1D(center - span / 2.0, span / 512, 512)


def arrival_amplitude_fast(psi_tilde: WaveFunction, grid_T: Grid1D | None = None,
                           s_grid: Grid1D | None = None) -> WaveFunction:
    """arrival_distribution(...).amplitude, on its grid_T, as an arrival-time
    wave function: the fast path that the quadrature oracle checks.  It takes
    and refuses what arrival_distribution does."""
    dist = arrival_distribution(psi_tilde, grid_T, s_grid)
    return _owning(WaveFunction, dist.grid_T, dist.amplitude, Representation.ARRIVAL_TIME,
                   psi_tilde.params)


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

    Like a momentum input of arrival_distribution, psi_tilde carries no
    position box, so nothing here can refuse a packet built off the window
    [-L/2, L/2), L = 2 pi hbar / dp: it is read as its image in that window.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    m = psi_tilde.params.mass
    hbar = psi_tilde.params.hbar
    psi_x = to_position(psi_tilde)
    p = psi_tilde.points
    amp = psi_tilde._amp
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


def _momentum_input(psi: WaveFunction) -> WaveFunction:
    """psi in the momentum representation, as arrival_distribution takes it,
    with its refusals: a position packet outside the window [-L/2, L/2) of
    its box, and any representation but position and momentum."""
    if psi.rep is Representation.MOMENTUM:
        return psi
    if psi.rep is not Representation.POSITION:
        raise RepMismatch(
            f"arrival_distribution needs position or momentum input, got {psi.rep.value}")
    box, half = psi.grid, 0.5 * psi.grid.span
    lo, hi = psi.points[list(_support(psi._amp))]
    if not -half <= lo <= hi < half:
        raise InvalidParameter(
            f"the position box [{box.origin:g}, {box.origin + box.span:g}] puts the "
            f"packet's support [{lo:g}, {hi:g}] outside [{-half:g}, {half:g}), the "
            f"window in which the arrival chain reads positions")
    return to_momentum(psi)


def arrival_distribution(psi: WaveFunction, grid_T: Grid1D | None = None,
                         s_grid: Grid1D | None = None) -> ArrivalDistribution:
    """Arrival-time distribution with right/left-mover decomposition.

    Accepts position or momentum input (position is converted to momentum
    first); any other representation raises RepMismatch.  Both mover
    amplitudes are computed on a common s-grid and T-grid so the
    decomposition identities hold exactly.

    The momentum samples see positions only modulo the box length
    L = 2 pi hbar / dp, and the chain reads them in [-L/2, L/2), whatever
    the origin of the position grid the packet was built on (a packet at
    x = 350 in the box [0, 400) is read as the packet at x = -50).  So a
    position packet whose support (its samples at or above _SUPPORT_CUT of
    the peak) leaves that window of its box raises InvalidParameter.  A
    momentum packet carries no box: its caller has to know that the packet
    lies in the window.

    Every field and refusal is, bit for bit, that of the per-mover chain:
    split_movers, then for each part norm_squared (w_plus, w_minus) and
    to_oriented_energy(part, s_grid=s_grid) -> to_arrival_time(., grid_T).
    It is one pass over the unsplit psi~: a mover's oriented-energy samples
    are one sign's half of the pull-back of psi~.
    """
    psi_tilde = _momentum_input(psi)
    p_min = _momentum_floor(psi_tilde)
    p, params = psi_tilde.points, psi_tilde.params
    a2 = psi_tilde._amp ** 2
    w_plus = float(np.sum(np.where(p > 0.0, a2, 0.0)) * psi_tilde.grid.step)
    w_minus = float(np.sum(np.where(p < 0.0, a2, 0.0)) * psi_tilde.grid.step)
    if s_grid is None:
        s_grid = default_oriented_grid(psi_tilde, p_min)
    if grid_T is None:
        grid_T = default_time_grid(psi_tilde)
    energy_map = _energy_map(p_min, params.mass)

    def amplitude(positive: bool, weight: float) -> np.ndarray:
        if weight <= 1e-12 * max(w_plus + w_minus, 1e-300):
            return np.zeros(grid_T.count, dtype=np.complex128)
        start, phi_s = _pull_back_half(psi_tilde, s_grid, positive, *energy_map)
        return _trimmed_trig_sum(phi_s, start, s_grid, grid_T, -1, params.hbar)

    phi_plus = amplitude(True, w_plus)
    phi_minus = amplitude(False, w_minus)

    plus_d = np.abs(phi_plus) ** 2
    minus_d = np.abs(phi_minus) ** 2
    interference = 2.0 * np.real(phi_plus * np.conj(phi_minus))
    phi = phi_plus + phi_minus
    total = np.abs(phi) ** 2
    return _owning(ArrivalDistribution, grid_T, total, plus_d, minus_d, interference,
                   w_plus, w_minus, phi)


def probability_in_interval(dist: ArrivalDistribution, a: float, b: float) -> float:
    """P(T in [a, b]) by trapezoidal integration of the total density."""
    T = dist.grid_T.points
    if not (a < b):
        raise IntervalOutOfRange(f"need a < b, got [{a}, {b}]")
    if a < T[0] or b > T[-1]:
        raise IntervalOutOfRange(
            f"[{a}, {b}] is not inside the tabulated span [{T[0]}, {T[-1]}]")
    density = dist.total
    inner = (T > a) & (T < b)
    ts = np.concatenate(([a], T[inner], [b]))
    vs = np.concatenate(([np.interp(a, T, density)], density[inner],
                         [np.interp(b, T, density)]))
    val = float(np.trapezoid(vs, ts))
    return float(np.clip(val, 0.0, 1.0 + 1e-6))


class ArrivalMoments(_Record):
    mean: float
    variance: float


def arrival_moments(dist: ArrivalDistribution,
                    component: Component = Component.TOTAL) -> ArrivalMoments:
    """Mean and variance of the normalized component density; a component
    of weight at most 1e-6 raises ZeroWeightComponent."""
    density = dist.component(component)
    T = dist.grid_T.points
    dT = T[1:] - T[:-1]

    def trapezoid(y: np.ndarray) -> np.float64:  # np.trapezoid(y, T), dT taken once
        return (dT * (y[1:] + y[:-1]) / 2.0).sum()

    weight = float(trapezoid(density))
    if weight <= 1e-6:
        raise ZeroWeightComponent(
            f"component {component.value} carries weight {weight:.3e}")
    mean = float(trapezoid(T * density) / weight)
    var = float(trapezoid((T - mean) ** 2 * density) / weight)
    return ArrivalMoments(mean, var)
