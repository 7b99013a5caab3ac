"""Classical statistical-ensemble counterpart of the quantum constructions.

A phase-space density of free particles is represented by weighted Monte
Carlo samples.  Free evolution moves positions along straight lines,
phi(t; x, p) = phi(0; x - (t/m) p, p); position and momentum densities are
the marginals.  For large t the rescaled position density recovers the
momentum density,

    mu(p) = lim (t/m) rho(t, x0 + (t/m) p)            (1-D exponent),

which also holds verbatim for |psi(t,x)|^2 of a freely evolving packet and
fixes the quantum momentum density as |psi~(p)|^2.  For a packet, exactly,
(t/m) |psi(t, x)|^2 = |F[psi(y) exp(i m y^2 / (2 hbar t))](m x / t)|^2 with F
the position -> momentum transform (Dollard 1964), which the packet's grid
resolves while the chirped spectrum and the window fit in one momentum
period 2 pi hbar / dx.  The module also provides the Monte Carlo
oriented-arrival-time oracle used to validate the quantum distribution's
quasiclassical mean.

All stochastic constructors take explicit seeds; reductions are plain numpy
(pairwise) sums, so results are reproducible bit-for-bit.  That holds with
the helper thread that draws the ensemble's next block of pairs while the
current one is binned: the draws keep the stream's order, and every
histogram is binned in block order on the caller's thread.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (BinRangeTooSmall, InvalidParameter,
                     MomentumFloorViolated, RepMismatch)
from .grids import (Grid1D, PhysicalParams, Representation, WaveFunction,
                    moments)
from .transforms import _SUPPORT_CUT, fourier_eval, to_momentum, to_position


def classical_arrival_time(x, p, mass: float = 1.0):
    """Time -m x / p at which a free classical particle crosses x = 0."""
    return -mass * np.asarray(x, dtype=float) / np.asarray(p, dtype=float)


def oriented_arrival_time(x, p, mass: float = 1.0):
    """Oriented arrival time T = -m x / |p| = sgn(p) * (-m x / p), the
    classical observable whose quantization :mod:`flowquant.arrival` holds."""
    return -mass * np.asarray(x, dtype=float) / np.abs(np.asarray(p, dtype=float))


#: Samples per block of the draws, the ensemble check and the binning, so
#: their temporaries stay small.
_BIN_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class PhaseSpaceEnsemble:
    """Weighted samples (x_i, p_i, w_i) of a classical phase-space density,
    kept as read-only float64 copies of the caller's arrays.  The module's
    constructors hand over what they have just built, uncopied: possibly
    read-only views, and equal weights as one zero-stride broadcast value."""

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray
    params: PhysicalParams

    def __post_init__(self, copy: bool = True):
        for name in ("x", "p", "w"):
            arr = getattr(self, name)
            arr = np.array(arr, dtype=np.float64, copy=True) if copy else arr
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.x) == len(self.p) == len(self.w)):
            raise ValueError("sample arrays must have equal lengths")
        if self.w.min(initial=0.0) < 0.0:
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(self.w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        second = 0.0  # sum of w (x^2 + p^2), one block of buffers at a time
        buffers = _block_buffers(min(self.size, _BIN_BLOCK))
        for start in range(0, self.size, _BIN_BLOCK):
            block = slice(start, start + _BIN_BLOCK)
            second += _second_moment(self.x[block], self.p[block], self.w[block],
                                     buffers)
        _require_finite(second)

    @classmethod
    def _owning(cls, x, p, w, params: PhysicalParams) -> "PhaseSpaceEnsemble":
        e = object.__new__(cls)
        for name, value in (("x", x), ("p", p), ("w", w), ("params", params)):
            object.__setattr__(e, name, value)
        e.__post_init__(copy=False)
        return e

    @property
    def size(self) -> int:
        return len(self.x)


def _second_moment(x: np.ndarray, p: np.ndarray, w, buffers: tuple) -> float:
    """The sum of w (x^2 + p^2) over one block of samples, formed in the
    work and moved buffers of _block_buffers."""
    work, _, moved = buffers
    term = np.square(x, out=work[:len(x)])
    term += np.square(p, out=moved[:len(p)])
    term *= w
    return float(np.sum(term))


def _require_finite(second: float) -> None:
    if not math.isfinite(second):
        raise ValueError("ensemble must have finite second moments")


def _gaussian_blocks(mean_x: float, sigma_x: float, mean_p: float,
                     sigma_p: float, count: int, seed: int):
    """The pairs (x_i, p_i) = (mean_x + sigma_x z_2i, mean_p + sigma_p z_2i+1)
    of one seeded standard-normal stream z, yielded as (x, p) blocks of
    _BIN_BLOCK pairs.  numpy's Generator continues one stream across calls,
    so the pairs do not depend on the block size.

    While the caller works on block k, a helper thread draws block k + 1
    (the Generator releases the GIL while it fills an array).  The draws
    stay in stream order, one thread at a time, into one standard-normal
    buffer that only the drawing thread touches, so the bits are those of
    drawing on the caller's thread.  A block is a slice of one of two
    alternating buffer sets: it stays valid until the next block is asked
    for, and the one after it overwrites it.  An exception raised by a
    draw is raised here, in the caller; closing the generator early joins
    the helper, so no thread outlives the iteration."""
    rng = np.random.default_rng(seed)
    size = min(count, _BIN_BLOCK)
    z = np.empty(2 * size)
    sets = [(np.empty(size), np.empty(size)) for _ in range(2)]
    blocks = []  # (x, p) views of the buffer sets, in stream order
    for k, start in enumerate(range(0, count, _BIN_BLOCK)):
        n = min(_BIN_BLOCK, count - start)
        blocks.append(tuple(buf[:n] for buf in sets[k % 2]))
    failures = []

    def draw(xb: np.ndarray, pb: np.ndarray) -> None:
        try:
            pair = rng.standard_normal(2 * len(xb), out=z[:2 * len(xb)])
            np.multiply(pair[0::2], sigma_x, out=xb)
            xb += mean_x
            np.multiply(pair[1::2], sigma_p, out=pb)
            pb += mean_p
        except BaseException as exc:  # raised again on the caller's thread
            failures.append(exc)

    def helper_for(k: int) -> threading.Thread | None:
        if k == len(blocks):
            return None
        helper = threading.Thread(target=draw, args=blocks[k])
        helper.start()
        return helper

    helper = helper_for(0)
    try:
        for k, block in enumerate(blocks):
            helper.join()
            if failures:
                raise failures[0]
            helper = helper_for(k + 1)
            yield block
    finally:
        if helper is not None:
            helper.join()


def gaussian_ensemble(params: PhysicalParams, mean_x: float, sigma_x: float,
                      mean_p: float, sigma_p: float, count: int,
                      seed: int) -> PhaseSpaceEnsemble:
    """Product-Gaussian ensemble with independent x and p marginals: the
    pairs of _gaussian_blocks, which the streamed ensemble_momentum_limits
    draws too."""
    x, p = np.empty(count), np.empty(count)
    start = 0
    for xb, pb in _gaussian_blocks(mean_x, sigma_x, mean_p, sigma_p, count, seed):
        x[start:start + len(xb)], p[start:start + len(pb)] = xb, pb
        start += len(xb)
    w = np.broadcast_to(np.float64(1.0 / count), (count,))
    return PhaseSpaceEnsemble._owning(x, p, w, params)


def _packet_moments(psi: WaveFunction) -> tuple[float, float, float, float]:
    """Mean and width of the packet's position, then of its momentum."""
    if psi.rep is Representation.POSITION:
        psi_x, psi_p = psi, to_momentum(psi)
    elif psi.rep is Representation.MOMENTUM:
        psi_x, psi_p = to_position(psi), psi
    else:
        raise RepMismatch("need a position- or momentum-representation packet")
    return (*moments(psi_x), *moments(psi_p))


def ensemble_from_packet(psi: WaveFunction, count: int,
                         seed: int) -> PhaseSpaceEnsemble:
    """Classical stand-in for a quantum packet: independent Gaussian marginals
    matching the packet's position and momentum moments."""
    return gaussian_ensemble(psi.params, *_packet_moments(psi), count, seed)


def evolve_ensemble(e: PhaseSpaceEnsemble, t: float) -> PhaseSpaceEnsemble:
    """Free motion: positions advance by (t/m) p, momenta are constants."""
    return PhaseSpaceEnsemble._owning(e.x + (t / e.params.mass) * e.p, e.p, e.w, e.params)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Weighted histogram: masses per bin (not densities)."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for name in ("edges", "masses"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def density(self) -> np.ndarray:
        return self.masses / self.widths


@dataclass(frozen=True)
class Marginals:
    rho: Histogram
    mu: Histogram


@dataclass(frozen=True, eq=False)
class _Bins:
    """The tables _bin_block bins against.  Bin i holds lower[i] <= v <
    upper[i]: 0 is the underflow bin, 1..n_bins the edges' bins, n_bins + 1
    the overflow bin (v >= nan never holds, so it has no top)."""

    lo: float
    scale: float
    n_bins: int
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, edges: np.ndarray, name: str = "bin edges") -> "_Bins":
        """The tables of the edges.  Raises InvalidParameter, which calls
        the edges name, unless there are two or more, finite and increasing."""
        if not (len(edges) > 1 and np.all(np.isfinite(edges))
                and np.all(edges[:-1] < edges[1:])):
            span = f", not [{edges[0]:g}, {edges[-1]:g}]" if len(edges) else ""
            raise InvalidParameter(f"{name} must be finite and increasing{span}")
        n_bins = len(edges) - 1
        lo, hi = edges[0], edges[-1]
        above = np.nextafter(hi, np.inf)
        return cls(lo, n_bins / (hi - lo), n_bins,
                   np.concatenate([[-np.inf], edges[:-1], [above]]),
                   np.concatenate([edges[:-1], [above, np.nan]]))


def _block_buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The work, index and moved buffers of _bin_block for blocks of up to
    size values, shared by the blocks and the histograms: sample-sized
    temporaries made afresh for each block would be handed back to the
    system and faulted in again."""
    return np.empty(size), np.empty(size, dtype=np.intp), np.empty(size)


def _bin_block(values: np.ndarray, weights: np.ndarray, bins: _Bins,
               masses: np.ndarray, buffers: tuple, drift: np.ndarray | None = None,
               speed: float = 0.0) -> None:
    """Adds the weights of one block of values, or of values + speed * drift,
    to masses, n_bins + 2 long with the underflow and overflow bins at its
    ends.

    Each value's bin is first guessed from the uniform-edge formula, then
    stepped until the bin's actual edges hold the value, so non-uniform
    edges are exact too, only slower.  NaN is guessed into the underflow bin.
    """
    work, index, moved = buffers
    n = len(values)
    # values far outside the edges, or edges wider than the float range
    with np.errstate(over="ignore", invalid="ignore"):
        v = values
        if drift is not None:
            v = np.multiply(drift, speed, out=moved[:n])
            v += values
        guess = np.subtract(v, bins.lo, out=work[:n])
        guess *= bins.scale
        guess += 1.0
        np.fmax(guess, 0.0, out=guess)  # also takes NaN to the underflow bin
        np.fmin(guess, bins.n_bins + 1, out=guess)
        i = index[:n]
        np.copyto(i, guess, casting="unsafe")  # truncates, as astype does
        lower, upper = bins.lower, bins.upper
        # the indices are in range; "clip" lets take write into out unbuffered
        wrong = v < np.take(lower, i, out=guess, mode="clip")
        wrong |= v >= np.take(upper, i, out=guess, mode="clip")
        wrong = np.flatnonzero(wrong)
        while wrong.size:
            vw, iw = v[wrong], i[wrong]
            iw = iw + (vw >= upper[iw]) - (vw < lower[iw])
            i[wrong] = iw
            wrong = wrong[(vw < lower[iw]) | (vw >= upper[iw])]
    masses += np.bincount(i, weights, minlength=bins.n_bins + 2)


def _bin_masses(values: np.ndarray, weights: np.ndarray, edges: np.ndarray,
                drift: np.ndarray | None = None, speed: float = 0.0) -> np.ndarray:
    """Weight of the values in each bin [edges[i], edges[i+1]), the last bin
    closed: the bins np.histogram gives for explicit edges, without sorting.
    With a drift, the values binned are values + speed * drift, formed one
    block at a time.  Values outside the edges, and NaN, are left out."""
    bins = _Bins.of(edges)
    masses = np.zeros(bins.n_bins + 2)
    buffers = _block_buffers(min(len(values), _BIN_BLOCK))
    for start in range(0, len(values), _BIN_BLOCK):
        block = slice(start, start + _BIN_BLOCK)
        _bin_block(values[block], weights[block], bins, masses, buffers,
                   None if drift is None else drift[block], speed)
    return masses[1:-1]


def _histogram(values: np.ndarray, weights: np.ndarray, edges: np.ndarray,
               strict: bool = True) -> Histogram:
    if strict and (values.min() < edges[0] or values.max() > edges[-1]):
        raise BinRangeTooSmall(
            f"samples span [{values.min():g}, {values.max():g}] but bins cover "
            f"[{edges[0]:g}, {edges[-1]:g}]")
    return Histogram(edges, _bin_masses(values, weights, edges))


def marginals(e: PhaseSpaceEnsemble, x_edges: np.ndarray,
              p_edges: np.ndarray) -> Marginals:
    """Position and momentum histograms; each sums to the total weight (one)."""
    return Marginals(_histogram(e.x, e.w, np.asarray(x_edges, dtype=float)),
                     _histogram(e.p, e.w, np.asarray(p_edges, dtype=float)))


def momentum_histogram(e: PhaseSpaceEnsemble, p_edges: np.ndarray) -> Histogram:
    """Momentum histogram of the samples themselves, the reference that
    momentum_from_position_limit converges to.  Samples outside the edges
    are left out."""
    return _histogram(e.p, e.w, np.asarray(p_edges, dtype=float), strict=False)


def l1_distance(h1: Histogram, h2: Histogram) -> float:
    if h1.edges.shape != h2.edges.shape or not np.allclose(h1.edges, h2.edges):
        raise ValueError("histograms must share bin edges")
    return float(np.sum(np.abs(h1.masses - h2.masses)))


def momentum_from_position_limit(e: PhaseSpaceEnsemble, x0: float, t: float,
                                 p_edges: np.ndarray) -> Histogram:
    """Momentum density recovered from the position density at time t.

    Bins the evolved positions x + (t/m) p and reads (t/m) rho(t, x0 + (t/m) p)
    as bin masses: the mass in the p-bin is the evolved-position mass in the
    mapped x-bin.  Comparing against the direct momentum histogram of the
    same samples isolates the finite-t systematic error.  Samples drifting
    outside the mapped window are excluded (part of that error).
    """
    if t <= 0.0:
        raise ValueError("the limit formula needs t > 0")
    p_edges = np.asarray(p_edges, dtype=float)
    speed = t / e.params.mass
    masses = _bin_masses(e.x, e.w, x0 + speed * p_edges, e.p, speed)
    return Histogram(p_edges, masses)


def ensemble_momentum_limits(psi: WaveFunction, count: int, seed: int, x0: float,
                             times, p_edges: np.ndarray) -> tuple[Histogram, list[Histogram]]:
    """momentum_histogram and momentum_from_position_limit at each of the
    times, over ensemble_from_packet(psi, count, seed), bit for bit, in one
    pass: each block of pairs is drawn, checked and binned into every
    histogram before the next, so nothing sample-sized is held."""
    mean_x, sigma_x, mean_p, sigma_p = _packet_moments(psi)
    if any(t <= 0.0 for t in times):
        raise ValueError("the limit formula needs t > 0")
    p_edges = np.asarray(p_edges, dtype=float)
    speeds = [t / psi.params.mass for t in times]
    with np.errstate(over="ignore"):  # an overflowing window is refused
        tables = [_Bins.of(p_edges, "momentum bin edges")] + [
            _Bins.of(x0 + s * p_edges, f"position bin edges x0 + (t/m) p at t = {t:g}")
            for t, s in zip(times, speeds)]
    masses = np.zeros((len(tables), len(p_edges) + 1))
    size = min(count, _BIN_BLOCK)
    buffers = _block_buffers(size)
    w = np.float64(1.0 / count)
    weights = np.full(size, w)  # contiguous, so np.bincount takes it uncopied
    second = 0.0
    blocks = _gaussian_blocks(mean_x, sigma_x, mean_p, sigma_p, count, seed)
    try:
        for x, p in blocks:
            second += _second_moment(x, p, w, buffers)
            _require_finite(second)
            n = len(x)
            _bin_block(p, weights[:n], tables[0], masses[0], buffers)
            for speed, bins, row in zip(speeds, tables[1:], masses[1:]):
                _bin_block(x, weights[:n], bins, row, buffers, p, speed)
    finally:
        blocks.close()  # joins the helper drawing the next block
    return (Histogram(p_edges, masses[0, 1:-1]),
            [Histogram(p_edges, row[1:-1]) for row in masses[1:]])


def quantum_momentum_limit(psi: WaveFunction, x0: float, t: float,
                           p_edges: np.ndarray) -> Histogram:
    """Quantum version: (t/m) |psi(t, x0 + (t/m) p)|^2 as bin masses.

    By the exact factorisation U(t) = M D F M of the free propagator
    (Dollard, J. Math. Phys. 5, 729 (1964)), M the chirp exp(i m y^2 /
    (2 hbar t)), the masses are |F[M psi](p + m x0 / t)|^2 dp: one
    fourier_eval on the packet's grid, whose Riemann sum has the momentum
    period 2 pi hbar / dx.  InvalidParameter names the smallest t at which
    the chirped spectrum and the window fit in one period.
    """
    psi.require_rep(Representation.POSITION)
    if not t > 0.0:
        raise ValueError("the limit formula needs t > 0")
    m, hbar = psi.params.mass, psi.params.hbar
    p_edges = np.asarray(p_edges, dtype=float)
    t_min = _min_resolved_time(psi, x0, 0.5 * (p_edges[:-1] + p_edges[1:]))
    if t < t_min:
        raise InvalidParameter(
            f"classical limit at t = {t:g}: the x grid (step {psi.grid.step:g}) "
            f"resolves only t >= {t_min:.3g} for these p bins")
    chirp = np.exp(1j * (m / t) * psi.points**2 / (2.0 * hbar))
    return _spectrum_masses(psi.values * chirp, psi, p_edges, m * x0 / t)


def exact_momentum_histogram(psi: WaveFunction, p_edges: np.ndarray) -> Histogram:
    """|psi~(p)|^2 evaluated at bin centers, as bin masses."""
    psi.require_rep(Representation.POSITION)
    return _spectrum_masses(psi.values, psi, np.asarray(p_edges, dtype=float), 0.0)


def _spectrum_masses(values: np.ndarray, psi: WaveFunction, p_edges: np.ndarray,
                     shift: float) -> Histogram:
    """|F[values](p + shift)|^2 dp over the bins, values on psi's grid.

    The bin centers are evaluated as one uniform grid, so the bins must be of
    equal width (to the rounding of np.linspace).
    """
    widths = np.diff(p_edges)
    uneven = np.flatnonzero(np.abs(widths - widths[0]) > 1e-9 * np.abs(p_edges).max())
    if uneven.size:
        i = uneven[0]
        raise InvalidParameter(
            f"p_edges must be uniformly spaced: bin [{p_edges[i]:g}, {p_edges[i + 1]:g}] "
            f"is {widths[i]:g} wide, bin [{p_edges[0]:g}, {p_edges[1]:g}] {widths[0]:g}")
    centers = 0.5 * (p_edges[:-1] + p_edges[1:])
    p_eval = Grid1D(centers[0] + shift, centers[1] - centers[0], len(centers))
    amp = fourier_eval(values, psi.grid, p_eval, -1, psi.params.hbar)
    return Histogram(p_edges, np.abs(amp) ** 2 * np.diff(p_edges))


def _min_resolved_time(psi: WaveFunction, x0: float, centers: np.ndarray) -> float:
    """Smallest t at which the chirped spectrum, within [p_lo + u y_lo,
    p_hi + u y_hi] for u = m / t on the 1e-13 amplitude supports, and the
    window centers + u x0 fit in one momentum period; inf if none."""
    ends = []
    for wave in (psi, to_momentum(psi)):
        amp = np.abs(wave.values)
        ends += wave.points[amp >= _SUPPORT_CUT * amp.max()][[0, -1]].tolist()
    y_lo, y_hi, p_lo, p_hi = ends
    period = 2.0 * math.pi * psi.params.hbar / psi.grid.step
    rooms = [(period - (top - bottom), top_slope - bottom_slope)
             for top, top_slope in ((p_hi, y_hi), (centers[-1], x0))
             for bottom, bottom_slope in ((p_lo, y_lo), (centers[0], x0))]
    if min(room for room, _ in rooms) <= 0.0:
        return math.inf
    return psi.params.mass * max(0.0, *(slope / room for room, slope in rooms))


@dataclass(frozen=True)
class ArrivalStats:
    mean: float
    variance: float
    histogram: Histogram | None = None


def classical_arrival_oracle(e: PhaseSpaceEnsemble,
                             bins: np.ndarray | None = None) -> ArrivalStats:
    """Weighted statistics of the per-sample oriented arrival time -m x / |p|;
    an ensemble with a sample at |p| < 1e-6 raises MomentumFloorViolated."""
    if float(np.min(np.abs(e.p))) < 1e-6:
        raise MomentumFloorViolated(
            "ensemble contains |p| < 1e-06; arrival times diverge")
    T = oriented_arrival_time(e.x, e.p, e.params.mass)
    mean = float(np.sum(e.w * T))
    var = float(np.sum(e.w * (T - mean) ** 2))
    hist = None
    if bins is not None:
        hist = _histogram(T, e.w, np.asarray(bins, dtype=float), strict=False)
    return ArrivalStats(mean, var, hist)
