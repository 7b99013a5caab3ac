"""Classical counterpart of the quantum constructions.

The classical observables are the arrival time -m x / p of a free particle
and its oriented form -m x / |p|.  A phase-space density of free particles
moves along straight lines, phi(t; x, p) = phi(0; x - (t/m) p, p); position
and momentum densities are the marginals.  For large t the rescaled
position density recovers the momentum density,

    mu(p) = lim (t/m) rho(t, x0 + (t/m) p)            (1-D exponent),

which also holds verbatim for |psi(t,x)|^2 of a freely evolving packet and
fixes the quantum momentum density as |psi~(p)|^2.  For a packet, exactly,
(t/m) |psi(t, x)|^2 = |F[psi(y) exp(i m y^2 / (2 hbar t))](m x / t)|^2 with F
the position -> momentum transform (Dollard 1964), which the packet's grid
resolves while the chirped spectrum and the window fit in one momentum
period 2 pi hbar / dx.

The classical stand-in for a packet is the product Gaussian with the
packet's position and momentum moments.  Its histograms have a closed form
(_gaussian_limits): differences of normal tails, which the CLI writes.
ensemble_from_packet still draws it as equally likely seeded samples, and
momentum_from_position_limit counts the drawn positions at time t, each
mass an integer count over the sample count, so results are reproducible
bit-for-bit.
"""

import math

import numpy as np

from .errors import InvalidParameter, RepMismatch
from .grids import (Grid1D, PhysicalParams, Representation, WaveFunction,
                    _freeze, _owning, _Record, _support, moments)
from .transforms import fourier_eval, to_momentum, to_position


def classical_arrival_time(x, p, mass: float = 1.0):
    """Time -m x / p at which a free classical particle crosses x = 0."""
    return -mass * np.asarray(x, dtype=float) / np.asarray(p, dtype=float)


def oriented_arrival_time(x, p, mass: float = 1.0):
    """Oriented arrival time T = -m x / |p| = sgn(p) * (-m x / p), the
    classical observable whose quantization :mod:`flowquant.arrival` holds."""
    return -mass * np.asarray(x, dtype=float) / np.abs(np.asarray(p, dtype=float))


class PhaseSpaceEnsemble(_Record, eq=False):
    """Equally likely samples (x_i, p_i) of a classical phase-space density,
    kept as read-only float64 copies of the caller's arrays;
    ensemble_from_packet hands over the arrays it has just drawn, uncopied."""

    x: np.ndarray
    p: np.ndarray
    params: PhysicalParams

    def __post_init__(self, copy: bool | None = True):
        _freeze(self, copy, x=np.float64, p=np.float64)
        if not 0 < len(self.x) == len(self.p):
            raise InvalidParameter("sample arrays must be nonempty, of equal lengths")
        with np.errstate(over="ignore"):  # a sum past float64 is inf, refused
            second = self.x @ self.x + self.p @ self.p
        if not math.isfinite(second):
            raise InvalidParameter("ensemble must have finite second moments")

    @property
    def size(self) -> int:
        return len(self.x)


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
    """Classical stand-in for a quantum packet: the product Gaussian whose
    independent x and p marginals have the packet's position and momentum
    means and widths, as the pairs (x_i, p_i) = (mean_x + sigma_x z_2i,
    mean_p + sigma_p z_2i+1) of one seeded standard-normal draw z."""
    mean_x, sigma_x, mean_p, sigma_p = _packet_moments(psi)
    z = np.random.default_rng(seed).standard_normal(2 * count)
    x, p = z[0::2] * sigma_x, z[1::2] * sigma_p
    x += mean_x
    p += mean_p
    return _owning(PhaseSpaceEnsemble, x, p, psi.params)


class Histogram(_Record, eq=False):
    """Masses per bin (not densities).  Those of an ensemble are the counts
    of np.histogram over the sample count: bins [edges[i], edges[i+1]), the
    last one closed, with samples outside the edges left out."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        # always a copy: the edges are the caller's
        _freeze(self, True, edges=np.float64, masses=np.float64)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def density(self) -> np.ndarray:
        return self.masses / self.widths


def _admit_edges(edges, name: str) -> np.ndarray:
    """The edges as a float array.  Raises InvalidParameter, which calls the
    edges name, unless there are two or more, finite and increasing."""
    edges = np.asarray(edges, dtype=float)
    if not (len(edges) > 1 and np.all(np.isfinite(edges))
            and np.all(edges[:-1] < edges[1:])):
        span = f", not [{edges[0]:g}, {edges[-1]:g}]" if len(edges) else ""
        raise InvalidParameter(f"{name} must be finite and increasing{span}")
    return edges


def l1_distance(h1: Histogram, h2: Histogram) -> float:
    if not np.array_equal(h1.edges, h2.edges):
        raise InvalidParameter("histograms must share bin edges")
    return float(np.sum(np.abs(h1.masses - h2.masses)))


def momentum_from_position_limit(e: PhaseSpaceEnsemble, x0: float, t: float,
                                 p_edges: np.ndarray) -> Histogram:
    """Momentum density recovered from the position density at time t.

    Counts the evolved positions x + (t/m) p and reads (t/m) rho(t, x0 + (t/m) p)
    as bin masses: the mass in the p-bin is the share of the evolved positions
    in the mapped x-bin.  Comparing against the direct momentum histogram of the
    same samples isolates the finite-t systematic error.  Samples drifting
    outside the mapped window are excluded (part of that error).
    """
    if t <= 0.0:
        raise InvalidParameter("the limit formula needs t > 0")
    p_edges = _admit_edges(p_edges, "momentum bin edges")
    window = _limit_window(x0, t, e.params.mass, p_edges)
    with np.errstate(over="ignore"):  # a position past float64 is inf, left out
        moved = e.x + (t / e.params.mass) * e.p
    return Histogram(p_edges, np.histogram(moved, window)[0] / e.size)


def _limit_window(x0: float, t: float, mass: float, p_edges: np.ndarray) -> np.ndarray:
    """The position bin edges x0 + (t/m) p of the limit at time t, admitted
    as _admit_edges admits them (a window past float64 is refused)."""
    with np.errstate(over="ignore", invalid="ignore"):
        window = x0 + (t / mass) * p_edges
    return _admit_edges(window, f"position bin edges x0 + (t/m) p at t = {t:g}")


def _gaussian_limits(psi: WaveFunction, x0: float, times,
                     p_edges: np.ndarray) -> tuple[Histogram, list[Histogram]]:
    """The histograms that the momenta of ensemble_from_packet(psi, ...) and
    momentum_from_position_limit over it converge to as its size grows: the
    masses of N(mean_p, sigma_p^2) over p_edges, and at each t those of the
    evolved positions N(mean_x + (t/m) mean_p, sigma_x^2 + (t/m)^2 sigma_p^2)
    over the window x0 + (t/m) p_edges.  InvalidParameter where a mean or
    spread is not finite in float64."""
    mean_x, sigma_x, mean_p, sigma_p = _packet_moments(psi)
    if any(not t > 0.0 for t in times):
        raise InvalidParameter("the limit formula needs t > 0")
    m = psi.params.mass
    p_edges = _admit_edges(p_edges, "momentum bin edges")
    mu = Histogram(p_edges, _normal_masses(mean_p, sigma_p, p_edges, "the momentum"))
    limits = []
    for t in times:
        window = _limit_window(x0, t, m, p_edges)
        speed = t / m  # Python floats: an overflow is inf, refused below
        limits.append(Histogram(p_edges, _normal_masses(
            mean_x + speed * mean_p, math.hypot(sigma_x, speed * sigma_p), window,
            f"the evolved position at t = {t:g}")))
    return mu, limits


def _normal_masses(mean: float, spread: float, edges: np.ndarray,
                   what: str) -> np.ndarray:
    """The masses of N(mean, spread^2) over the bins of edges, from one
    erfc tail per edge, the tail beyond the edge away from the mean: the
    difference of two tails for a bin on one side of the mean, 1 minus both
    for a bin across it.  No mass is a difference of two numbers near 1, so
    far-tail masses keep their relative precision.  A spread of 0 is a step
    at the mean (split half and half on an edge).  InvalidParameter, which
    names what is distributed, where the mean or spread is not finite."""
    if not (math.isfinite(mean) and math.isfinite(spread)):
        raise InvalidParameter(
            f"classical limit: {what} has mean {mean:g} and spread {spread:g}, "
            "not finite in float64")
    scale = spread * math.sqrt(2.0)
    with np.errstate(over="ignore"):  # a gap past float64 is an erfc of inf
        gaps = np.abs(edges - mean)
        z = gaps / scale if scale else np.where(gaps > 0.0, math.inf, 0.0)
    tails = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, len(z))
    a, b = tails[:-1], tails[1:]
    return np.where(edges[1:] <= mean, b - a,
                    np.where(edges[:-1] >= mean, a - b, 1.0 - a - b))


def quantum_momentum_limit(psi: WaveFunction, x0: float, t: float,
                           p_edges: np.ndarray) -> Histogram:
    """Quantum version: (t/m) |psi(t, x0 + (t/m) p)|^2 as bin masses.

    By the exact factorisation U(t) = M D F M of the free propagator
    (Dollard, J. Math. Phys. 5, 729 (1964)), M the chirp exp(i m y^2 /
    (2 hbar t)), the masses are |F[M psi](p + m x0 / t)|^2 dp: one
    fourier_eval on the packet's grid, whose Riemann sum has the momentum
    period 2 pi hbar / dx.  InvalidParameter names the smallest t at which
    the chirped spectrum and the window fit in one period; before that it
    refuses bin edges, and the window x0 + (t/m) p, that are not finite and
    increasing, as _gaussian_limits does.
    """
    psi.require_rep(Representation.POSITION)
    if not t > 0.0:
        raise InvalidParameter("the limit formula needs t > 0")
    m, hbar = psi.params.mass, psi.params.hbar
    p_edges = _admit_edges(p_edges, "momentum bin edges")
    _limit_window(x0, t, m, p_edges)  # the window this limit reads psi(t) on
    t_min = _min_resolved_time(psi, x0, 0.5 * (p_edges[:-1] + p_edges[1:]))
    if t < t_min:
        why = "" if math.isfinite(t_min) else (
            ": even as t -> inf, the packet's spectrum and the bins do not fit in one "
            f"momentum period 2 pi hbar / step = {2.0 * math.pi * hbar / psi.grid.step:.3g}")
        raise InvalidParameter(
            f"classical limit at t = {t:g}: the x grid (step {psi.grid.step:g}) "
            f"resolves only t >= {t_min:.3g} for these p bins{why}")
    chirp = np.exp(1j * (m / t) * psi.points**2 / (2.0 * hbar))
    return _spectrum_masses(psi.values * chirp, psi, p_edges, m * x0 / t)


def exact_momentum_histogram(psi: WaveFunction, p_edges: np.ndarray) -> Histogram:
    """|psi~(p)|^2 evaluated at bin centers, as bin masses."""
    psi.require_rep(Representation.POSITION)
    p_edges = _admit_edges(p_edges, "momentum bin edges")
    return _spectrum_masses(psi.values, psi, p_edges, 0.0)


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
        ends += wave.points[list(_support(wave._amp))].tolist()
    y_lo, y_hi, p_lo, p_hi = ends
    period = 2.0 * math.pi * psi.params.hbar / psi.grid.step
    rooms = [(period - (top - bottom), top_slope - bottom_slope)
             for top, top_slope in ((p_hi, y_hi), (centers[-1], x0))
             for bottom, bottom_slope in ((p_lo, y_lo), (centers[0], x0))]
    if min(room for room, _ in rooms) <= 0.0:
        return math.inf
    return psi.params.mass * max(0.0, *(slope / room for room, slope in rooms))

