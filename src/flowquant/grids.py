"""Uniform 1-D grids, wave functions and basic packet operations.

Conventions used throughout the package (natural units unless stated):

* a wave function is a complex array sampled on a uniform grid, tagged with
  the representation it lives in (position, momentum, oriented energy or
  arrival time) and the physical constants (hbar, mass),
* the squared norm is the Riemann sum ``sum |psi_i|^2 * step``,
* the momentum operator is ``(hbar/i) d/dx``,
* packets are expected to decay at the grid edges; periodic wrap-around is a
  discretization artefact, never physics.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (GridMismatch, GridTooSmall, InvalidParameter,
                     NonPositiveWidth, RepMismatch)


class Representation(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"
    ORIENTED_ENERGY = "oriented_energy"
    ARRIVAL_TIME = "arrival_time"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid: point(i) = origin + i * step for 0 <= i < count."""

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.origin) and math.isfinite(self.step)):
            raise InvalidParameter("grid origin and step must be finite")
        if self.step <= 0.0:
            raise InvalidParameter(f"grid step must be positive, got {self.step}")
        if self.count < 8:
            raise InvalidParameter(f"grid needs at least 8 points, got {self.count}")

    @cached_property
    def points(self) -> np.ndarray:
        pts = self.origin + self.step * np.arange(self.count)
        pts.setflags(write=False)
        return pts

    def point(self, i: int) -> float:
        return self.origin + i * self.step

    @property
    def span(self) -> float:
        """Length of the sampled box, count * step."""
        return self.count * self.step

    @property
    def last(self) -> float:
        return self.point(self.count - 1)

    def conjugate(self, hbar: float) -> "Grid1D":
        """Fourier-conjugate grid: step 2*pi*hbar/span, centered on zero."""
        dk = 2.0 * math.pi * hbar / self.span
        return Grid1D(-(self.count // 2) * dk, dk, self.count)

    @classmethod
    def from_bounds(cls, lo: float, hi: float, count: int) -> "Grid1D":
        """Grid covering [lo, hi) with the usual half-open FFT layout."""
        if not hi > lo:
            raise InvalidParameter(
                f"grid bounds must increase, got min {lo:g}, max {hi:g}")
        return cls(lo, (hi - lo) / count, count)


@dataclass(frozen=True)
class PhysicalParams:
    """Planck constant and particle mass, both strictly positive."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise InvalidParameter("hbar must be positive")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidParameter("mass must be positive")


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Sampled wave function tagged with its representation.

    Values are stored as an immutable complex128 copy; operations on wave
    functions are pure functions returning new instances.
    """

    grid: Grid1D
    values: np.ndarray
    rep: Representation
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != (self.grid.count,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid count {self.grid.count}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values, self.rep, self.params)

    def require_rep(self, rep: Representation) -> None:
        if self.rep is not rep:
            raise RepMismatch(f"expected {rep.value} representation, got {self.rep.value}")


def _cis(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta: cos and sin written into the real and
    imaginary parts of one complex array, half the work of a complex exp.
    Forms the unit phases of the packet carrier, of resampling and of the
    Fourier steps; it lives here, at the bottom of the import order, so
    every module can use it."""
    out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _cis_ramp(a: float, b: float, n: int) -> np.ndarray:
    """exp(i (a + k b)) for k = 0 .. n-1, from two tables of about sqrt(n)
    phases: with k = q L + r, the outer product of exp(i (a + q L b)) and
    exp(i r b), so cos and sin run on 2 sqrt(n) points instead of n.  Each
    table phase rounds like _cis of its own argument, and the product adds a
    few ulps of unit modulus."""
    size = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n)), at least 1
    coarse = _cis(a + b * np.arange(0, n, size, dtype=np.float64))
    fine = _cis(b * np.arange(size, dtype=np.float64))
    return np.multiply.outer(coarse, fine).ravel()[:n]


def norm_squared(psi: WaveFunction) -> float:
    """Squared L2 norm, sum |psi_i|^2 * step."""
    return float(np.sum(np.abs(psi.values) ** 2) * psi.grid.step)


def inner_product(phi: WaveFunction, psi: WaveFunction) -> complex:
    """Sesquilinear product sum conj(phi_i) psi_i * step (linear in psi)."""
    if phi.grid != psi.grid:
        raise GridMismatch("inner product requires identical grids")
    if phi.rep is not psi.rep:
        raise RepMismatch("inner product requires matching representations")
    return complex(np.sum(np.conj(phi.values) * psi.values) * phi.grid.step)


def moments(psi: WaveFunction) -> tuple[float, float]:
    """Mean and standard deviation of the wave function's own coordinate."""
    w = np.abs(psi.values) ** 2
    total = np.sum(w)
    if total <= 0.0:
        raise ValueError("cannot compute moments of the zero function")
    u = psi.points
    mean = float(np.sum(u * w) / total)
    var = float(np.sum((u - mean) ** 2 * w) / total)
    return mean, math.sqrt(max(var, 0.0))


def packet_fits_box(psi: WaveFunction) -> bool:
    """True when |values| fall below 1e-12 * max|values| in the outer 5 % of
    the grid at both edges."""
    n_edge = max(1, int(0.05 * psi.grid.count))
    amp = np.abs(psi.values)
    peak = amp.max()
    if peak == 0.0:
        return True
    edge = max(amp[:n_edge].max(), amp[-n_edge:].max())
    return bool(edge <= 1e-12 * peak)


def _normalized(grid: Grid1D, values: np.ndarray, rep: Representation,
                params: PhysicalParams) -> WaveFunction:
    """The packet values / ||values|| on grid, the one normalization of every
    packet builder; a norm that is zero (the packet underflows on this grid)
    or not finite raises GridTooSmall."""
    nrm = math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.step))
    if not (nrm > 0.0 and math.isfinite(nrm)):
        raise GridTooSmall(
            f"the packet's norm on this grid is {nrm:g}, so it cannot be normalized")
    return WaveFunction(grid, values / nrm, rep, params)


def gaussian_packet(grid: Grid1D, params: PhysicalParams, center_x: float,
                    center_p: float, sigma_p: float) -> WaveFunction:
    """Normalized minimum-uncertainty packet in the position representation.

    sigma_p is the standard deviation of the momentum density |psi~(p)|^2; the
    position spread is hbar / (2 sigma_p).  The returned packet is normalized
    on the grid and checked against the edge-decay requirement.
    """
    if not (sigma_p > 0.0 and math.isfinite(sigma_p)):
        raise NonPositiveWidth(f"sigma_p must be positive, got {sigma_p}")
    sigma_x = params.hbar / (2.0 * sigma_p)
    if not sigma_x <= grid.span:  # checked before squaring, which can overflow
        raise GridTooSmall(
            f"packet width hbar / (2 sigma_p) = {sigma_x:.3e} exceeds the grid box "
            f"{grid.span:.3e}")
    x = grid.points
    values = _cis_ramp(center_p * (grid.origin - center_x) / params.hbar,
                       center_p * grid.step / params.hbar, grid.count)
    values *= np.exp(-((x - center_x) ** 2) / (4.0 * sigma_x**2))
    psi = _normalized(grid, values, Representation.POSITION, params)
    if not packet_fits_box(psi):
        raise GridTooSmall(
            "packet does not decay below the edge tolerance inside the grid box")
    return psi


def spectral_derivative(values: np.ndarray, step: float) -> np.ndarray:
    """d/du of periodic samples via the FFT, along the last axis; the Nyquist
    mode is dropped.

    Zeroing the Nyquist multiplier keeps the derivative matrix exactly
    anti-Hermitian on even-length grids.
    """
    n = values.shape[-1]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(values))


# The 32-point Gauss-Legendre rule on [-1, 1], bit for bit the one
# numpy.polynomial.legendre.leggauss(32) gives, written out so that no process
# pays for importing numpy.polynomial.  The rule is symmetric about 0; the
# tables hold its positive nodes in increasing order and their weights.
_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
    0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
    0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
    0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
    0.9972638618494816])
_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
    0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
    0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
    0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
    0.007018610009470506])
_LEGENDRE_NODES = np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_LEGENDRE_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))


def gauss_panels(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """32-point Gauss-Legendre nodes and weights on the panels [lo, hi]
    (broadcast), with a trailing axis of 32 points: summing
    ``weights * f(nodes)`` over it integrates f over each panel."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    mid = (0.5 * (lo + hi))[..., None]
    half = (0.5 * (hi - lo))[..., None]
    return mid + half * _LEGENDRE_NODES, half * _LEGENDRE_WEIGHTS


def probability_current(psi: WaveFunction) -> np.ndarray:
    """Probability current j(x) = (hbar/m) Im(conj(psi) dpsi/dx) at the
    points of psi's grid, as a read-only float64 array.

    The derivative is spectral, which is accurate for packets that decay at
    the box edges.
    """
    psi.require_rep(Representation.POSITION)
    dpsi = spectral_derivative(psi.values, psi.grid.step)
    j = (psi.params.hbar / psi.params.mass) * np.imag(np.conj(psi.values) * dpsi)
    j.setflags(write=False)
    return j
