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
from functools import cached_property, lru_cache

import numpy as np

from .errors import (GridMismatch, GridTooSmall, InvalidParameter,
                     NegativeMomentumLeak, NonPositiveWidth, RepMismatch)


class _Signature:
    """inspect.signature of a record class: its fields, in order, with their
    defaults.  It is built when asked for, so that making a record class
    needs no inspect; an instance has none of its own."""

    def __get__(self, record, cls):
        if record is not None:
            return None
        from inspect import Parameter, Signature
        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                                    default=cls._defaults.get(name, Parameter.empty),
                                    annotation=cls.__annotations__[name])
                          for name in cls._fields], return_annotation=None)


class _Record:
    """Base of the package's frozen records, which generates no code for a
    class, so a process pays next to nothing for each record class it
    loads: the fields are the class's annotations, in order, and a class
    attribute of a field's name is its default.  The constructor takes the fields by position or keyword
    and then calls __post_init__; a field is never assigned or deleted
    afterwards (__post_init__ and _owning set them through __dict__ or
    object.__setattr__).  Records compare and hash by their fields, or by
    identity for a class declared with eq=False."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    __signature__ = _Signature()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of each field from the constructor's arguments."""
        names = cls._fields
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{cls.__qualname__}() takes the fields ({', '.join(names)}), "
                            f"got {len(args)} positional arguments and the keywords "
                            f"{sorted(kwargs)}")
        return [values[name] for name in names]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")


class Representation(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"
    ORIENTED_ENERGY = "oriented_energy"
    ARRIVAL_TIME = "arrival_time"


class Grid1D(_Record):
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
        return _conjugate(self.step, self.count, hbar)

    @classmethod
    def from_bounds(cls, lo: float, hi: float, count: int) -> "Grid1D":
        """Grid covering [lo, hi) with the usual half-open FFT layout."""
        if not hi > lo:
            raise InvalidParameter(
                f"grid bounds must increase, got min {lo:g}, max {hi:g}")
        return cls(lo, (hi - lo) / count, count)


@lru_cache(maxsize=4)
def _conjugate(step: float, count: int, hbar: float) -> Grid1D:
    """Grid1D.conjugate, kept with its points for the next call: the
    transforms of one box ask for the same two conjugate grids each time."""
    dk = 2.0 * math.pi * hbar / (count * step)
    return Grid1D(-(count // 2) * dk, dk, count)


class PhysicalParams(_Record):
    """Planck constant and particle mass, both strictly positive."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise InvalidParameter("hbar must be positive")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidParameter("mass must be positive")


class WaveFunction(_Record, eq=False):
    """Sampled wave function tagged with its representation.

    Values are stored as an immutable complex128 copy; operations on wave
    functions are pure functions returning new instances.
    """

    grid: Grid1D
    values: np.ndarray
    rep: Representation
    params: PhysicalParams = PhysicalParams()

    def __post_init__(self, copy: bool | None = True):
        _freeze(self, copy, values=np.complex128)
        if self.values.shape != (self.grid.count,):
            raise InvalidParameter(f"values shape {self.values.shape} does not match "
                                   f"grid count {self.grid.count}")
        if not np.isfinite(self.values).all():
            raise InvalidParameter("wave function values must be finite")

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    @cached_property
    def _amp(self) -> np.ndarray:
        """|values|, read-only, taken once and kept like Grid1D.points."""
        amp = np.abs(self.values)
        amp.setflags(write=False)
        return amp

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values, self.rep, self.params)

    def require_rep(self, rep: Representation) -> None:
        if self.rep is not rep:
            raise RepMismatch(f"expected {rep.value} representation, got {self.rep.value}")


def _owning(cls, *values):
    """The record cls of these field values, keeping the fresh arrays among
    them uncopied and read-only: its __post_init__(copy=None) copies only an
    array of another dtype.  The public constructors copy."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values, strict=True))
    obj.__post_init__(copy=None)
    return obj


def _freeze(obj, copy: bool | None, **dtypes) -> None:
    """Set each named array field of the frozen record obj to a read-only
    array of its dtype: a copy, or with copy=None (from _owning) the array
    itself where its dtype already matches."""
    for name, dtype in dtypes.items():
        arr = np.array(getattr(obj, name), dtype=dtype, copy=copy)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


#: Amplitudes below this fraction of the peak are treated as numerically zero
#: when locating the support of a packet (_support, default_oriented_grid).
_SUPPORT_CUT = 1e-13


def _support(amp: np.ndarray) -> tuple[int, int]:
    """The first and last index of amp at or above _SUPPORT_CUT of its peak:
    0 and the last index when amp is all zero."""
    support = amp >= _SUPPORT_CUT * amp.max()
    return int(support.argmax()), amp.size - 1 - int(support[::-1].argmax())


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
    few ulps of unit modulus.  The tables are cached; the result is a fresh
    array, the caller's to overwrite (gaussian_packet multiplies it in
    place)."""
    # The signs tell a zero from a negative zero, which the key's == does not.
    coarse, fine = _ramp_tables(a, b, n, math.copysign(1.0, a), math.copysign(1.0, b))
    return np.multiply.outer(coarse, fine).ravel()[:n]


# A packet's way from position to arrival time asks for five to ten ramps;
# to_momentum's two, and to_position's two, are the same on every call.
@lru_cache(maxsize=32)
def _ramp_tables(a: float, b: float, n: int, *signs: float) -> tuple[np.ndarray, np.ndarray]:
    """_cis_ramp's two tables, read-only, as they are shared between callers;
    signs, those of a and b, only key the cache."""
    size = math.isqrt(max(n - 1, 0)) + 1  # ceil(sqrt(n)), at least 1
    coarse = _cis(a + b * np.arange(0, n, size, dtype=np.float64))
    fine = _cis(b * np.arange(size, dtype=np.float64))
    for table in (coarse, fine):
        table.setflags(write=False)
    return coarse, fine


def norm_squared(psi: WaveFunction) -> float:
    """Squared L2 norm, sum |psi_i|^2 * step."""
    return float(np.sum(psi._amp ** 2) * psi.grid.step)


def inner_product(phi: WaveFunction, psi: WaveFunction) -> complex:
    """Sesquilinear product sum conj(phi_i) psi_i * step (linear in psi)."""
    if phi.grid != psi.grid:
        raise GridMismatch("inner product requires identical grids")
    if phi.rep is not psi.rep:
        raise RepMismatch("inner product requires matching representations")
    return complex(np.sum(np.conj(phi.values) * psi.values) * phi.grid.step)


def moments(psi: WaveFunction) -> tuple[float, float]:
    """Mean and standard deviation of the wave function's own coordinate.
    Where a plain sum passes float64 they are taken again over the nonzero
    weights, normalised before the products, with the spread scaled by the
    largest |u - mean|: finite for any grid.  The zero function raises
    InvalidParameter."""
    w = psi._amp ** 2
    total = np.sum(w)
    if total <= 0.0:
        raise InvalidParameter("cannot compute moments of the zero function")
    u = psi.points
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0 where w is 0
        mean = float(np.sum(u * w) / total)
        var = float(np.sum((u - mean) ** 2 * w) / total)
    if math.isfinite(mean) and math.isfinite(var):
        return mean, math.sqrt(max(var, 0.0))
    held = w > 0.0  # zero-weight terms count as 0, not as inf * 0
    u, w = u[held], w[held]
    mean = float(np.sum(u * (w / total)))
    d = u - mean
    scale = float(np.abs(d).max()) or 1.0  # all d zero: the spread is 0
    return mean, scale * math.sqrt(float(np.sum((d / scale) ** 2 * w) / total))


def packet_fits_box(psi: WaveFunction) -> bool:
    """True when |values| fall below 1e-12 * max|values| in the outer 5 % of
    the grid at both edges."""
    n_edge = max(1, int(0.05 * psi.grid.count))
    amp = psi._amp
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
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        nrm = math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.step))
    if not (nrm > 0.0 and math.isfinite(nrm)):
        raise GridTooSmall(
            f"the packet's norm on this grid is {nrm:g}, so it cannot be normalized")
    return _owning(WaveFunction, grid, values / nrm, rep, params)


def _envelope(u: np.ndarray, center: float, width: float) -> np.ndarray:
    """exp(-(u - center)^2 / (4 width^2)), the Gaussian envelope of every
    packet.  A width whose 4 width^2 overflows float64 raises
    InvalidParameter before the square is taken: width ** 2 of a Python
    float raises OverflowError; so does one whose 4 width^2 underflows to 0.
    A (u - center)^2 past float64 is inf, where the envelope is 0."""
    if not 0.0 < 4.0 * width * width < math.inf:
        size, fate = ("large", "overflows") if width > 1.0 else ("small", "underflows")
        raise InvalidParameter(
            f"Gaussian width {width:.3e} is too {size}: 4 width^2 {fate} float64")
    with np.errstate(over="ignore"):
        return np.exp(-((u - center) ** 2) / (4.0 * width**2))


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
    if not sigma_x <= grid.span:
        raise GridTooSmall(
            f"packet width hbar / (2 sigma_p) = {sigma_x:.3e} exceeds the grid box "
            f"{grid.span:.3e}")
    phase, step = (center_p * (grid.origin - center_x) / params.hbar,
                   center_p * grid.step / params.hbar)
    if not (math.isfinite(phase) and math.isfinite(step)):
        raise InvalidParameter(f"the carrier phase center_p x / hbar is not finite in "
                               f"float64 (center_p {center_p:.3e}, hbar {params.hbar:.3e})")
    values = _cis_ramp(phase, step, grid.count)
    values *= _envelope(grid.points, center_x, sigma_x)
    psi = _normalized(grid, values, Representation.POSITION, params)
    if not packet_fits_box(psi):
        raise GridTooSmall(
            "packet does not decay below the edge tolerance inside the grid box")
    return psi


class BackflowSpec(_Record):
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
    g1, g2 = _envelope(p, spec.p1, spec.sigma), _envelope(p, spec.p2, spec.sigma)
    values = spec.a1 * g1 + spec.a2 * np.exp(1j * spec.rel_phase) * g2
    psi = _normalized(grid_p, values, Representation.MOMENTUM, params)
    neg_mass = float(np.sum(psi._amp[p < 0.0] ** 2) * grid_p.step)
    if neg_mass > 1e-10:
        raise NegativeMomentumLeak(
            f"negative-momentum mass {neg_mass:.3e} exceeds 1e-10")
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
    half = 0.5 * (hi - lo)
    nodes = np.multiply.outer(half, _LEGENDRE_NODES)
    nodes += (0.5 * (lo + hi))[..., None]
    return nodes, np.multiply.outer(half, _LEGENDRE_WEIGHTS)


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
