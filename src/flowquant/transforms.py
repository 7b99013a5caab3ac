"""Unitary changes of representation.

Kernels (1-D, explicit hbar):

* position -> momentum:        psi~(p) = (2 pi hbar)^(-1/2) integral psi(x)  exp(-i p x / hbar) dx
* momentum -> position:        psi(x)  = (2 pi hbar)^(-1/2) integral psi~(p) exp(+i p x / hbar) dp
* free evolution (momentum):   multiply by exp(-i p^2 t / (2 m hbar))
* momentum -> oriented energy: phi~(s) = psi~(sgn(s) sqrt(2 m |s|)) * (m / (2|s|))^(1/4)
  with s = sgn(p) p^2 / (2m), the kinetic energy signed by the direction of motion
* oriented energy -> arrival:  phi(T) = (2 pi hbar)^(-1/2) integral phi~(s) exp(-i s T / hbar) ds

The arrival kernel sign is fixed by the spectral pairing of the operator
(hbar/i) d/ds: with exp(-i s T / hbar), the variable T of a quasiclassical
right-mover concentrates at the classical oriented arrival time -m <x> / p0,
and free evolution acts on the amplitude as the substitution T -> T + t
(right-movers carry forward-in-time phases exp(-i|s|t/hbar), left-movers the
conjugate).

The discrete Fourier steps evaluate the continuum kernels exactly at the grid
points (origin-offset phase factors included), so round trips on conjugate
grids are identities to rounding and Parseval holds to ~1e-13.  The momentum
operator convention is (hbar/i) d/dx.

The oriented-energy map is a change of variables with a Jacobian square root
that diverges at p = 0; inputs must carry negligible probability mass below a
momentum floor fixed at four momentum-grid steps.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatch, InvalidParameter, LowMomentumMass
from .grids import Grid1D, Representation, WaveFunction, norm_squared
from .resample import _cis, _cis_ramp, interpolate

#: Largest mass below the momentum floor (absolute, for unit-norm states)
#: that the oriented-energy map and the mover split accept.
_LOW_P_MASS_TOL = 1e-6

#: Amplitudes below this fraction of the peak are treated as numerically zero
#: when locating the support of a packet.
_SUPPORT_CUT = 1e-13

#: Default s-grid: span margin over the support's largest |s|, and the
#: smallest and largest point counts.
_S_MARGIN = 1.3
_MIN_S_COUNT = 1024
_MAX_S_COUNT = 2**22


@dataclass(frozen=True)
class TransformReport:
    """Norms before and after a change of representation, and the relative
    unitarity defect |norm_out - norm_in| / norm_in (0 for a zero input)."""

    norm_in: float
    norm_out: float
    unitarity_defect: float

    @classmethod
    def from_norms(cls, norm_in: float, norm_out: float) -> "TransformReport":
        defect = abs(norm_out - norm_in) / norm_in if norm_in > 0.0 else 0.0
        return cls(norm_in, norm_out, defect)


def _continuum_dft(values: np.ndarray, grid_in: Grid1D, grid_out: Grid1D,
                   sign: int, hbar: float) -> np.ndarray:
    """Riemann sum (du/sqrt(2 pi hbar)) sum_j v_j exp(sign i u_j w_k / hbar),
    over the last axis of values.

    Requires conjugate grids (du * dw = 2 pi hbar / N, equal counts); then the
    sum reduces to an FFT with origin-offset pre/post phases and is exactly
    unitary.
    """
    n = grid_in.count
    if grid_out.count != n:
        raise GridMismatch("conjugate grids must have equal counts")
    if not math.isclose(grid_in.step * grid_out.step * n, 2.0 * math.pi * hbar,
                        rel_tol=1e-12):
        raise GridMismatch("grids are not Fourier-conjugate for this hbar")
    u = grid_in.points
    pre = _cis(u * grid_out.origin * (sign / hbar))
    if sign < 0:
        core = np.fft.fft(values * pre)
    else:
        core = np.fft.ifft(values * pre) * n
    k = np.arange(n)
    post = _cis(grid_in.origin * k * grid_out.step * (sign / hbar))
    return (grid_in.step / math.sqrt(2.0 * math.pi * hbar)) * post * core


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n.

    Sizes the default s-grid (above 1024 such numbers lie at most 6.7 %
    apart, so the grid oversamples its spacing bound by less than 7 %, where
    a power of two did by up to 2x), and pads the chirp-z FFTs, whose length
    (input plus output count) has no special form.
    """
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << ((n + f35 - 1) // f35 - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _cis_chirp(theta: float, j0: int, n: int) -> np.ndarray:
    """exp(i theta j^2 / 2) for j = j0 .. j0 + n - 1, from three tables of
    about sqrt(n) phases, the quadratic counterpart of _cis_ramp.  With
    j = j0 + q L + r and 0 <= r < L,

        j^2 = [(j0 + q L)^2 - L q^2] + [2 j0 r - (L - 1) r^2] + L (q + r)^2,

    a part in q, a part in r and a part in q + r, the last read through a
    sliding window.  The brackets are formed exactly in integers, so each
    table phase takes one rounding.  The coarse phases are at most the
    largest theta j^2 / 2 of the range, the others of order theta n^1.5, and
    the largest phase sets the error, as it does for the direct form.
    """
    size = math.isqrt(max(n - 1, 0)) + 1  # L = ceil(sqrt(n)), at least 1
    rows = -(-n // size)
    q = np.arange(rows, dtype=np.int64)
    r = np.arange(size, dtype=np.int64)
    s = np.arange(rows + size - 1, dtype=np.int64)
    half = 0.5 * theta
    coarse = _cis(half * ((j0 + q * size) ** 2 - size * q * q).astype(np.float64))
    fine = _cis(half * (2 * j0 * r - (size - 1) * r * r).astype(np.float64))
    diagonal = _cis(half * (size * s * s).astype(np.float64))
    chirp = np.multiply.outer(coarse, fine)
    chirp *= sliding_window_view(diagonal, size)  # [q, r] reads q + r
    return chirp.ravel()[:n]


@functools.lru_cache(maxsize=1)
def _chirp_plan(size: int, m: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Chirp c_j = exp(i theta j^2 / 2) for j = m - size .. m - 1, and the FFT
    of its conjugate laid out circularly (j >= 0 first, then j < 0).

    Serves every input length n <= size - m + 1: the outputs k < m only read
    the kernel at k - i >= 1 - n >= m - size.  The movers of one packet share
    the s-grid and T-grid, so the last plan is kept for the next call.  Both
    arrays are read-only, as they are shared between callers.
    """
    chirp = _cis_chirp(theta, m - size, size)
    kernel_fft = np.fft.fft(np.roll(chirp.conj(), m - size))
    for a in (chirp, kernel_fft):
        a.setflags(write=False)
    return chirp, kernel_fft


def _chirp_z(x: np.ndarray, m: int, theta: float) -> np.ndarray:
    """sum_n x_n exp(i theta n k) for k < m, by Bluestein's chirp-z algorithm,
    along the last axis of x.

    With n k = (n^2 + k^2 - (k - n)^2) / 2 the sum is a circular convolution
    with the conjugate chirp, done by FFTs of one size (Bluestein 1970;
    Rabiner, Schafer & Rader 1969).  Any real theta serves, zero and
    negative included.
    """
    n = x.shape[-1]
    size = _fft_size(n + m - 1)
    chirp, kernel_fft = _chirp_plan(size, m, theta)
    zero = size - m  # index of j = 0 in the chirp
    a = np.fft.fft(x * chirp[zero - n + 1:zero + 1][::-1], size)  # c_{-n} = c_n
    a *= kernel_fft
    # norm="forward" leaves the inverse unscaled; 1/size rides on the m-point chirp.
    return np.fft.ifft(a, norm="forward")[..., :m] * (chirp[zero:] * (1.0 / size))


def _trig_sum(values: np.ndarray, u0: float, du: float, w0: float, dw: float,
              count: int, sign: int, hbar: float) -> np.ndarray:
    """(du / sqrt(2 pi hbar)) sum_j values[..., j] exp(sign i u_j w_k / hbar)
    with u_j = u0 + j du and w_k = w0 + k dw for k < count, along the last
    axis of values, by one chirp-z.  The output points need not form a
    Grid1D: any count >= 1 and any real dw, zero and negative included."""
    # Both phases are arithmetic progressions in the sample index.
    y = _cis_ramp(u0 * w0 * (sign / hbar), du * w0 * (sign / hbar), values.shape[-1])
    y = np.multiply(y, values)
    core = _chirp_z(y, count, sign * du * dw / hbar)
    post = _cis_ramp(0.0, u0 * dw * (sign / hbar), count)
    return (du / math.sqrt(2.0 * math.pi * hbar)) * post * core


def fourier_eval(values: np.ndarray, grid_in: Grid1D, grid_out: Grid1D,
                 sign: int, hbar: float) -> np.ndarray:
    """Same Riemann sum evaluated on an arbitrary uniform output grid, along
    the last axis of values.

    Uses the chirp-z transform, so the output grid is free to have any origin,
    spacing and count.  Unlike the conjugate-grid path this is not exactly
    norm-preserving; it is the trigonometric evaluation of the input samples.
    Runs of exact zeros at either end of the input (of every row, for a
    stack of rows) add nothing to the sum and are skipped, so the cost scales
    with the nonzero span: a single mover's oriented-energy samples, zero on
    the other sign of s, cost half a grid.  Rows that share that span get
    the bits of one-row calls.
    """
    # argmax on the mask finds each end without an index array.
    nonzero = values != 0.0
    if nonzero.ndim > 1:
        nonzero = nonzero.reshape(-1, nonzero.shape[-1]).any(axis=0)
    lo = int(nonzero.argmax())
    if not nonzero[lo]:
        return np.zeros(values.shape[:-1] + (grid_out.count,), dtype=np.complex128)
    hi = len(nonzero) - int(nonzero[::-1].argmax())
    return _trig_sum(values[..., lo:hi], grid_in.point(lo), grid_in.step,
                     grid_out.origin, grid_out.step, grid_out.count, sign, hbar)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    """Position -> momentum representation on the conjugate grid."""
    psi.require_rep(Representation.POSITION)
    grid = psi.grid.conjugate(psi.params.hbar)
    out = _continuum_dft(psi.values, psi.grid, grid, -1, psi.params.hbar)
    return WaveFunction(grid, out, Representation.MOMENTUM, psi.params)


def to_position(psi_tilde: WaveFunction, x_grid: Grid1D | None = None) -> WaveFunction:
    """Momentum -> position representation on the conjugate grid."""
    psi_tilde.require_rep(Representation.MOMENTUM)
    grid = x_grid or psi_tilde.grid.conjugate(psi_tilde.params.hbar)
    out = _continuum_dft(psi_tilde.values, psi_tilde.grid, grid, +1, psi_tilde.params.hbar)
    return WaveFunction(grid, out, Representation.POSITION, psi_tilde.params)


def evolve_free(psi_tilde: WaveFunction, t: float) -> WaveFunction:
    """Free Schroedinger evolution in the momentum representation.

    Pure phase, hence exactly norm-preserving; phases compose additively in t.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    p = psi_tilde.points
    phase = np.exp(-1j * p**2 * t / (2.0 * psi_tilde.params.mass * psi_tilde.params.hbar))
    return psi_tilde.with_values(psi_tilde.values * phase)


def free_current(psi_tilde: WaveFunction, ts, xs) -> np.ndarray:
    """Probability current j(t, x) = (hbar/m) Im(conj(psi) dpsi/dx) of the
    freely evolving packet at the times ts and the uniform points xs, as a
    len(ts) x len(xs) array.

    psi(t, x) and dpsi/dx are the trigonometric sums of the momentum samples
    psi~_j exp(-i p_j^2 t / (2 m hbar)) and (i p_j / hbar) times them, the
    sums to_position and the spectral derivative would give on the position
    grid, here evaluated exactly at xs: one chirp-z over the rows of all
    times, of cost (n_p + len(xs)) log per time.  Only the contiguous run of
    samples at or above 1e-13 of the peak amplitude enters.  xs must be
    uniform (as np.linspace gives); the points evaluated are xs[0] + k
    (xs[-1] - xs[0]) / (len(xs) - 1), so decreasing and repeated points are
    fine.  The sums are periodic in x with the period 2 pi hbar / dp, the
    span of the position box: points outside the box get a periodic image.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    hbar, mass = psi_tilde.params.hbar, psi_tilde.params.mass
    ts = np.asarray(ts, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    amp = np.abs(psi_tilde.values)
    support = amp >= _SUPPORT_CUT * amp.max()
    lo = int(support.argmax())
    if amp[lo] == 0.0 or ts.size == 0 or xs.size == 0:
        return np.zeros((ts.size, xs.size))  # an all-zero packet carries no current
    hi = amp.size - int(support[::-1].argmax())
    dx = (xs[-1] - xs[0]) / (xs.size - 1) if xs.size > 1 else 0.0
    scale = max(float(np.abs(xs).max()), np.finfo(np.float64).tiny)
    if np.abs(xs - (xs[0] + dx * np.arange(xs.size))).max() > 1e-12 * scale:
        raise InvalidParameter("free_current needs uniformly spaced points xs")
    p = psi_tilde.points[lo:hi]
    # [0] the amplitudes of psi at (t, p), [1] those of dpsi/dx
    rows = np.empty((2, ts.size, p.size), dtype=np.complex128)
    rows[0] = _cis(np.multiply.outer(ts, p**2 * (-0.5 / (mass * hbar))))
    rows[0] *= psi_tilde.values[lo:hi]
    np.multiply(rows[0], 1j * p / hbar, out=rows[1])
    psi, dpsi = _trig_sum(rows, p[0], psi_tilde.grid.step, xs[0], dx, xs.size, +1, hbar)
    return (hbar / mass) * np.imag(np.conj(psi) * dpsi)


def default_momentum_floor(p_grid: Grid1D) -> float:
    """Momentum floor below which the energy map is ill-conditioned: 4 dp."""
    return 4.0 * p_grid.step


def low_momentum_mass(psi_tilde: WaveFunction, p_min: float) -> float:
    """Probability mass carried by samples with |p| < p_min."""
    psi_tilde.require_rep(Representation.MOMENTUM)
    p = psi_tilde.points  # increasing: |p| < p_min is one contiguous run
    low = slice(np.searchsorted(p, -p_min, side="right"), np.searchsorted(p, p_min))
    return float(np.sum(np.abs(psi_tilde.values[low]) ** 2) * psi_tilde.grid.step)


def _momentum_floor(psi_tilde: WaveFunction) -> float:
    """default_momentum_floor(psi_tilde.grid), after refusing a wave function
    with more than _LOW_P_MASS_TOL of mass below it."""
    p_min = default_momentum_floor(psi_tilde.grid)
    leak = low_momentum_mass(psi_tilde, p_min)
    if leak > _LOW_P_MASS_TOL:
        raise LowMomentumMass(
            f"mass {leak:.3e} below |p| < {p_min:.3e} exceeds {_LOW_P_MASS_TOL:g}; "
            "the Jacobian of the energy map diverges at p = 0")
    return p_min


def default_oriented_grid(psi_tilde: WaveFunction, p_min: float | None = None) -> Grid1D:
    """Uniform s-grid adapted to the packet's support.

    The span covers the signed kinetic energies of the amplitude support with
    a 1.3x margin; the spacing is at most ds_target = p_lo dp / (2 m), half
    the momentum grid's information density at the inner support edge p_lo
    (ds = |p| dp / m there), which also guarantees the arrival-time content
    of any packet that fits the position box is below Nyquist.  The count is
    the smallest 2-3-5-smooth number that meets that spacing (between 1024
    and 2^22 points), so the FFTs of the arrival step stay fast without the
    up to 2x oversampling of a power of two.  Depends on |psi~| only, so
    phase changes (free evolution) leave the default grid unchanged.  An
    all-zero input has no support and gets the 1024-point minimum grid over
    the momentum box.
    """
    m = psi_tilde.params.mass
    p = psi_tilde.points
    amp = np.abs(psi_tilde.values)
    s_box = float(np.abs(p).max()) ** 2 / (2.0 * m) * _S_MARGIN
    peak = amp.max()
    if peak == 0.0:  # nothing to resolve: the minimum grid over the box
        s_max, count = s_box, _MIN_S_COUNT
    else:
        if p_min is None:
            p_min = default_momentum_floor(psi_tilde.grid)
        p_sup = np.abs(p[amp >= _SUPPORT_CUT * peak])
        p_lo = max(float(p_sup.min()), p_min)
        s_max = min(_S_MARGIN * float(p_sup.max()) ** 2 / (2.0 * m), s_box)
        ds_target = 0.5 * p_lo * psi_tilde.grid.step / m
        need = min(math.ceil(2.0 * s_max / ds_target), _MAX_S_COUNT)
        count = max(_fft_size(need), _MIN_S_COUNT)  # 2^22 is 5-smooth: no overshoot
    ds = 2.0 * s_max / count
    return Grid1D(-(count // 2) * ds, ds, count)


def _pull_back(source: WaveFunction, grid: Grid1D, floor: float,
               node: Callable[[np.ndarray], np.ndarray],
               weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """source(sgn(y) node(|y|)) * weight(|y|) at the points y of grid, zero
    where |y| < floor: each half-axis of the source, interpolated at its own
    sign of y.

    Both grids increase, so each half is one contiguous run of each; the
    negative source half is reversed, so its nodes |u| increase as well.
    """
    u, y = source.points, grid.points
    out = np.zeros(grid.count, dtype=np.complex128)
    halves = ((slice(np.searchsorted(u, 0.0, side="right"), None),
               slice(np.searchsorted(y, floor), None), slice(None)),
              (slice(np.searchsorted(u, 0.0)),
               slice(np.searchsorted(y, -floor, side="right")), slice(None, None, -1)))
    for src, dst, order in halves:
        values = source.values[src][order]
        if np.any(values) and y[dst].size:  # a mover leaves the other half zero
            abs_y = np.abs(y[dst])
            interp = interpolate(np.abs(u[src][order]), values, node(abs_y))
            np.multiply(interp, weight(abs_y), out=out[dst])
    return out


def to_oriented_energy(psi_tilde: WaveFunction, s_grid: Grid1D | None = None,
                       ) -> tuple[WaveFunction, TransformReport]:
    """Momentum -> oriented-energy representation.

    phi~(s) = psi~(sgn(s) sqrt(2 m |s|)) * (m/(2|s|))^(1/4) on a uniform
    s-grid; the two momentum half-axes map to the two signs of s.  Values with
    |s| below s_min = p_min^2/(2m) are set to zero, p_min = 4 dp being the
    momentum floor; more than 1e-6 of mass below it raises LowMomentumMass.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    m = psi_tilde.params.mass
    p_min = _momentum_floor(psi_tilde)
    if s_grid is None:
        s_grid = default_oriented_grid(psi_tilde, p_min)
    out = _pull_back(psi_tilde, s_grid, p_min**2 / (2.0 * m),
                     lambda s: np.sqrt(2.0 * m * s), lambda s: (m / (2.0 * s)) ** 0.25)
    phi = WaveFunction(s_grid, out, Representation.ORIENTED_ENERGY, psi_tilde.params)
    report = TransformReport.from_norms(
        math.sqrt(norm_squared(psi_tilde)), math.sqrt(norm_squared(phi)))
    return phi, report


def from_oriented_energy(phi_tilde: WaveFunction, p_grid: Grid1D,
                         ) -> tuple[WaveFunction, TransformReport]:
    """Oriented-energy -> momentum representation (inverse change of variables).

    psi~(p) = phi~(sgn(p) p^2/(2m)) * sqrt(|p|/m); samples with |p| below the
    momentum floor of p_grid are zero.
    """
    phi_tilde.require_rep(Representation.ORIENTED_ENERGY)
    m = phi_tilde.params.mass
    out = _pull_back(phi_tilde, p_grid, default_momentum_floor(p_grid),
                     lambda p: p ** 2 / (2.0 * m), lambda p: np.sqrt(p / m))
    psi = WaveFunction(p_grid, out, Representation.MOMENTUM, phi_tilde.params)
    report = TransformReport.from_norms(
        math.sqrt(norm_squared(phi_tilde)), math.sqrt(norm_squared(psi)))
    return psi, report


def to_arrival_time(phi_tilde: WaveFunction, grid_T: Grid1D | None = None) -> WaveFunction:
    """Oriented-energy -> arrival-time representation.

    phi(T) = (2 pi hbar)^(-1/2) integral phi~(s) exp(-i s T/hbar) ds, the
    spectral amplitude of the generator (hbar/i) d/ds.  On the conjugate grid
    this is a pure Fourier step (exactly unitary); on a requested grid it is
    the trigonometric evaluation of the same sum.
    """
    phi_tilde.require_rep(Representation.ORIENTED_ENERGY)
    hbar = phi_tilde.params.hbar
    if grid_T is None:
        grid_T = phi_tilde.grid.conjugate(hbar)
        out = _continuum_dft(phi_tilde.values, phi_tilde.grid, grid_T, -1, hbar)
    else:
        out = fourier_eval(phi_tilde.values, phi_tilde.grid, grid_T, -1, hbar)
    return WaveFunction(grid_T, out, Representation.ARRIVAL_TIME, phi_tilde.params)
