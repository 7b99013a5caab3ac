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

Each Fourier step is one function, _trig_sum: the continuum kernel's Riemann
sum evaluated exactly at the output points (origin-offset phases included),
by one FFT on conjugate grids (round trips are identities to rounding and
Parseval holds to ~1e-13) and one chirp-z elsewhere.  The momentum operator
convention is (hbar/i) d/dx.

The oriented-energy map is a change of variables with a Jacobian square root
that diverges at p = 0; inputs must carry negligible probability mass below a
momentum floor fixed at four momentum-grid steps.
"""

import functools
import math
from typing import Callable

import numpy as np

from .errors import InvalidParameter, LowMomentumMass
from .grids import (_SUPPORT_CUT, Grid1D, Representation, WaveFunction, _cis,
                    _cis_ramp, _owning, _Record, _support, norm_squared)

# _pull_back imports resample itself, so that only the commands that
# interpolate load it.

#: Largest mass below the momentum floor (absolute, for unit-norm states)
#: that the oriented-energy map and the mover split accept.
_LOW_P_MASS_TOL = 1e-6

#: Default s-grid: the smallest and largest point counts.
_MIN_S_COUNT = 1024
_MAX_S_COUNT = 2**22


class TransformReport(_Record):
    """Norms before and after a change of representation, and the relative
    unitarity defect |norm_out - norm_in| / norm_in (0 for a zero input)."""

    norm_in: float
    norm_out: float
    unitarity_defect: float

    @classmethod
    def between(cls, before: WaveFunction, after: WaveFunction) -> "TransformReport":
        """The report of the change of representation from before to after."""
        norm_in, norm_out = math.sqrt(norm_squared(before)), math.sqrt(norm_squared(after))
        defect = abs(norm_out - norm_in) / norm_in if norm_in > 0.0 else 0.0
        return cls(norm_in, norm_out, defect)


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
    # [q, r] reads diagonal[q + r]: a strided view, no index array
    chirp *= np.ndarray((rows, size), np.complex128, diagonal, strides=diagonal.strides * 2)
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
    kernel = np.empty_like(chirp)
    np.conjugate(chirp[size - m:], out=kernel[:m])  # j = 0 .. m - 1
    np.conjugate(chirp[:size - m], out=kernel[m:])  # j = m - size .. -1
    kernel_fft = np.fft.fft(kernel)
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
    axis of values: one FFT, exactly unitary, on conjugate points (count
    equal to the input length n, du dw n = 2 pi hbar), one chirp-z on any
    other count >= 1 and real dw, zero and negative included."""
    n = values.shape[-1]
    # Both phases are arithmetic progressions in the sample index.
    pre = _cis_ramp(u0 * w0 * (sign / hbar), du * w0 * (sign / hbar), n)
    # The operand orders differ on purpose: with FMA a complex product is not
    # bitwise commutative, and each core keeps the bits of its callers.
    if count == n and math.isclose(du * dw * n, 2.0 * math.pi * hbar, rel_tol=1e-12):
        core = np.fft.fft(values * pre) if sign < 0 else np.fft.ifft(values * pre) * n
    else:
        core = _chirp_z(np.multiply(pre, values), count, sign * du * dw / hbar)
    post = _cis_ramp(0.0, u0 * dw * (sign / hbar), count)
    return (du / math.sqrt(2.0 * math.pi * hbar)) * post * core


def _trimmed_trig_sum(values: np.ndarray, start: int, grid_in: Grid1D, grid_out: Grid1D,
                      sign: int, hbar: float) -> np.ndarray:
    """fourier_eval of values, the samples of grid_in from index start on; the
    kept run starts at its point on the whole grid_in, which rounds alike."""
    nonzero = values != 0.0  # argmax on the mask finds each end without an index array
    if not nonzero.any():
        return np.zeros(grid_out.count, dtype=np.complex128)
    lo = int(nonzero.argmax())
    hi = len(nonzero) - int(nonzero[::-1].argmax())
    return _trig_sum(values[lo:hi], grid_in.point(start + lo), grid_in.step,
                     grid_out.origin, grid_out.step, grid_out.count, sign, hbar)


def fourier_eval(values: np.ndarray, grid_in: Grid1D, grid_out: Grid1D,
                 sign: int, hbar: float) -> np.ndarray:
    """_trig_sum's Riemann sum of the 1-D samples on grid_in at the points of
    grid_out.

    The output grid may have any origin, spacing and count; only on the
    conjugate grid is the sum norm-preserving (to rounding).  Runs of exact
    zeros at either end of the input add nothing to the sum and are skipped,
    so the cost scales with the nonzero span: a single mover's
    oriented-energy samples, zero on the other sign of s, cost half a grid.
    """
    return _trimmed_trig_sum(values, 0, grid_in, grid_out, sign, hbar)


def to_momentum(psi: WaveFunction) -> WaveFunction:
    """Position -> momentum representation on the conjugate grid: one FFT."""
    psi.require_rep(Representation.POSITION)
    x, grid = psi.grid, psi.grid.conjugate(psi.params.hbar)
    # Not fourier_eval: trimming the envelope's zero ends would leave the FFT.
    out = _trig_sum(psi.values, x.origin, x.step, grid.origin, grid.step, grid.count,
                    -1, psi.params.hbar)
    return _owning(WaveFunction, grid, out, Representation.MOMENTUM, psi.params)


def to_position(psi_tilde: WaveFunction, x_grid: Grid1D | None = None) -> WaveFunction:
    """Momentum -> position representation on x_grid (default: the conjugate
    grid): one FFT on a conjugate grid of any origin, one chirp-z on another."""
    psi_tilde.require_rep(Representation.MOMENTUM)
    p, grid = psi_tilde.grid, x_grid or psi_tilde.grid.conjugate(psi_tilde.params.hbar)
    out = _trig_sum(psi_tilde.values, p.origin, p.step, grid.origin, grid.step, grid.count,
                    +1, psi_tilde.params.hbar)
    return _owning(WaveFunction, grid, out, Representation.POSITION, psi_tilde.params)


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
    amp = psi_tilde._amp
    lo, hi = _support(amp)
    if amp[lo] == 0.0 or ts.size == 0 or xs.size == 0:
        return np.zeros((ts.size, xs.size))  # an all-zero packet carries no current
    dx = (xs[-1] - xs[0]) / (xs.size - 1) if xs.size > 1 else 0.0
    scale = max(float(np.abs(xs).max()), np.finfo(np.float64).tiny)
    if np.abs(xs - (xs[0] + dx * np.arange(xs.size))).max() > 1e-12 * scale:
        raise InvalidParameter("free_current needs uniformly spaced points xs")
    p = psi_tilde.points[lo:hi + 1]
    # [0] the amplitudes of psi at (t, p), [1] those of dpsi/dx
    rows = np.empty((2, ts.size, p.size), dtype=np.complex128)
    rows[0] = _cis(np.multiply.outer(ts, p**2 * (-0.5 / (mass * hbar))))
    rows[0] *= psi_tilde.values[lo:hi + 1]
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
    return float(np.sum(psi_tilde._amp[low] ** 2) * psi_tilde.grid.step)


def _refuse_square_overflow(p: float, what: str) -> None:
    """Refuse a momentum whose square overflows float64 with one line,
    before p ** 2 of the Python float raises OverflowError."""
    if not math.isfinite(p * p):
        raise InvalidParameter(
            f"{what} {p:.3e} is too large: its square overflows float64")


def _momentum_floor(psi_tilde: WaveFunction) -> float:
    """default_momentum_floor(psi_tilde.grid), after refusing a wave function
    with more than _LOW_P_MASS_TOL of mass below it, then one with more than
    1e-10 on the p = 0 sample, which belongs to neither mover: the one
    admission check of the energy map and the mover split."""
    p_min = default_momentum_floor(psi_tilde.grid)
    leak = low_momentum_mass(psi_tilde, p_min)
    if leak > _LOW_P_MASS_TOL:
        raise LowMomentumMass(
            f"mass {leak:.3e} below |p| < {p_min:.3e} exceeds {_LOW_P_MASS_TOL:g}; "
            "the Jacobian of the energy map diverges at p = 0")
    p = psi_tilde.points  # increasing: the p = 0 samples are one run
    zero = slice(np.searchsorted(p, 0.0), np.searchsorted(p, 0.0, side="right"))
    zero_mass = float(np.sum(psi_tilde._amp[zero] ** 2) * psi_tilde.grid.step)
    if zero_mass > 1e-10:
        raise LowMomentumMass(f"the p = 0 sample carries mass {zero_mass:.3e} > 1e-10")
    return p_min


def default_oriented_grid(psi_tilde: WaveFunction, p_min: float | None = None) -> Grid1D:
    """Uniform s-grid adapted to the packet's support, at the box's critical
    spacing.

    The span is exactly the signed kinetic energies of the amplitude support,
    with no margin: the arrival step is a chirp-z, which needs no guard band.
    The spacing is at most ds_target = p_lo dp / m, the s-spacing of the
    momentum samples themselves at the inner support edge p_lo.  That is the
    critical spacing: by stationary phase a point x of the position box
    (|x| <= L/2, L = 2 pi hbar / dp) arrives at T = -m x / p, so over p >=
    p_lo the arrival content spans m L / p_lo, and the Riemann sum over s
    periodizes phi(T) with period 2 pi hbar / ds, which equals m L / p_lo
    at ds = ds_target.  A finer grid resamples the data below its own
    finest spacing; a coarser one aliases the images of the interpolation
    error near x0 +- L.  The count is the smallest 2-3-5-smooth number that
    meets that spacing (between 1024 and 2^22 points), so the FFTs of the
    arrival step stay fast without the up to 2x oversampling of a power of
    two.  Depends on |psi~| only, so phase changes (free evolution) leave
    the default grid unchanged.  An all-zero input has no support and gets
    the 1024-point minimum grid over the momentum box.
    """
    m = psi_tilde.params.mass
    p, amp = psi_tilde.points, psi_tilde._amp
    peak = amp.max()
    p_sup = np.abs(p[amp >= _SUPPORT_CUT * peak])  # the whole box if peak is 0
    p_hi = float(p_sup.max())
    _refuse_square_overflow(p_hi, "the packet's largest momentum")
    s_max = p_hi ** 2 / (2.0 * m)
    count = _MIN_S_COUNT  # nothing to resolve in a zero packet
    if peak > 0.0:
        if p_min is None:
            p_min = default_momentum_floor(psi_tilde.grid)
        p_lo = max(float(p_sup.min()), p_min)
        ds_target = p_lo * psi_tilde.grid.step / m
        need = min(math.ceil(2.0 * s_max / ds_target), _MAX_S_COUNT)
        count = max(_fft_size(need), _MIN_S_COUNT)  # 2^22 is 5-smooth: no overshoot
    ds = 2.0 * s_max / count
    return Grid1D(-(count // 2) * ds, ds, count)


def _pull_back_half(source: WaveFunction, grid: Grid1D, positive: bool, floor: float,
                    node: Callable[[np.ndarray], np.ndarray],
                    weight: Callable[[np.ndarray], np.ndarray]) -> tuple[int, np.ndarray]:
    """One half-axis of _pull_back: the index of grid's first point of that
    sign with |y| >= floor, and the values from there on (none for a zero
    half).  Only the half's support is interpolated:
    the run of its nodes at or above _SUPPORT_CUT of its own peak, widened
    by half a stencil on each side, so every query inside the run reads the
    stencil windows of the whole half; the other queries are exact zeros."""
    from .resample import _STENCIL, interpolate
    u, y = source.points, grid.points
    if positive:
        src = slice(np.searchsorted(u, 0.0, side="right"), None)
        dst = slice(np.searchsorted(y, floor), None)
    else:
        src = slice(np.searchsorted(u, 0.0))
        dst = slice(0, np.searchsorted(y, -floor, side="right"))
    order = slice(None, None, 1 if positive else -1)  # so that the nodes |u| increase
    values = source.values[src][order]
    if not (np.any(values) and y[dst].size):  # a mover leaves the other half zero
        return dst.start, values[:0]
    first, last = _support(source._amp[src][order])
    lo = max(first - _STENCIL // 2, 0)
    hi = last + 1 + _STENCIL // 2
    abs_y = np.abs(y[dst])
    interp = interpolate(np.abs(u[src][order][lo:hi]), values[lo:hi], node(abs_y))
    return dst.start, np.multiply(interp, weight(abs_y), out=interp)


def _pull_back(source: WaveFunction, grid: Grid1D, rep: Representation, floor: float,
               node: Callable[[np.ndarray], np.ndarray],
               weight: Callable[[np.ndarray], np.ndarray],
               ) -> tuple[WaveFunction, TransformReport]:
    """source(sgn(y) node(|y|)) * weight(|y|) at the points y of grid, zero
    where |y| < floor, as a wave function in rep, and its norm report.  Both
    grids increase, so each half-axis is one run of each, and _pull_back_half
    maps each on its own: the map of a packet is the sum of its movers' maps."""
    out = np.zeros(grid.count, dtype=np.complex128)
    for positive in (True, False):
        start, values = _pull_back_half(source, grid, positive, floor, node, weight)
        out[start:start + values.size] = values
    pulled = _owning(WaveFunction, grid, out, rep, source.params)
    return pulled, TransformReport.between(source, pulled)


def _energy_map(p_min: float, mass: float) -> tuple:
    """The floor, node and weight of _pull_back from momentum to oriented
    energy, after refusing a momentum floor whose square overflows and a
    mass for which the weight (m / 2s)^(1/4), largest at the floor, does."""
    _refuse_square_overflow(p_min, "the momentum floor")
    floor = p_min**2 / (2.0 * mass)
    if not (floor > 0.0 and math.isfinite(mass / (2.0 * floor))):
        raise InvalidParameter(f"mass {mass:.3e} is too large for the momentum floor "
                               f"{p_min:.3e}: the weight (m / 2s)^(1/4) overflows float64")
    return (floor, lambda s: np.sqrt(2.0 * mass * s), lambda s: (mass / (2.0 * s)) ** 0.25)


def to_oriented_energy(psi_tilde: WaveFunction, s_grid: Grid1D | None = None,
                       ) -> tuple[WaveFunction, TransformReport]:
    """Momentum -> oriented-energy representation.

    phi~(s) = psi~(sgn(s) sqrt(2 m |s|)) * (m/(2|s|))^(1/4) on a uniform
    s-grid; the two momentum half-axes map to the two signs of s.  Values with
    |s| below s_min = p_min^2/(2m) are set to zero, p_min = 4 dp being the
    momentum floor; more than 1e-6 of mass below it, or more than 1e-10 on
    the p = 0 sample, raises LowMomentumMass.
    """
    psi_tilde.require_rep(Representation.MOMENTUM)
    m = psi_tilde.params.mass
    p_min = _momentum_floor(psi_tilde)
    if s_grid is None:
        s_grid = default_oriented_grid(psi_tilde, p_min)
    return _pull_back(psi_tilde, s_grid, Representation.ORIENTED_ENERGY,
                      *_energy_map(p_min, m))


def from_oriented_energy(phi_tilde: WaveFunction, p_grid: Grid1D,
                         ) -> tuple[WaveFunction, TransformReport]:
    """Oriented-energy -> momentum representation (inverse change of variables).

    psi~(p) = phi~(sgn(p) p^2/(2m)) * sqrt(|p|/m); samples with |p| below the
    momentum floor of p_grid are zero.
    """
    phi_tilde.require_rep(Representation.ORIENTED_ENERGY)
    m = phi_tilde.params.mass
    return _pull_back(phi_tilde, p_grid, Representation.MOMENTUM,
                      default_momentum_floor(p_grid),
                      lambda p: p ** 2 / (2.0 * m), lambda p: np.sqrt(p / m))


def to_arrival_time(phi_tilde: WaveFunction, grid_T: Grid1D | None = None) -> WaveFunction:
    """Oriented-energy -> arrival-time representation.

    phi(T) = (2 pi hbar)^(-1/2) integral phi~(s) exp(-i s T/hbar) ds, the
    spectral amplitude of the generator (hbar/i) d/ds, by fourier_eval on
    grid_T (default: the s-grid's conjugate grid, unitary to rounding).
    """
    phi_tilde.require_rep(Representation.ORIENTED_ENERGY)
    grid_T = grid_T or phi_tilde.grid.conjugate(phi_tilde.params.hbar)
    out = fourier_eval(phi_tilde.values, phi_tilde.grid, grid_T, -1, phi_tilde.params.hbar)
    return WaveFunction(grid_T, out, Representation.ARRIVAL_TIME, phi_tilde.params)
