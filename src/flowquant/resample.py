"""Resampling of oscillatory complex samples at off-grid points.

Oscillatory wave-function data interpolates poorly in Re/Im parts, so the
modulus and the unwrapped phase are interpolated separately, each with a
6-point Lagrange stencil on the uniform nodes (weights as in Fornberg, Math.
Comp. 51, 1988).  The stencil is centred on the query's interval and shifted
inwards near the ends of the node range.  Where the sample-to-sample phase
increment is too large for unwrapping to be trusted, queries fall back to
linear interpolation of the complex values.  Queries outside the node range
return zero; fewer than six nodes are interpolated linearly.  ``interpolate``
is this resampling and what the library calls; ``resample_complex`` adds a
cross-validation error estimate that no library path reads.

The stencil reproduces polynomials up to degree five exactly, so smooth
quadratic phase factors (free evolution) commute with this resampling to
rounding accuracy — the time-translation covariance of the arrival-time
pipeline (acceptance criterion 6) relies on this.
"""

import math

import numpy as np

# Phase steps beyond this fraction of pi make unwrapping ambiguous.
_PHASE_JUMP_LIMIT = 0.9 * np.pi

_STENCIL = 6
# Maps six samples at v = -2.5 .. 2.5 to the coefficients of their
# interpolating quintic, highest power first.
_TO_QUINTIC = np.linalg.inv(np.vander(np.arange(_STENCIL) - 2.5))


def _stencil(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interpolate samples at fractional node positions t (node i at t = i).

    Each window's quintic coefficients are computed once and evaluated by
    Horner's rule in v = t - start - 2.5, the offset from the window centre.
    Needs at least six samples.
    """
    windows = len(values) - _STENCIL + 1
    shifted = np.stack([values[j:j + windows] for j in range(_STENCIL)])
    # A real matrix on the float view: one BLAS product for Re and Im.
    coeffs = (_TO_QUINTIC @ shifted.view(np.float64)).view(np.complex128)
    start = np.clip(np.floor(t).astype(np.intp) - 2, 0, len(values) - _STENCIL)
    v = t - start - 2.5
    window = coeffs.take(start, axis=1)  # one gather: a fresh array, safe to overwrite
    acc = window[0]
    for row in window[1:]:
        acc *= v
        acc += row
    return acc


def _cis(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta: cos and sin written into the real and
    imaginary parts of one complex array, half the work of a complex exp.
    Forms the unit phases of resampling and of the Fourier steps; it lives
    here, below transforms in the import order, so both can use it."""
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


def _amp_phase(values: np.ndarray) -> np.ndarray:
    """Modulus and unwrapped phase packed as amp + 1j * phase, so one real
    stencil pass interpolates both."""
    return np.abs(values) + 1j * np.unwrap(np.angle(values))


def _from_amp_phase(packed: np.ndarray) -> np.ndarray:
    out = _cis(packed.imag)
    out.real *= packed.real
    out.imag *= packed.real
    return out


def interpolate(nodes: np.ndarray, values: np.ndarray,
                queries: np.ndarray) -> np.ndarray:
    """Interpolate complex samples at query points.

    ``nodes`` must be uniformly spaced and increasing, as the grid points of
    every caller are.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=np.complex128)
    queries = np.asarray(queries, dtype=float)
    out = np.zeros(queries.shape, dtype=np.complex128)
    if len(nodes) < 2:
        return out
    inside = (queries >= nodes[0]) & (queries <= nodes[-1])
    q = queries[inside]
    if len(nodes) < _STENCIL:
        out[inside] = np.interp(q, nodes, values.real) + \
            1j * np.interp(q, nodes, values.imag)
        return out

    packed = _amp_phase(values)
    if packed.real.max() == 0.0 or not np.any(inside):
        return out
    t = (q - nodes[0]) * ((len(nodes) - 1) / (nodes[-1] - nodes[0]))
    interp = _from_amp_phase(_stencil(packed, t))

    # Intervals where the unwrapped phase jumps too fast are untrustworthy;
    # they occur at near-zeros of the amplitude, where linear Re/Im parts are
    # the safer choice.
    jumps = np.abs(np.diff(packed.imag)) >= _PHASE_JUMP_LIMIT
    if np.any(jumps):
        bad = jumps[np.clip(np.floor(t).astype(np.intp), 0, len(nodes) - 2)]
        q_bad = q[bad]
        interp[bad] = np.interp(q_bad, nodes, values.real) + \
            1j * np.interp(q_bad, nodes, values.imag)

    out[inside] = interp
    return out


def _cross_validation_residual(values: np.ndarray) -> float:
    """Error estimate relative to the peak amplitude: interpolate from every
    other node, test on the rest.

    Doubling the spacing inflates the error of the O(h^6) stencil by about
    2^6 = 64x, so this is a conservative bound on the actual resampling error
    (measured at 50-60x it).
    """
    odd = len(values) - 1 + len(values) % 2  # odd count: the last node is even
    if odd // 2 + 1 < _STENCIL:
        return 0.0
    packed = _amp_phase(values)
    peak = packed.real.max()
    if peak == 0.0:
        return 0.0
    coarse = packed[:odd:2]
    predicted = _stencil(coarse, np.arange(len(coarse) - 1) + 0.5)
    actual = packed[1:odd:2]
    return float(np.max(np.abs(_from_amp_phase(predicted) -
                               _from_amp_phase(actual))) / peak)


def resample_complex(nodes: np.ndarray, values: np.ndarray,
                     queries: np.ndarray) -> tuple[np.ndarray, float]:
    """``(interpolate(nodes, values, queries), residual)``, the residual being
    a cross-validation bound on the resampling error relative to the peak
    input amplitude.

    No library path reads the residual.  The pair is kept for the
    benchmark's stage replay and its test, and goes when the replay is
    removed (ROADMAP item 1).
    """
    values = np.asarray(values, dtype=np.complex128)
    return interpolate(nodes, values, queries), _cross_validation_residual(values)
