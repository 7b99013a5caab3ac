"""The arrival density as the spectral measure of the s-translations.

In the flow coordinate s = sgn(p) p^2 / 2m of the oriented arrival field the
field is the unit translation, and T = (hbar/i) d/ds generates
U_tau phi~(s) = phi~(s - tau).  So the characteristic function of the
arrival density is an overlap:

    int |phi(T)|^2 exp(-i tau T / hbar) dT = <phi~, U_tau phi~>
        = int dq psi~*(p(q)) psi~(q) sqrt(|q| / |p(q)|),  s(p(q)) = s(q) + tau.

The right side is summed over the packet's own momentum samples q, with
psi~ at p(q) from the exact trigonometric sums of ``arrival._momentum_at``.
It shares that helper with the quadrature oracle, and nothing with the
chain's energy map or chirp-z, whose density makes the left side.  The sum
runs over q, not p: in p it would meet the integrable |s - tau|^(-1/4)
singularity where the shifted momentum crosses 0, inside a broad packet;
in q that point is q = -sqrt(2 m tau), where a right-mover has no mass.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant.arrival import _momentum_at
from test_acceptance import ledger

TAUS = (0.05, 0.2, 0.5, 1.0, 2.0)
#: Standard deviations of x and of p that the T-window spans on each side;
#: each Gaussian tail beyond 6.5 of them holds 4e-11 of the mass, so the
#: window leaves out less than 1e-9.
_SPREADS = 6.5


def _window(x0: float, p0: float, sigma: float, params: fq.PhysicalParams) -> fq.Grid1D:
    """A T-grid over -m x / p for x and p within _SPREADS deviations of
    their means, at a quarter of the spacing 2 pi hbar / (s_max + tau_max)
    below which the trapezoid rule integrates every frequency of
    |phi(T)|^2 exp(-i tau T / hbar) without aliasing."""
    m, hbar = params.mass, params.hbar
    sigma_x = hbar / (2.0 * sigma)
    p_lo, p_hi = p0 - _SPREADS * sigma, p0 + _SPREADS * sigma
    t_lo = m * max(-x0 - _SPREADS * sigma_x, 0.0) / p_hi
    t_hi = m * (-x0 + _SPREADS * sigma_x) / p_lo
    dT = 0.25 * 2.0 * math.pi * hbar / (p_hi**2 / (2.0 * m) + max(TAUS))
    count = math.ceil((t_hi - t_lo) / dT) + 1
    return fq.Grid1D(t_lo, (t_hi - t_lo) / (count - 1), count)


def spectral_figure(x0: float, p0: float, sigma: float, params, grid) -> float:
    """max over TAUS of |C_chain(tau) - C_flow(tau)| for the right-mover of
    the Gaussian packet (x0, p0, sigma)."""
    plus, _ = fq.split_movers(fq.to_momentum(fq.gaussian_packet(grid, params, x0, p0, sigma)))
    grid_T = _window(x0, p0, sigma, params)
    T = grid_T.points
    density = fq.arrival_distribution(plus, grid_T=grid_T).total
    psi_x = fq.to_position(plus)
    right = plus.points > 0.0
    q, psi_q = plus.points[right], plus.values[right]
    worst = 0.0
    for tau in TAUS:
        chain = np.trapezoid(density * np.exp(-1j * tau * T / params.hbar), T)
        p_of_q = np.sqrt(q * q + 2.0 * params.mass * tau)
        flow = plus.grid.step * np.sum(
            np.conj(_momentum_at(psi_x, p_of_q)) * psi_q * np.sqrt(q / p_of_q))
        worst = max(worst, abs(chain - flow))
    return worst


def test_reference_packet_density_is_the_spectral_measure(params, wide_grid):
    figure = spectral_figure(-50.0, 2.0, 0.2, params, wide_grid)
    assert figure <= 5e-9
    ledger(c05_spectral_measure=figure)


# Packet classes: ranges of x0, p0 and p0 / sigma_p, and a bound near 10x the
# largest figure measured over each class (1.2e-9, 9.9e-7 and 4.7e-6).  On
# the broad classes the figure is the chain's momentum-floor error, as it is
# against the closed form in test_arrival_closed_form.py.
CLASSES = {
    "reference": ((-55.0, -45.0), (1.8, 2.2), (9.5, 10.5), 1.2e-8),
    "broad": ((-65.0, -55.0), (0.95, 1.05), (6.67, 7.0), 1e-5),
    "broad-slow": ((-45.0, -35.0), (0.57, 0.63), (6.67, 7.0), 5e-5),
}

_unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("name", list(CLASSES))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(a=_unit, b=_unit, c=_unit)
def test_density_is_the_spectral_measure_of_the_s_translations(name, a, b, c,
                                                                params, wide_grid):
    (x_lo, x_hi), (p_lo, p_hi), (r_lo, r_hi), bound = CLASSES[name]
    x0, p0 = x_lo + a * (x_hi - x_lo), p_lo + b * (p_hi - p_lo)
    sigma = p0 / (r_lo + c * (r_hi - r_lo))
    assert spectral_figure(x0, p0, sigma, params, wide_grid) <= bound
