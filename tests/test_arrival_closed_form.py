"""The right-mover arrival amplitude of a Gaussian packet in closed form.

For psi~(p) = (2 pi sigma^2)^(-1/4) exp(-(p - p0)^2 / (4 sigma^2) - i p x0 / hbar),
the spectrum gaussian_packet samples, the p > 0 half of the arrival integral
is a parabolic-cylinder function (Gradshteyn-Ryzhik 3.462.1, DLMF 12.5):

    phi+(T) = (2 pi hbar m)^(-1/2) (2 pi sigma^2)^(-1/4) exp(-p0^2 / (4 sigma^2))
              Gamma(3/2) (2A)^(-3/4) exp(B^2 / (8A)) D_{-3/2}(-B / sqrt(2A)),

A = 1 / (4 sigma^2) + i T / (2 m hbar), B = p0 / (2 sigma^2) - i x0 / hbar.
It shares no code with the quadrature oracle or the transform chain.
"""

import numpy as np
import pytest

import flowquant as fq
from test_acceptance import ledger

mpmath = pytest.importorskip("mpmath")


def closed_form_plus(T, x0, p0, sigma, params):
    """phi+(T) at 30 digits, rounded to complex128."""
    mp = mpmath.mp.clone()
    mp.dps = 30
    hbar, m = mp.mpf(params.hbar), mp.mpf(params.mass)
    x0, p0, sigma = mp.mpf(x0), mp.mpf(p0), mp.mpf(sigma)
    pref = ((2 * mp.pi * hbar * m) ** -0.5 * (2 * mp.pi * sigma**2) ** -0.25
            * mp.exp(-p0**2 / (4 * sigma**2)) * mp.gamma(1.5))
    b = p0 / (2 * sigma**2) - 1j * x0 / hbar
    out = []
    for t in T:
        a = 1 / (4 * sigma**2) + 1j * mp.mpf(t) / (2 * m * hbar)
        out.append(complex(pref * (2 * a) ** -0.75 * mp.exp(b**2 / (8 * a))
                           * mp.pcfd(-1.5, -b / mp.sqrt(2 * a))))
    return np.array(out)


# (x0, p0, sigma_p), then the bounds of the oracle and the chain on the
# default T-grid of the right-mover, at most 5x the errors measured when they
# were set: 7.4e-13 (oracle; 9.7e-13 since) and 9.9e-10 (chain) on the
# reference packet, 3.2e-8 / 3.6e-8 (oracle) and 1.0e-6 / 4.1e-6 (chain) on
# the broad ones (p0 / sigma_p = 6.7).  The accuracy ledger of
# test_acceptance.py also pins each figure, near its measured value.
# On the broad packets the oracle's error is that of the mover split:
# split_movers zeroes the p < 0 samples, and the trigonometric model of what
# is left is not the Gaussian near p = 0.
CASES = {
    "reference": ((-50.0, 2.0, 0.2), 3.6e-12, 4.9e-9),
    "broad": ((-60.0, 1.0, 0.15), 1.5e-7, 4.6e-6),
    "broad-slow": ((-40.0, 0.6, 0.09), 1.7e-7, 1.8e-5),
}


@pytest.mark.parametrize("name", list(CASES))
def test_right_mover_matches_closed_form(name, params, wide_grid):
    (x0, p0, sigma), oracle_bound, chain_bound = CASES[name]
    psi_tilde = fq.to_momentum(fq.gaussian_packet(wide_grid, params, x0, p0, sigma))
    plus, _ = fq.split_movers(psi_tilde)
    grid_T = fq.default_time_grid(plus)
    every = slice(None, None, 16)
    exact = closed_form_plus(grid_T.points[every], x0, p0, sigma, params)
    scale = np.abs(exact).max()
    oracle = fq.arrival_amplitude_quadrature(plus, grid_T).values[every]
    chain = fq.arrival_amplitude_fast(plus, grid_T).values[every]
    oracle_err = np.abs(oracle - exact).max() / scale
    chain_err = np.abs(chain - exact).max() / scale
    assert oracle_err <= oracle_bound
    assert chain_err <= chain_bound
    case = name.replace("-", "_")
    ledger(**{f"c05_closed_form_oracle_{case}": oracle_err,
              f"c05_closed_form_chain_{case}": chain_err})
