"""The classical-limit ensemble tables against the normal integrals they are.

ensemble_from_packet samples x and p independently from N(mean_x, sigma_x^2)
and N(mean_p, sigma_p^2), so its momentum histogram converges to the masses
of N(mean_p, sigma_p^2) over the bins, and the histogram of the evolved
positions x + (t/m) p over the window x0 + (t/m) p_edges to those of
N(mean_x + (t/m) mean_p, sigma_x^2 + (t/m)^2 sigma_p^2).  The reference here
is a 40-point Gauss-Legendre rule over each bin of the normal density, which
shares no code with the erfc tails the CLI writes.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import flowquant as fq
from flowquant import classical
from flowquant.scenarios import (build_packet, build_params, build_x_grid,
                                 load_scenario, scenario_path)
from test_acceptance import ledger

NODES, WEIGHTS = np.polynomial.legendre.leggauss(40)
P_EDGES = np.linspace(-2.0, 4.0, 97)


def normal_masses(mean, spread, edges):
    """The integral of the N(mean, spread^2) density over each bin."""
    a, b = edges[:-1, None], edges[1:, None]
    z = (0.5 * (b - a) * NODES + 0.5 * (a + b) - mean) / spread
    density = np.exp(-0.5 * z * z) / (spread * math.sqrt(2.0 * math.pi))
    return 0.5 * np.diff(edges) * np.sum(WEIGHTS * density, axis=1)


def assert_masses(got, want):
    """Within 1e-15 everywhere, and within 1e-12 of themselves in the tails
    (below 1e-3, and above the range where float64 loses digits)."""
    err = np.abs(got - want)
    assert err.max() <= 1e-15, err.max()
    tail = (want < 1e-3) & (want > 1e-280)
    assert np.all(err[tail] <= 1e-12 * want[tail]), (err[tail] / want[tail]).max()


def _columns(data: bytes) -> dict[str, np.ndarray]:
    header, *rows = data.decode("ascii").splitlines()
    cells = np.array([[float(v) for v in row.split(",")] for row in rows])
    return dict(zip(header.split(","), cells.T))


def test_cli_ensemble_tables_are_the_normal_integrals(shipped_outputs):
    cfg = load_scenario(scenario_path("classical_limit_reference.json"))
    params = build_params(cfg)
    psi = build_packet(cfg, params, build_x_grid(cfg))
    mean_x, sigma_x, mean_p, sigma_p = classical._packet_moments(psi)
    section = cfg["classical_limit"]
    bins, x0 = section["p_bins"], section["x0"]
    edges = np.linspace(bins["min"], bins["max"], bins["count"] + 1)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mu = normal_masses(mean_p, sigma_p, edges)
    same_rule = 0.0
    for t in section["times"]:
        table = _columns(shipped_outputs[
            f"classical_limit_reference/classical_limit_ensemble_t{t:g}.csv"])
        speed = t / params.mass
        mean, spread = mean_x + speed * mean_p, math.hypot(sigma_x, speed * sigma_p)
        assert_masses(table["mu_exact"] * widths, mu)
        assert_masses(table["mu_limit"] * widths,
                      normal_masses(mean, spread, x0 + speed * edges))
        # the classical and quantum densities at the bin centres, times the
        # width: a Gaussian's Wigner function is this product density, and
        # free motion moves it classically
        z = (x0 + speed * centers - mean) / spread
        classical_rule = (speed * np.exp(-0.5 * z * z) / (spread * math.sqrt(2.0 * math.pi))
                          * widths)
        quantum = fq.quantum_momentum_limit(psi, x0, t, edges).masses
        same_rule = max(same_rule, float(np.abs(classical_rule - quantum).max()))
    ledger(c08_same_rule=same_rule)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mean_x=st.floats(-5.0, 5.0), sigma_x=st.floats(0.2, 5.0),
       mean_p=st.floats(-1.0, 3.0), sigma_p=st.floats(0.2, 1.0),
       x0=st.floats(-5.0, 5.0),
       times=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=4))
def test_gaussian_limits_are_the_normal_integrals(params, mean_x, sigma_x, mean_p,
                                                 sigma_p, x0, times):
    grid = fq.Grid1D(-30.0, 60.0 / 256, 256)
    psi = fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)
    with mock.patch.object(classical, "_packet_moments",
                           return_value=(mean_x, sigma_x, mean_p, sigma_p)):
        mu, limits = classical._gaussian_limits(psi, x0, times, P_EDGES)
    assert_masses(mu.masses, normal_masses(mean_p, sigma_p, P_EDGES))
    for t, h in zip(times, limits):
        speed = t / params.mass
        assert np.array_equal(h.edges, P_EDGES)
        assert_masses(h.masses, normal_masses(
            mean_x + speed * mean_p, math.hypot(sigma_x, speed * sigma_p),
            x0 + speed * P_EDGES))
