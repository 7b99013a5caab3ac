import math

import mpmath
import numpy as np
import pytest

import flowquant as fq
from shipped_pin import read_trees, write_trees


@pytest.fixture(scope="session")
def params():
    return fq.PhysicalParams()


@pytest.fixture(scope="session")
def wide_grid():
    """Position grid large enough for the x = -50 reference packet."""
    return fq.Grid1D(-200.0, 400.0 / 4096, 4096)


@pytest.fixture(scope="session")
def reference_packet(params, wide_grid):
    """Quasiclassical right-mover: <x> = -50, <p> = 2, sigma_p = 0.2."""
    return fq.gaussian_packet(wide_grid, params, -50.0, 2.0, 0.2)


@pytest.fixture(scope="session")
def reference_momentum(reference_packet):
    return fq.to_momentum(reference_packet)


@pytest.fixture(scope="session")
def classical_mean(params):
    """Exact mean of the classical arrival time -m x / p over the reference
    packet's product Gaussian, x ~ N(-50, 2.5^2) and p ~ N(2, 0.2^2)
    independent: -m x0 E[1/P] = 25.2579039, E[1/P] by mpmath quadrature.
    1/p is not integrable at p = 0, so the quadrature runs over
    [p0 - 9.5 sigma_p, inf), which leaves out 1e-21 of the momentum mass."""
    x0, p0, sigma_p = -50.0, 2.0, 0.2
    inverse = mpmath.quad(lambda p: mpmath.npdf(p, p0, sigma_p) / p,
                          [p0 - 9.5 * sigma_p, p0, mpmath.inf])
    return float(-params.mass * x0 * inverse)


@pytest.fixture(scope="session")
def tight_grid():
    """Fine grid for transport tests needing 1e-8 pointwise interpolation."""
    return fq.Grid1D(-30.0, 60.0 / 4096, 4096)


@pytest.fixture(scope="session")
def centered_packet(params, tight_grid):
    """Unit packet with amplitude envelope exp(-x^2/2)."""
    return fq.gaussian_packet(tight_grid, params, 0.0, 0.0, 1.0 / math.sqrt(2.0))


@pytest.fixture(scope="session")
def arrival_grid():
    """T-window wide enough that the reference packet's tails are < 1e-9."""
    return fq.Grid1D(0.0, 60.0 / 1024, 1024)


def _evolved_gaussian_density(t, x, components, params):
    """Closed-form |psi(t, x)|^2 of the normalized superposition
    sum a_k gaussian_packet(center_x_k, center_p_k, sigma_p_k) after free
    evolution for a time t > 0; components are (a_k, center_x_k, center_p_k,
    sigma_p_k).

    A component is exp(-A y^2 + B y + C).  The free propagator
    (beta / (i pi))^(1/2) exp(i beta (x - y)^2), beta = m / (2 hbar t), makes
    the evolved amplitude a Gaussian integral, and the norm is the sum of
    the components' Gaussian overlaps: int exp(-a y^2 + b y + c) dy =
    (pi / a)^(1/2) exp(b^2 / (4 a) + c).
    """
    hbar, mass = params.hbar, params.mass
    x = np.asarray(x, dtype=float)
    terms = []
    for amplitude, center_x, center_p, sigma_p in components:
        sigma_x = hbar / (2.0 * sigma_p)
        a = 1.0 / (4.0 * sigma_x**2)
        b = 2.0 * a * center_x + 1j * center_p / hbar
        c = (-a * center_x**2 - 1j * center_p * center_x / hbar
             - 0.25 * math.log(2.0 * math.pi * sigma_x**2))
        terms.append((amplitude, a, b, c))
    beta = mass / (2.0 * hbar * t)
    psi = np.zeros(x.shape, dtype=np.complex128)
    for amplitude, a, b, c in terms:
        shifted = b - 2j * beta * x
        psi += (amplitude * np.sqrt(beta / (beta + 1j * a))
                * np.exp(shifted**2 / (4.0 * (a - 1j * beta))
                         + 1j * beta * x**2 + c))
    norm = 0.0
    for amp_k, a_k, b_k, c_k in terms:
        for amp_l, a_l, b_l, c_l in terms:
            a, b = np.conj(a_k) + a_l, np.conj(b_k) + b_l
            norm += (np.conj(amp_k) * amp_l * np.sqrt(np.pi / a)
                     * np.exp(b**2 / (4.0 * a) + np.conj(c_k) + c_l)).real
    return np.abs(psi) ** 2 / norm


@pytest.fixture(scope="session")
def evolved_gaussian_density():
    """_evolved_gaussian_density(t, x, components, params), the closed-form
    density of a freely evolved Gaussian superposition."""
    return _evolved_gaussian_density


@pytest.fixture(scope="session")
def run_shipped(tmp_path_factory):
    """run_shipped() runs every shipped scenario under its subcommand, the
    arrival ones also with --oracle, in a fresh directory and returns
    {"<scenario>[_oracle]/<file>": bytes} over all files written."""
    def run() -> dict[str, bytes]:
        root = tmp_path_factory.mktemp("shipped")
        write_trees(root)
        return read_trees(root)
    return run


@pytest.fixture(scope="session")
def shipped_outputs(run_shipped):
    """One run_shipped() result, shared by the tests that compare against it."""
    return run_shipped()
