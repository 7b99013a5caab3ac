"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import importlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import flowquant as fq
from flowquant import classical
from flowquant.arrival import Component


def report(num, ok, desc, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}  ({detail})"
    print(line)
    assert ok, line


# The accuracy ledger: each error figure the criteria compute, with its value
# as measured (Python 3.11, numpy 2.4, x86-64) and the size of the quantity it
# is an error of.  A figure may reach ten times its measured value, or four
# ulps of its quantity where that is more.  The criteria's bounds are
# release requirements, some orders of magnitude looser, so this ledger is
# what catches a loss of accuracy that they let pass.
LEDGER = {
    # name: (measured, quantity)
    "c02_flow_endpoint": (3.55e-15, 9.0),           # largest endpoint
    "c02_escape_time": (1.78e-15, 4.0),             # latest escape time
    # X = c x^k on x > 0 against its closed-form orbit, relative errors, the
    # largest of 9,000 draws of k in [0.1, 0.7] and [1.3, 3], c in {0.5, 1,
    # 2} and x0 in [0.5, 2] (test_flows.py)
    "flow_power_escape_time": (3.22e-15, 1.0),
    "flow_power_endpoint": (1.00e-15, 1.0),
    "c03_fourier": (1.00e-15, 1.0),                 # the norm
    "c03_evolve": (7.77e-16, 1.0),
    "c03_energy_map": (1.73e-10, 1.0),
    "c03_transport": (7.59e-14, 1.0),
    "c04_finite_difference": (4.90e-9, 0.456),      # max |Lie derivative|
    "c04_symmetry": (3.58e-15, 24.8),               # max |<phi, A psi>|
    "c05_norm": (6.30e-9, 1.0),                     # the norm
    "c05_oracle": (9.81e-10, 1.0),                  # a relative error
    # the right-mover's mean arrival time against the exact classical mean
    # (the classical_mean fixture of conftest.py)
    "c05_classical_mean": (2.2e-7, 25.26),          # the mean
    # the right-mover's density against <phi~, U_tau phi~>, x0 = -50, p0 = 2,
    # sigma_p = 0.2 (test_arrival_spectral.py)
    "c05_spectral_measure": (4.70e-10, 1.0),        # |C(tau)| <= the norm
    # the right-mover's amplitude against its closed form, relative to its
    # peak (test_arrival_closed_form.py)
    "c05_closed_form_chain_reference": (9.87e-10, 1.0),
    "c05_closed_form_chain_broad": (1.02e-6, 1.0),
    "c05_closed_form_chain_broad_slow": (4.15e-6, 1.0),
    "c05_closed_form_oracle_reference": (9.69e-13, 1.0),
    "c05_closed_form_oracle_broad": (3.17e-8, 1.0),
    "c05_closed_form_oracle_broad_slow": (3.56e-8, 1.0),
    "c06_plus": (2.50e-16, 0.0724),                 # density peak
    "c06_minus": (1.33e-15, 0.0724),
    "c07_identity": (5.55e-17, 0.289),              # max total density
    "c07_integral": (1.42e-9, 1.0),                 # the total mass
    "c08_closed_form": (6.25e-17, 0.0498),          # largest bin mass
    "c08_ensemble_l1": (4.84e-5, 1.0),              # the total mass
    "c08_quantum_l1": (4.85e-5, 1.0),
    # the classical limit tables of the shipped reference against
    # quantum_momentum_limit, both as density at the bin centre x width
    # (test_classical_closed_form.py)
    "c08_same_rule": (9.44e-16, 0.0498),
    "c09_unitarity": (8.30e-8, 1.0),                # the norm
    "c10_negative_mass": (4.80e-25, 4.80e-25),      # a leak, its own size
    # the accuracy panels of the benchmark's workloads (perfbench/worker.py)
    "panel_cli_batch_oracle": (2.315e-7, 1.0),      # a relative error
    "panel_cli_batch_norm": (4.094e-4, 1.0),        # the norm
    "panel_cli_batch_energy_map": (9.566e-9, 1.0),
    "panel_cli_batch_classical_l1": (2.265e-2, 1.0),  # the total mass
    "panel_arrival_stream_oracle": (7.353e-7, 1.0),
    "panel_arrival_stream_norm": (2.434e-3, 1.0),
    "panel_arrival_stream_energy_map": (2.165e-7, 1.0),
}


def ledger(**figures):
    """Assert each figure within its LEDGER pin."""
    for name, value in figures.items():
        measured, quantity = LEDGER[name]
        pin = max(10.0 * measured, 4.0 * math.ulp(quantity))
        assert value <= pin, f"accuracy ledger: {name} = {value:.3e} > {pin:.3e}"


# ---------------------------------------------------------------------------
# 1. classification table

def test_criterion_01_classification_table():
    expected = [
        (fq.constant_field(), fq.FlowVerdict.COMPLETE),
        (fq.linear_field(), fq.FlowVerdict.COMPLETE),
        (fq.quadratic_field(), fq.FlowVerdict.PLUGGABLE_INCOMPLETE),
        (fq.cubic_field(), fq.FlowVerdict.INCURABLE),
        (fq.arrival_field(), fq.FlowVerdict.HALF_LINE_INCOMPLETE),
        (fq.straightened_oriented_field(), fq.FlowVerdict.COMPLETE),
    ]
    t0 = time.perf_counter()
    verdicts = [fq.classify_flow(field) for field, _ in expected]
    again = [fq.classify_flow(field) for field, _ in expected]
    elapsed = time.perf_counter() - t0
    ok = all(v.verdict is want for v, (_, want) in zip(verdicts, expected))
    deterministic = all(a == b for a, b in zip(verdicts, again))
    report(1, ok and deterministic and elapsed < 10.0,
           "flow classification table {1, x, x^2, x^3, m/p, straightened}",
           f"verdicts={[v.verdict.value for v in verdicts]}, "
           f"deterministic={deterministic}, runtime={elapsed:.2f}s < 10s")


# ---------------------------------------------------------------------------
# 2. closed-form flow checks

def test_criterion_02_closed_form_flows():
    errs = []
    pairs = [(x0, t) for x0 in (-2.0, -0.7, 0.3, 1.1, 2.5)
             for t in (0.25, 1.0)]
    for x0, t in pairs:  # homothety: exp(t) x0
        r = fq.integrate_flow(fq.linear_field(), x0, t)
        errs.append(abs(r.endpoint - math.exp(t) * x0))
    pairs_q = [(x0, t) for x0 in (-2.0, -0.5, 0.2, 0.4, 0.9)
               for t in (0.25, 1.0) if 1.0 - t * x0 > 0.05]
    for x0, t in pairs_q[:10]:  # quadratic: x0 / (1 - t x0)
        r = fq.integrate_flow(fq.quadratic_field(), x0, t)
        errs.append(abs(r.endpoint - x0 / (1.0 - t * x0)))
    flow_err = max(errs)

    esc_errs = []
    for x0 in (0.25, 0.5, 2.0):  # blow-up time 1/x0
        r = fq.integrate_flow(fq.quadratic_field(), x0, 3.0 / x0 + 1.0)
        esc_errs.append(abs(r.t_reached - 1.0 / x0))
    esc_err = max(esc_errs)
    report(2, flow_err <= 1e-8 and esc_err <= 1e-6 and len(pairs) + 10 == 20,
           "closed-form flows exp(t)x and x/(1-tx) at 20 probe pairs",
           f"max endpoint err={flow_err:.2e} <= 1e-8, "
           f"max escape-time err={esc_err:.2e} <= 1e-6")
    ledger(c02_flow_endpoint=flow_err, c02_escape_time=esc_err)


# ---------------------------------------------------------------------------
# 3. unitarity suite

def test_criterion_03_unitarity():
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-200.0, 400.0 / 4096, 4096)
    psi = fq.gaussian_packet(grid, params, -50.0, 2.0, 0.2)
    n0 = fq.norm_squared(psi)

    pt = fq.to_momentum(psi)
    fourier_defect = abs(fq.norm_squared(pt) - n0)
    back = fq.to_position(pt, grid)
    fourier_defect = max(fourier_defect, abs(fq.norm_squared(back) - n0))
    evolved = fq.evolve_free(pt, 9.0)
    evolve_defect = abs(fq.norm_squared(evolved) - n0)

    _, u_report = fq.to_oriented_energy(pt)
    u_defect = u_report.unitarity_defect

    tight = fq.Grid1D(-30.0, 60.0 / 4096, 4096)
    packet = fq.gaussian_packet(tight, params, 0.0, 0.0, 1.0 / math.sqrt(2.0))
    transport_defect = 0.0
    for field in (fq.constant_field(), fq.linear_field()):
        _, t_report = fq.transport(packet, field, 0.4)
        transport_defect = max(transport_defect, t_report.unitarity_defect)

    ok = (fourier_defect <= 1e-10 and evolve_defect <= 1e-10
          and u_defect <= 1e-5 and transport_defect <= 1e-8)
    report(3, ok, "norm preservation across every unitary operation",
           f"fourier={fourier_defect:.1e} <= 1e-10, evolve={evolve_defect:.1e} <= 1e-10, "
           f"energy-map={u_defect:.1e} <= 1e-5, transport={transport_defect:.1e} <= 1e-8")
    ledger(c03_fourier=fourier_defect, c03_evolve=evolve_defect,
           c03_energy_map=u_defect, c03_transport=transport_defect)


# ---------------------------------------------------------------------------
# 4. generator consistency

def test_criterion_04_generator():
    params = fq.PhysicalParams()
    tight = fq.Grid1D(-30.0, 60.0 / 4096, 4096)
    packet = fq.gaussian_packet(tight, params, 0.0, 0.0, 1.0 / math.sqrt(2.0))

    fd_err = 0.0
    eps = 1e-4
    for field in (fq.constant_field(), fq.linear_field()):
        fwd, _ = fq.transport(packet, field, +eps)
        bwd, _ = fq.transport(packet, field, -eps)
        # transport drags forward: its t-derivative is minus the Lie derivative
        quotient = (bwd.values - fwd.values) / (2.0 * eps)
        lie = fq.lie_derivative(packet, field)
        fd_err = max(fd_err, float(np.abs(quotient - lie.values).max()))

    grid = fq.Grid1D(-16.0, 32.0 / 2048, 2048)

    def bump(center, width):
        u = (grid.points - center) / width
        v = np.zeros(grid.count)
        m = np.abs(u) < 1.0
        v[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return v / math.sqrt(np.sum(v**2) * grid.step)

    sym_err = 0.0
    fields = [fq.constant_field(), fq.linear_field(), fq.quadratic_field(),
              fq.cubic_field(), fq.arrival_field(),
              fq.straightened_oriented_field()]
    for field in fields:
        phi = fq.WaveFunction(grid, bump(3.0, 1.5), fq.Representation.POSITION,
                              params)
        psi = fq.WaveFunction(grid, bump(4.5, 2.0), fq.Representation.POSITION,
                              params)
        lhs = fq.inner_product(phi, fq.apply_generator(psi, field))
        rhs = fq.inner_product(fq.apply_generator(phi, field), psi)
        sym_err = max(sym_err, abs(lhs - rhs))

    report(4, fd_err <= 1e-3 and sym_err <= 1e-8,
           "generator matches transport derivative; symmetric on all six fields",
           f"finite-difference err={fd_err:.2e} <= 1e-3 at eps=1e-4, "
           f"symmetry defect={sym_err:.2e} <= 1e-8")
    ledger(c04_finite_difference=fd_err, c04_symmetry=sym_err)


# ---------------------------------------------------------------------------
# 5. arrival distribution vs oracles

def test_criterion_05_arrival_distribution(classical_mean):
    t0 = time.perf_counter()
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-200.0, 400.0 / 4096, 4096)
    pt = fq.to_momentum(fq.gaussian_packet(grid, params, -50.0, 2.0, 0.2))
    grid_T = fq.Grid1D(0.0, 60.0 / 1024, 1024)

    dist = fq.arrival_distribution(pt, grid_T=grid_T)
    norm_err = abs(float(np.trapezoid(dist.total, grid_T.points)) - 1.0)

    fast = fq.arrival_amplitude_fast(pt, grid_T)
    oracle = fq.arrival_amplitude_quadrature(pt, grid_T)
    rel_linf = float(np.abs(fast.values - oracle.values).max()
                     / np.abs(oracle.values).max())

    mean_q = fq.arrival_moments(dist, Component.PLUS).mean
    mean_err = abs(mean_q - classical_mean)
    elapsed = time.perf_counter() - t0

    ok = (norm_err <= 1e-6 and rel_linf <= 1e-4 and mean_err <= 0.02 * 25.0
          and abs(classical_mean - 25.0) <= 0.02 * 25.0 and elapsed < 30.0)
    report(5, ok, "arrival distribution: normalization, oracle match, classical mean",
           f"norm err={norm_err:.1e} <= 1e-6, fast-vs-oracle={rel_linf:.1e} <= 1e-4, "
           f"mean={mean_q:.7f} vs exact classical {classical_mean:.7f} (25 +- 2%), "
           f"runtime={elapsed:.1f}s < 30s")
    ledger(c05_norm=norm_err, c05_oracle=rel_linf, c05_classical_mean=mean_err)


# ---------------------------------------------------------------------------
# 6. time-translation covariance

def test_criterion_06_time_translation():
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-200.0, 400.0 / 4096, 4096)
    a = fq.gaussian_packet(grid, params, -50.0, 2.0, 0.2)
    b = fq.gaussian_packet(grid, params, -50.0, -2.0, 0.2)
    vals = (a.values + b.values) / math.sqrt(2.0)
    beam = fq.to_momentum(a.with_values(vals))

    t = 5.0
    shift = 64
    grid_T = fq.Grid1D(0.0, t / shift, 1024)  # t is an exact bin multiple
    s_grid = fq.default_oriented_grid(beam)
    d0 = fq.arrival_distribution(beam, grid_T=grid_T, s_grid=s_grid)
    dt = fq.arrival_distribution(fq.evolve_free(beam, t), grid_T=grid_T,
                                 s_grid=s_grid)
    n = grid_T.count
    # evolution substitutes T -> T + t in the right-mover density and
    # T -> T - t in the left-mover density (forward/backward in time)
    plus_err = float(np.abs(dt.plus[: n - shift] - d0.plus[shift:]).max())
    minus_err = float(np.abs(dt.minus[shift:] - d0.minus[: n - shift]).max())
    report(6, plus_err <= 1e-8 and minus_err <= 1e-8,
           "free evolution translates mover densities by -/+ t (T -> T +- t)",
           f"plus err={plus_err:.2e} <= 1e-8, minus err={minus_err:.2e} <= 1e-8")
    ledger(c06_plus=plus_err, c06_minus=minus_err)


# ---------------------------------------------------------------------------
# 7. interference properties

def test_criterion_07_interference():
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-200.0, 400.0 / 4096, 4096)
    a = fq.gaussian_packet(grid, params, -50.0, 2.0, 0.2)
    b = fq.gaussian_packet(grid, params, -50.0, -2.0, 0.2)
    vals = (a.values + b.values) / math.sqrt(2.0)
    beam = fq.to_momentum(a.with_values(vals))
    grid_T = fq.Grid1D(0.0, 60.0 / 1024, 1024)
    dist = fq.arrival_distribution(beam, grid_T=grid_T)

    identity_err = float(np.abs(
        dist.total - (dist.plus + dist.minus + dist.interference)).max())
    integral = abs(float(np.trapezoid(dist.interference, grid_T.points)))
    visibility = float(np.abs(dist.interference).max() / dist.total.max())
    ok = identity_err <= 1e-12 and integral <= 1e-8 and visibility > 0.01
    report(7, ok, "interference: exact pointwise split, zero integral, visible",
           f"identity err={identity_err:.1e} <= 1e-12, |integral|={integral:.1e} <= 1e-8, "
           f"max|interference|/max(total)={visibility:.3f} > 0.01")
    ledger(c07_identity=identity_err, c07_integral=integral)


# ---------------------------------------------------------------------------
# 8. classical limit

def test_criterion_08_classical_limit(evolved_gaussian_density):
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-30.0, 60.0 / 2048, 2048)
    psi = fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)
    p_edges = np.linspace(-2.0, 4.0, 97)
    centers = 0.5 * (p_edges[:-1] + p_edges[1:])
    exact = fq.exact_momentum_histogram(psi, p_edges)
    # the classical ensemble of the packet in closed form: its exact
    # momentum masses and the exact limit masses at each t
    times = (20.0, 50.0, 100.0, 200.0)
    mu, limits = classical._gaussian_limits(psi, 0.0, times, p_edges)

    ens_errors, q_errors, closed_errors = [], [], []
    for t, h in zip(times, limits):
        ens_errors.append(fq.l1_distance(h, mu))
        hq = fq.quantum_momentum_limit(psi, 0.0, t, p_edges)
        q_errors.append(fq.l1_distance(hq, exact))
        closed = (t * evolved_gaussian_density(t, t * centers, [(1.0, 0.0, 1.0, 0.5)],
                                               params) * np.diff(p_edges))
        closed_errors.append(float(np.abs(hq.masses - closed).max()))

    monotone = (all(ens_errors[i + 1] <= ens_errors[i] for i in range(3))
                and all(q_errors[i + 1] <= q_errors[i] for i in range(3)))
    closed_ok = max(closed_errors) <= 1e-12
    ok = ens_errors[-1] <= 0.02 and q_errors[-1] <= 0.02 and monotone and closed_ok
    report(8, ok, "momentum density from position measurements (t ladder)",
           f"ensemble L1={['%.2e' % e for e in ens_errors]}, "
           f"quantum L1={['%.5f' % e for e in q_errors]}, "
           f"final <= 0.02, monotone={monotone}, "
           f"max|quantum - closed form|={max(closed_errors):.1e} <= 1e-12")
    ledger(c08_closed_form=max(closed_errors), c08_ensemble_l1=ens_errors[-1],
           c08_quantum_l1=q_errors[-1])


# ---------------------------------------------------------------------------
# 9. plugged-extension inequivalence

def test_criterion_09_plugged_extensions():
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-40.0, 80.0 / 4096, 4096)
    x = grid.points

    def bump(c, w):
        u = (x - c) / w
        v = np.zeros_like(x)
        m = np.abs(u) < 1.0
        v[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return v

    vals = bump(1.0, 0.6) + bump(3.5, 0.6)  # straddles the pole x = 2 at t = 0.5
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2) * grid.step)
    psi = fq.WaveFunction(grid, vals, fq.Representation.POSITION, params)

    field = fq.quadratic_field()
    out1, rep1 = fq.pluggable_transport(psi, field, 0.5, 0.0)
    out2, rep2 = fq.pluggable_transport(psi, field, 0.5, 2.0)
    chi = fq.gaussian_packet(grid, params, -5.0, 0.0, 0.5)
    diff = abs(fq.inner_product(chi, out1) - fq.inner_product(chi, out2))
    ok = (diff > 1e-3 and rep1.unitarity_defect <= 1e-5
          and rep2.unitarity_defect <= 1e-5)
    report(9, ok, "two plug phases give inequivalent norm-preserving transports",
           f"matrix-element diff={diff:.3e} > 1e-3, "
           f"defects={rep1.unitarity_defect:.1e},{rep2.unitarity_defect:.1e} <= 1e-5")
    ledger(c09_unitarity=max(rep1.unitarity_defect, rep2.unitarity_defect))


# ---------------------------------------------------------------------------
# 10. probability backflow

def test_criterion_10_backflow():
    params = fq.PhysicalParams()
    grid_x = fq.Grid1D(-128.0, 256.0 / 4096, 4096)
    grid_p = grid_x.conjugate(params.hbar)

    def min_current(spec):
        psi = fq.make_backflow_packet(grid_p, params, spec)
        worst = math.inf
        for t in np.linspace(0.0, 10.0, 41):
            psi_t = fq.to_position(fq.evolve_free(psi, float(t)))
            j = fq.probability_current(psi_t)
            sel = np.abs(psi_t.points) <= 20.0
            worst = min(worst, float(j[sel].min()))
        return worst, psi

    worst, psi = min_current(fq.BackflowSpec())
    p = psi.points
    neg_mass = float(np.sum(np.abs(psi.values[p < 0.0]) ** 2) * psi.grid.step)
    worst_control, _ = min_current(fq.BackflowSpec(a2=0.0))

    ok = worst < 0.0 and neg_mass <= 1e-10 and worst_control >= -1e-12
    report(10, ok, "positive-momentum packet shows backflow; control does not",
           f"min j={worst:.2e} < 0, p<0 mass={neg_mass:.1e} <= 1e-10, "
           f"control min j={worst_control:.1e} >= -1e-12")
    ledger(c10_negative_mass=neg_mass)


# ---------------------------------------------------------------------------
# The benchmark's accuracy panels

_PANEL_FIGURES = {"oracle": "oracle_err_max", "norm": "norm_defect_max",
                  "energy_map": "energy_map_defect_max", "classical_l1": "classical_l1_max"}


def test_benchmark_accuracy_panels(monkeypatch):
    """The figures of the cli_batch and arrival_stream panels, computed by
    the benchmark's own panel code on its fixed inputs.  arrival_stream runs
    no classical operation: its classical figure is the shipped reference's,
    c08_quantum_l1.  cli_cold's four figures are those of c05_oracle,
    c05_norm, c03_energy_map and c08_quantum_l1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    panel = importlib.import_module("worker").panel
    figures = {}
    for workload in ("cli_batch", "arrival_stream"):
        got = panel(workload)
        print(f"[panel {workload}] " + ", ".join(f"{k}={v:.3e}" for k, v in got.items()))
        figures.update({f"panel_{workload}_{name}": got[key]
                        for name, key in _PANEL_FIGURES.items()})
    figures["c08_quantum_l1"] = figures.pop("panel_arrival_stream_classical_l1")
    ledger(**figures)
