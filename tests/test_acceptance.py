"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

import flowquant as fq
from flowquant.arrival import Component


def report(num, ok, desc, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}  ({detail})"
    print(line)
    assert ok, line


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
        esc_errs.append(abs(r.escape_time_estimate - 1.0 / x0))
    esc_err = max(esc_errs)
    report(2, flow_err <= 1e-8 and esc_err <= 1e-6 and len(pairs) + 10 == 20,
           "closed-form flows exp(t)x and x/(1-tx) at 20 probe pairs",
           f"max endpoint err={flow_err:.2e} <= 1e-8, "
           f"max escape-time err={esc_err:.2e} <= 1e-6")


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


# ---------------------------------------------------------------------------
# 4. generator consistency

def test_criterion_04_generator():
    params = fq.PhysicalParams()
    tight = fq.Grid1D(-30.0, 60.0 / 4096, 4096)
    packet = fq.gaussian_packet(tight, params, 0.0, 0.0, 1.0 / math.sqrt(2.0))

    fd_err = 0.0
    eps = 1e-4
    for field in (fq.constant_field(), fq.linear_field()):
        fc = fq.classify_flow(field)
        fwd, _ = fq.transport(packet, field, +eps, flow_class=fc)
        bwd, _ = fq.transport(packet, field, -eps, flow_class=fc)
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


# ---------------------------------------------------------------------------
# 5. arrival distribution vs oracles

def test_criterion_05_arrival_distribution():
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
    ensemble = fq.gaussian_ensemble(params, -50.0, 2.5, 2.0, 0.2, 1_000_000,
                                    seed=20240601)
    mean_mc = fq.classical_arrival_oracle(ensemble).mean
    elapsed = time.perf_counter() - t0

    ok = (norm_err <= 1e-6 and rel_linf <= 1e-4
          and abs(mean_q - mean_mc) <= 0.02 * 25.0
          and abs(mean_mc - 25.0) <= 0.02 * 25.0 and elapsed < 30.0)
    report(5, ok, "arrival distribution: normalization, oracle match, MC mean",
           f"norm err={norm_err:.1e} <= 1e-6, fast-vs-oracle={rel_linf:.1e} <= 1e-4, "
           f"mean={mean_q:.3f} vs MC {mean_mc:.3f} (25 +- 2%), runtime={elapsed:.1f}s < 30s")


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


# ---------------------------------------------------------------------------
# 8. classical limit

def test_criterion_08_classical_limit(evolved_gaussian_density):
    params = fq.PhysicalParams()
    grid = fq.Grid1D(-30.0, 60.0 / 2048, 2048)
    psi = fq.gaussian_packet(grid, params, 0.0, 1.0, 0.5)
    ensemble = fq.gaussian_ensemble(params, 0.0, 1.0, 1.0, 0.5, 1_000_000,
                                    seed=20240601)
    p_edges = np.linspace(-2.0, 4.0, 97)
    centers = 0.5 * (p_edges[:-1] + p_edges[1:])
    mu = np.histogram(ensemble.p, bins=p_edges, weights=ensemble.w)[0]
    exact = fq.exact_momentum_histogram(psi, p_edges)

    ens_errors, q_errors, closed_errors = [], [], []
    for t in (20.0, 50.0, 100.0, 200.0):
        h = fq.momentum_from_position_limit(ensemble, 0.0, t, p_edges)
        ens_errors.append(float(np.sum(np.abs(h.masses - mu))))
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
           f"ensemble L1={['%.4f' % e for e in ens_errors]}, "
           f"quantum L1={['%.5f' % e for e in q_errors]}, "
           f"final <= 0.02, monotone={monotone}, "
           f"max|quantum - closed form|={max(closed_errors):.1e} <= 1e-12")


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
    fc = fq.classify_flow(field)
    out1, rep1 = fq.pluggable_transport(psi, field, 0.5, 0.0, flow_class=fc)
    out2, rep2 = fq.pluggable_transport(psi, field, 0.5, 2.0, flow_class=fc)
    chi = fq.gaussian_packet(grid, params, -5.0, 0.0, 0.5)
    diff = abs(fq.inner_product(chi, out1) - fq.inner_product(chi, out2))
    ok = (diff > 1e-3 and rep1.unitarity_defect <= 1e-5
          and rep2.unitarity_defect <= 1e-5)
    report(9, ok, "two plug phases give inequivalent norm-preserving transports",
           f"matrix-element diff={diff:.3e} > 1e-3, "
           f"defects={rep1.unitarity_defect:.1e},{rep2.unitarity_defect:.1e} <= 1e-5")


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
