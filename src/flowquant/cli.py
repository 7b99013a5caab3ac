"""Command-line front end.

Subcommands (one scenario JSON in, CSV/JSON files out):

* ``flow-classify``    completeness verdict for a vector field
* ``arrival``          arrival-time density with mover decomposition
* ``classical-limit``  momentum density from position measurements at large t
* ``backflow``         probability-current scan of the backflow packet

Exit codes: 0 success, 1 configuration or validation error, 2 diagnostic
outcome (inconclusive classification, negative-momentum leak).  Outputs are
byte-stable for identical configs and seeds: CSV uses '.' decimals, 17
significant digits, LF endings, UTF-8; JSON is sorted and indented.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (FlowQuantError, InconclusiveClassification,
                     NegativeMomentumLeak, ScenarioError)
from .grids import Representation, norm_squared
from .scenarios import (build_field, build_packet, build_params,
                        build_probe_spec, build_s_grid, build_time_grid,
                        build_x_grid, load_scenario)

# Each subcommand imports the modules it runs, so a process loads only those.

#: Current values per block of scan times: the backflow scan is computed,
#: written and searched for its minimum one block at a time, so no array or
#: text grows with t_count.
_SCAN_CELLS = 1 << 15


def _write_csv(path: str, header: list[str], *columns) -> None:
    """One row per index of the equal-length columns: one "%.17g" template
    for all rows, filled from the values in row order as Python floats,
    which "%.17g" formats as float.__format__ does."""
    values = np.column_stack([np.ravel(c) for c in columns]).ravel().tolist()
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = row * (len(values) // len(columns)) % tuple(values)
    _write_text(path, ",".join(header) + "\n" + body)


def _write_scan_csv(path: str, header: list[str], ts, xs, blocks) -> None:
    """Rows t, x, j[k, i] for t = ts[k] and x = xs[i], t slowest, where
    blocks yields the rows of j a block of times at a time: the bytes
    _write_csv gives for np.repeat(ts, len(xs)), np.tile(xs, len(ts)) and
    the stacked blocks.  Each block's rows are formatted and written when
    it arrives, so neither j nor the CSV text is held whole, and each t and
    x is formatted once, not once per row."""
    x_cells = ["%.17g,%%.17g\n" % x for x in np.ravel(xs).tolist()]
    t_values = np.ravel(ts).tolist()
    with _open_new(path) as fh:
        fh.write(",".join(header) + "\n")
        start = 0
        for block in blocks:
            fh.write(_scan_rows(t_values[start:start + len(block)], x_cells, block))
            start += len(block)


def _scan_rows(ts: list[float], x_cells: list[str], block: np.ndarray) -> str:
    """The CSV rows of one block of the scan, t slowest: x_cells holds
    "x," and a "%.17g" slot for j for each x.  A formatted number holds no
    "%", so each row is the template t + t.join(x_cells) for t = "t,", and
    one "%" fills the whole block."""
    t_texts = ("%.17g," % t for t in ts)
    template = "".join(t + t.join(x_cells) for t in t_texts)
    return template % tuple(np.ravel(block).tolist())


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _open_new(path: str):
    """path opened for writing as a new file: truncating a just-written file
    costs tens of milliseconds on ext4, so an existing file or symlink is
    unlinked first."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_text(path: str, text: str) -> None:
    with _open_new(path) as fh:
        fh.write(text)


def cmd_flow_classify(cfg: dict, out_dir: str, args) -> int:
    from .flows import classify_flow
    params = build_params(cfg)
    field = build_field(cfg, params)
    probes = build_probe_spec(cfg)
    path = os.path.join(out_dir, "flow_classification.json")
    try:
        fc = classify_flow(field, probes)
    except InconclusiveClassification as exc:
        _write_json(path, {
            "field": field.label,
            "class": "Inconclusive",
            "message": str(exc),
            "diagnostics": exc.diagnostics,
        })
        print(f"inconclusive classification: {exc}", file=sys.stderr)
        return 2
    _write_json(path, {
        "field": field.label,
        "class": fc.verdict.value,
        "lost_mass_fraction": fc.lost_mass_fraction,
        "gap_measure": fc.gap_measure,
        "invariant_components": fc.invariant_components,
        "forward_escape_fraction": fc.forward_escape_fraction,
        "backward_escape_fraction": fc.backward_escape_fraction,
        "n_plus": fc.n_plus,
        "n_minus": fc.n_minus,
        "escape_samples": [
            {"start": s.start, "direction": s.direction, "t_escape": s.t_escape}
            for s in fc.escape_samples
        ],
    })
    print(f"{field.label}: {fc.verdict.value}")
    return 0


def cmd_arrival(cfg: dict, out_dir: str, args) -> int:
    from .arrival import (Component, arrival_amplitude_quadrature,
                          arrival_distribution, arrival_moments)
    from .transforms import to_momentum
    params = build_params(cfg)
    x_grid = build_x_grid(cfg)
    packet = build_packet(cfg, params, x_grid)
    psi_tilde = packet if packet.rep is Representation.MOMENTUM \
        else to_momentum(packet)
    grid_T = build_time_grid(cfg)
    s_grid = build_s_grid(cfg)

    dist = arrival_distribution(psi_tilde, grid_T=grid_T, s_grid=s_grid)
    T = dist.grid_T.points
    _write_csv(os.path.join(out_dir, "arrival_density.csv"),
               ["T", "total", "plus", "minus", "interference"],
               T, dist.total, dist.plus, dist.minus, dist.interference)

    summary = {
        "w_plus": dist.w_plus,
        "w_minus": dist.w_minus,
        "norm_defect": abs(float(np.trapezoid(dist.total, T))
                           - norm_squared(psi_tilde)),
    }
    for name, component in (("plus", Component.PLUS), ("minus", Component.MINUS)):
        if summary[f"w_{name}"] > 1e-6:
            mover = arrival_moments(dist, component)
            summary[f"mean_T_{name}"] = mover.mean
            summary[f"var_T_{name}"] = mover.variance
    if "mean_T_minus" in summary:
        # left movers arrive physically at -T
        summary["mean_arrival_minus"] = -summary["mean_T_minus"]
    if args.oracle:
        oracle = arrival_amplitude_quadrature(psi_tilde, dist.grid_T)
        scale = float(np.abs(oracle.values).max())
        summary["oracle_l_inf"] = float(
            np.abs(oracle.values - dist.amplitude).max() / scale)
    _write_json(os.path.join(out_dir, "arrival_summary.json"), summary)
    lead = "plus" if "mean_T_plus" in summary else "minus"
    print(f"w_{lead}={summary[f'w_{lead}']:.6f} "
          f"mean_T_{lead}={summary[f'mean_T_{lead}']:.4f}")
    return 0


def cmd_classical_limit(cfg: dict, out_dir: str, args) -> int:
    from .classical import (ensemble_momentum_limits, exact_momentum_histogram,
                            l1_distance, quantum_momentum_limit)
    if "classical_limit" not in cfg:
        raise ScenarioError("scenario needs a classical_limit section")
    section = cfg["classical_limit"]
    params = build_params(cfg)
    x_grid = build_x_grid(cfg)
    packet = build_packet(cfg, params, x_grid)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    samples = section.get("samples", 1_000_000)
    x0 = section.get("x0", 0.0)
    bins = section["p_bins"]
    p_edges = np.linspace(bins["min"], bins["max"], bins["count"] + 1)
    centers = 0.5 * (p_edges[:-1] + p_edges[1:])
    widths = np.diff(p_edges)

    # one streamed pass over the ensemble, which is never held whole
    mu, limits = ensemble_momentum_limits(packet, samples, seed, x0,
                                          section["times"], p_edges)
    mu_ens = mu.masses
    exact_q = exact_momentum_histogram(packet, p_edges)

    results = []
    for t, h_ens in zip(section["times"], limits):
        l1_ens = float(np.sum(np.abs(h_ens.masses - mu_ens)))
        _write_csv(os.path.join(out_dir, f"classical_limit_ensemble_t{t:g}.csv"),
                   ["p", "mu_exact", "mu_limit", "abs_err"],
                   centers, mu_ens / widths, h_ens.masses / widths,
                   np.abs(mu_ens - h_ens.masses) / widths)
        h_q = quantum_momentum_limit(packet, x0, t, p_edges)
        l1_q = l1_distance(h_q, exact_q)
        _write_csv(os.path.join(out_dir, f"classical_limit_quantum_t{t:g}.csv"),
                   ["p", "mu_exact", "mu_limit", "abs_err"],
                   centers, exact_q.masses / widths, h_q.masses / widths,
                   np.abs(exact_q.masses - h_q.masses) / widths)
        results.append({"t": t, "l1_error_ensemble": l1_ens,
                        "l1_error_quantum": l1_q})
        print(f"t={t:g}: L1 ensemble={l1_ens:.5f} quantum={l1_q:.6f}")
    _write_json(os.path.join(out_dir, "classical_limit_summary.json"),
                {"samples": samples, "seed": seed, "x0": x0, "runs": results})
    return 0


def cmd_backflow(cfg: dict, out_dir: str, args) -> int:
    from .transforms import free_current, to_momentum
    if "backflow_scan" not in cfg:
        raise ScenarioError("scenario needs a backflow_scan section")
    scan = cfg["backflow_scan"]
    params = build_params(cfg)
    x_grid = build_x_grid(cfg)
    packet = build_packet(cfg, params, x_grid)
    if packet.rep is Representation.MOMENTUM:  # its position box is the conjugate grid
        psi_tilde, box = packet, packet.grid.conjugate(params.hbar)
    else:
        psi_tilde, box = to_momentum(packet), packet.grid

    p = psi_tilde.points
    neg_mass = float(np.sum(np.abs(psi_tilde.values[p < 0.0]) ** 2)
                     * psi_tilde.grid.step)
    ts = np.linspace(scan["t_range"][0], scan["t_range"][1], scan["t_count"])
    xs = np.linspace(scan["x_range"][0], scan["x_range"][1], scan["x_count"])
    # The exact sums are periodic: outside the box they give an image.
    lo, hi = box.origin, box.origin + box.span
    if not lo <= min(xs[0], xs[-1]) <= max(xs[0], xs[-1]) <= hi:
        raise ScenarioError(
            f"backflow_scan.x_range [{xs[0]:g}, {xs[-1]:g}] leaves the position "
            f"box [{lo:g}, {hi:g}] of the packet")
    # free_current's largest phase t p^2 / (2 m hbar): past the float range
    # the current is NaN
    t_far, p_far = float(max(abs(ts[0]), abs(ts[-1]))), float(np.abs(p).max())
    if not math.isfinite(t_far * p_far * p_far / (2.0 * params.mass * params.hbar)):
        raise ScenarioError(
            f"backflow_scan.t_range reaches |t| = {t_far:g}, where the "
            f"free-evolution phase t p^2 / (2 m hbar) at |p| = {p_far:g} is not finite")

    rows = max(1, _SCAN_CELLS // len(xs))
    low = None  # (j, t index, x index): the running minimum, first occurrence

    def currents():
        nonlocal low
        for start in range(0, len(ts), rows):
            j = free_current(psi_tilde, ts[start:start + rows], xs)
            k_t, k_x = np.unravel_index(np.argmin(j), j.shape)
            if low is None or j[k_t, k_x] < low[0]:
                low = (float(j[k_t, k_x]), start + int(k_t), int(k_x))
            yield j

    _write_scan_csv(os.path.join(out_dir, "backflow_current.csv"), ["t", "x", "j"],
                    ts, xs, currents())
    min_current, k_t, k_x = low
    argmin = (float(xs[k_x]), float(ts[k_t]))
    _write_json(os.path.join(out_dir, "backflow_summary.json"), {
        "min_current": min_current,
        "argmin_x": argmin[0],
        "argmin_t": argmin[1],
        "negative_momentum_mass": neg_mass,
    })
    print(f"min current {min_current:.6e} at x={argmin[0]:g}, t={argmin[1]:g}")
    return 0


_COMMANDS = {
    "flow-classify": cmd_flow_classify,
    "arrival": cmd_arrival,
    "classical-limit": cmd_classical_limit,
    "backflow": cmd_backflow,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; --out has no default
    here, so FLOWQUANT_OUT is read when the arguments are parsed."""
    parser = argparse.ArgumentParser(
        prog="flowquant",
        description="Flow quantization and arrival-time distributions on 1-D grids.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output directory (default: env "
                       "FLOWQUANT_OUT, else out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        if name == "arrival":
            p.add_argument("--oracle", action="store_true",
                           help="also run the oscillatory-quadrature oracle")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.out is None:
        args.out = os.environ.get("FLOWQUANT_OUT", "out")

    try:
        if args.seed is not None and args.seed < 0:
            # the bound the schema puts on a scenario's seed
            raise ScenarioError(f"--seed {args.seed} is less than the minimum of 0")
        cfg = load_scenario(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NegativeMomentumLeak, InconclusiveClassification) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 2
    except FlowQuantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # load_scenario reports its own; an output failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
