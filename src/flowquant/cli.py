"""Command-line front end.

Subcommands (one scenario JSON in, CSV/JSON files out):

* ``flow-classify``    completeness verdict for a vector field
* ``arrival``          arrival-time density with mover decomposition
* ``classical-limit``  momentum density from position measurements at large t
* ``backflow``         probability-current scan of the backflow packet

Exit codes: 0 success, 1 configuration or validation error, 2 diagnostic
outcome (inconclusive classification, negative-momentum leak).  Outputs are
byte-stable for identical configs and seeds on one numpy build and SIMD
dispatch level: CSV uses '.' decimals, 17 significant digits, LF endings,
ASCII; JSON is sorted and indented.
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

#: Values per block of CSV text: each block is formatted, compressed and
#: written before the next, so no text grows with the row count.
_TEXT_CELLS = 1 << 13

# The CSV numbers are the bytes of "%.17g": D = round(|v| 10^(16-k)) with
# 10^k <= |v| < 10^(k+1) holds the 17 significant digits.  10^(16-k) comes
# from a table of exact double-doubles hi + lo for q = 16 - k in [_Q_MIN,
# _Q_MAX]; Dekker's TwoProduct gives |v| hi = p + e exactly, so D = p +
# floor(e + |v| lo + 0.5) with an error below 1e-14 of a unit in that sum.
# Values whose sum lies within _NEAR of a half unit (near-ties, and exact
# ties that "%.17g" rounds half-even), non-finite values and |v| outside
# the table go to Python's "%.17g".  The decisions use only +, -, *, floor
# and integer operations (log10 only guesses k, which D then corrects), so
# the text does not depend on numpy's SIMD dispatch.
_Q_MIN, _Q_MAX = -283, 300  # |v| < 10^(17 - _Q_MIN) keeps |v| (2^27 + 1) finite
_K_MIN, _K_MAX = 17 - _Q_MAX, 15 - _Q_MIN  # guesses of k whose correction stays in the table
_NEAR = 1e-9
_E16, _E17 = 10 ** 16, 10 ** 17
_SPLIT = float(2 ** 27 + 1)  # Veltkamp's constant: 26-bit halves
_ZEROS = 0x3030303030303030  # eight ASCII "0"
_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # low n bytes

# A value's text is four uint64 words, NUL-padded: bytes 0-5 the sign and
# the "0.000" of 1e-4 <= |v| < 1, bytes 6-23 the digits with the point
# after the integer digits (after the first in exponent form, none after
# "0.000"), bytes 24-28 the exponent and byte 31 the separator, which the
# writers set.  Dropping the NULs gives the row.
_WORDS = 4
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _g17_tables():
    """(hi, hi's 26-bit head and tail, lo) for each q as a (4, q) array,
    and per k from _K_MIN - 1 to _K_MAX + 2 the byte where the fraction's
    point goes, the "0.000" word and the exponent word.  Python's int true
    division and int-to-float conversion round correctly, so hi is 10^q
    rounded and lo the rest rounded."""
    powers = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            hi = float(10 ** q)
            lo = float(10 ** q - int(hi))
        else:
            hi = 1 / 10 ** -q
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -q) / (den * 10 ** -q)
        c = hi * _SPLIT
        head = c - (c - hi)
        powers.append((hi, head, hi - head, lo))
    ks = range(_K_MIN - 1, _K_MAX + 3)
    fixed = [-4 <= k <= 16 for k in ks]
    point = [(7 + k if k >= 0 else 6) if f else 7 for k, f in zip(ks, fixed)]
    lead = [_word(b"\0" + b"0." + b"0" * (-1 - k)) if f and k < 0 else 0
            for k, f in zip(ks, fixed)]
    exp = [0 if f else _word(b"e%+03d" % k) for k, f in zip(ks, fixed)]
    return (np.array(powers).T.copy(), np.array(point),
            np.array(lead, dtype=np.uint64), np.array(exp, dtype=np.uint64))


def _scaled(a, k):
    """D = round(a 10^(16-k)) as int64, and a 10^(16-k) - D + 1/2 in
    [0, 1): near 0 or 1 at a near-tie, below 1/2 where a 10^(16-k) < D."""
    hi, head, tail, lo = np.take(_g17_tables()[0], 16 - _Q_MIN - k, axis=1)
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    f = ah * head
    f -= p
    f += ah * tail
    f += al * head
    f += al * tail  # f = a hi - p exactly
    f += a * lo
    f += 0.5
    floor = np.floor(f)
    f -= floor
    return p.astype(np.int64) + floor.astype(np.int64), f


def _k_step(d, frac):
    """+1 where a 10^(16-k) >= 10^17, -1 where it is < 10^16, else 0."""
    return (((d > _E17) | ((d == _E17) & (frac >= 0.5))).astype(np.int64)
            - ((d < _E16) | ((d == _E16) & (frac < 0.5))))


def _ascii8(x):
    """The eight decimal digits of each x < 10^8 as ASCII bytes, first digit
    in the low byte: halves, quarters and eighths split in parallel lanes
    by multiply-shift division."""
    m = (x // 10000) | ((x % 10000) << 32)
    t = ((m * 10486) >> 20) & 0x0000007F0000007F
    m = ((m - 100 * t) << 16) | t
    t = ((m * 103) >> 10) & 0x000F000F000F000F
    return (((m - 10 * t) << 8) | t) | _ZEROS


def _last_digit(word):
    """Index of the last non-"0" digit in each _ascii8 word, -1 if none:
    the top set byte of word ^ _ZEROS, a value below 16 times 256^i, which
    frexp reads off exactly."""
    return (np.frexp((word ^ _ZEROS).astype(float))[1] - 1) >> 3


def _slow_g17(values: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each value, NUL-padded to three words, from one
    "%" call: at most 24 characters each."""
    text = ("%-24.17g" * len(values) % tuple(values.tolist())).encode("ascii")
    return np.frombuffer(text.replace(b" ", b"\0"), np.uint64).reshape(-1, 3)


def _g17(values, out: np.ndarray) -> None:
    """Write the "%.17g" text of each value into the rows of out, a
    (values.size, _WORDS) uint64 array, as NUL-padded bytes."""
    v = np.ravel(values).astype(float, copy=False)
    a = np.abs(v)
    zero = a == 0.0
    fast = np.isfinite(a) & ~zero
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    fast &= (k >= _K_MIN) & (k <= _K_MAX)
    a[~fast] = 1.0
    k[~fast] = 0
    d, frac = _scaled(a, k)
    step = _k_step(d, frac)
    redo = np.flatnonzero(step)
    if redo.size:  # log10 missed k by one
        k[redo] += step[redo]
        d[redo], frac[redo] = _scaled(a[redo], k[redo])
        fast[redo] &= _k_step(d[redo], frac[redo]) == 0
    fast &= (frac > _NEAR) & (frac < 1.0 - _NEAR)
    up = d == _E17  # 9.99...95 rounded up to 10.000...
    d[up] = _E16
    k += up
    d[zero] = 0
    k[zero] = 0

    _, point, lead, exp = _g17_tables()
    k -= _K_MIN - 1
    s = point[k]
    u = d.view(np.uint64)
    first = u // _E16
    u -= first * _E16
    g1 = u // 100_000_000
    u -= g1 * 100_000_000
    g1, g2 = _ascii8(g1), _ascii8(u)
    first += 0x30
    # digit i sits at byte 6 + i before the point and 7 + i after it;
    # keep ends after the last nonzero digit, and never inside the integer
    z1, z2 = _last_digit(g1), _last_digit(g2)
    keep = np.where(z2 >= 0, 17 + z2, np.where(z1 >= 0, 9 + z1, 8))
    np.maximum(keep, s, out=keep)
    dot = np.where((keep > s + 1) & (s > 6), 0x2E2E2E2E2E2E2E2E, 0).astype(np.uint64)
    head = lead[k] | (first << 48)
    head[np.signbit(v)] |= 0x2D
    words = ((head | (g1 << 56), first << 56),  # digits at 6 + i, at 7 + i
             ((g1 >> 8) | (g2 << 56), g1),
             (g2 >> 8, g2))
    for w, (before, after) in enumerate(words):
        low = np.take(_LOW, s - 8 * w, mode="clip")
        low_dot = np.take(_LOW, s + 1 - 8 * w, mode="clip")
        before &= low
        after &= ~low_dot
        low ^= low_dot
        low &= dot
        before |= low
        before |= after
        before &= np.take(_LOW, keep - 8 * w, mode="clip")
        out[:, w] = before
    out[:, 3] = exp[k]

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        out[slow, :3] = _slow_g17(v[slow])
        out[slow, 3] = 0


def _words(values: np.ndarray, end: np.uint64) -> np.ndarray:
    """The _g17 words of values, each followed by end, formatted a block at
    a time."""
    out = np.empty((len(values), _WORDS), np.uint64)
    for start in range(0, len(values), _TEXT_CELLS):
        _g17(values[start:start + _TEXT_CELLS], out[start:start + _TEXT_CELLS])
    out[:, 3] |= end
    return out


def _text(rows: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array of _g17 words without the NULs."""
    b = rows.view(np.uint8)
    return b[b != 0]


def _write_csv(path: str, header: list[str], *columns) -> None:
    """One row per index of the equal-length columns, formatted and written
    a block of rows at a time, with one _g17 call per block."""
    columns = [np.ravel(c) for c in columns]
    n, per = len(columns[0]), max(1, _TEXT_CELLS // len(columns))
    rows = np.empty((min(n, per), len(columns), _WORDS), np.uint64)
    ends = np.array([_COMMA] * (len(columns) - 1) + [_NEWLINE])
    with _open_new(path) as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, n, per):
            block = rows[:min(per, n - start)]
            _g17(np.column_stack([c[start:start + len(block)] for c in columns]),
                 block.reshape(-1, _WORDS))
            block[:, :, 3] |= ends
            fh.write(_text(block))


def _write_scan_csv(path: str, header: list[str], ts, xs, blocks) -> None:
    """Rows t, x, j[k, i] for t = ts[k] and x = xs[i], t slowest, where
    blocks yields the rows of j a block of times at a time: the bytes
    _write_csv gives for np.repeat(ts, len(xs)), np.tile(xs, len(ts)) and
    the stacked blocks.  Each t and x is formatted once; per block of at
    most _TEXT_CELLS currents only j is, with the t and x words broadcast
    beside it."""
    t_words, x_words = _words(np.ravel(ts), _COMMA), _words(np.ravel(xs), _COMMA)
    per, wide = max(1, _TEXT_CELLS // len(x_words)), min(len(x_words), _TEXT_CELLS)
    rows = np.empty((per * wide, 3, _WORDS), np.uint64)
    with _open_new(path) as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        t0 = 0
        for block in blocks:
            for k in range(0, len(block), per):
                for i in range(0, len(x_words), wide):
                    j = block[k:k + per, i:i + wide]
                    cells = rows[:j.size]
                    grid = cells.reshape(*j.shape, 3, _WORDS)
                    grid[:, :, 0] = t_words[t0 + k:t0 + k + len(j), None]
                    grid[:, :, 1] = x_words[i:i + j.shape[1]]
                    _g17(j, cells[:, 2])
                    cells[:, 2, 3] |= _NEWLINE
                    fh.write(_text(cells))
            t0 += len(block)


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
    return open(path, "wb")


def _write_text(path: str, text: str) -> None:
    with _open_new(path) as fh:
        fh.write(text.encode("utf-8"))


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


def _momentum_packet(cfg: dict):
    """The scenario packet in the momentum representation, and its position
    box: grids.x for a packet built in position, and the conjugate of the
    packet's momentum grid for a backflow packet, which is built in momentum
    on the conjugate of grids.x."""
    from .transforms import to_momentum
    params = build_params(cfg)
    packet = build_packet(cfg, params, build_x_grid(cfg))
    if packet.rep is Representation.MOMENTUM:
        return packet, packet.grid.conjugate(params.hbar)
    return to_momentum(packet), packet.grid


def cmd_arrival(cfg: dict, out_dir: str, args) -> int:
    from .arrival import (Component, arrival_amplitude_quadrature,
                          arrival_distribution, arrival_moments)
    psi_tilde, _ = _momentum_packet(cfg)
    grid_T = build_time_grid(cfg)
    s_grid = build_s_grid(cfg)

    dist = arrival_distribution(psi_tilde, grid_T=grid_T, s_grid=s_grid)
    T = dist.grid_T.points
    # on a T window too wide for float64 the moments overflow: refused
    # below, before any file is written
    with np.errstate(over="ignore", invalid="ignore"):
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
    bad = sorted(key for key, value in summary.items() if not math.isfinite(value))
    if bad:
        window = dist.grid_T
        raise ScenarioError(
            f"grids.T [{window.origin:g}, {window.origin + window.span:g}] is too "
            f"wide: {' and '.join(bad)} not finite in float64")
    if "mean_T_minus" in summary:
        # left movers arrive physically at -T
        summary["mean_arrival_minus"] = -summary["mean_T_minus"]
    if args.oracle:
        oracle = arrival_amplitude_quadrature(psi_tilde, dist.grid_T)
        scale = float(np.abs(oracle.values).max())
        summary["oracle_l_inf"] = float(
            np.abs(oracle.values - dist.amplitude).max() / scale)
    _write_csv(os.path.join(out_dir, "arrival_density.csv"),
               ["T", "total", "plus", "minus", "interference"],
               T, dist.total, dist.plus, dist.minus, dist.interference)
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
    from .transforms import free_current
    if "backflow_scan" not in cfg:
        raise ScenarioError("scenario needs a backflow_scan section")
    scan = cfg["backflow_scan"]
    psi_tilde, box = _momentum_packet(cfg)
    params = psi_tilde.params

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
