"""Command-line front end.

Subcommands (one scenario JSON in, CSV/JSON files out):

* ``flow-classify``    completeness verdict for a vector field
* ``arrival``          arrival-time density with mover decomposition
* ``classical-limit``  momentum density from position measurements at large t
* ``backflow``         probability-current scan of the backflow packet

Exit codes: 0 success, 1 configuration or validation error, 2 diagnostic
outcome (inconclusive classification, negative-momentum leak).  Outputs are
byte-stable for identical configs on one numpy build, SIMD dispatch level
and C math library (the classical-limit tables use math.erfc): CSV uses '.'
decimals, 17 significant digits, LF endings, ASCII; JSON is sorted and
indented.
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
                     NegativeMomentumLeak, ScenarioError, ZeroWeightComponent)
from .grids import Representation, norm_squared
from .scenarios import (build_field, build_packet, build_params,
                        build_probe_spec, build_time_grid, build_x_grid,
                        load_scenario)

# Each subcommand imports the modules it runs, so a process loads only those.

#: The most rows a backflow scan may write, x_count * t_count: at about 60
#: bytes a row, 2^24 rows are about 1 GB of CSV.
_SCAN_ROWS = 1 << 24

#: Values per block of CSV text, or one backflow scan row if that is more:
#: each block is formatted, compressed and written before the next, so no
#: text grows with the row count, and the scan computes its currents in the
#: same blocks.
_TEXT_CELLS = 1 << 13

# The CSV numbers are the bytes of "%.17g": D = round(|v| 10^(16-k)) with
# 10^k <= |v| < 10^(k+1) holds the 17 significant digits.  10^(16-k) comes
# from the exact double-doubles hi + lo of _DECADES, for k in [_K_MIN,
# _K_MAX]; Dekker's TwoProduct gives |v| hi = p + e exactly, so D = p +
# floor(e + |v| lo + 0.5) with an error below 1e-14 of a unit in that sum.
# log10 guesses k, and the fast path keeps a value only where D confirms
# it: 10^16 <= |v| 10^(16-k) and D < 10^17.  Values whose guess D refutes
# or that round up to 10^(k+1), values whose sum lies within _NEAR of a
# half unit (near-ties, and exact ties that "%.17g" rounds half-even),
# non-finite values and |v| outside the table go to Python's "%.17g".
# The decisions use only +, -, *, floor and integer operations, so the
# text does not depend on numpy's SIMD dispatch.
_K_MIN, _K_MAX = -284, 299  # hi <= 10^300 and |v| < 10^300 split without overflow
_NEAR = 1e-9
_E16, _E17 = 10 ** 16, 10 ** 17
_SPLIT = float(2 ** 27 + 1)  # Veltkamp's constant: 26-bit halves
_ZEROS = 0x3030303030303030  # eight ASCII "0"
_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # low n bytes

# A value's text is four uint64 words, NUL-padded: bytes 0-5 the sign and
# the "0.000" of 1e-4 <= |v| < 1, bytes 6-23 the digits with the point
# after the integer digits (after the first in exponent form, none after
# "0.000"), bytes 24-28 the exponent and byte 31 the separator, which
# _text sets.  Dropping the NULs gives the row.
_WORDS = 4
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


#: Per exponent k in [_K_MIN, _K_MAX], the decade 10^k <= |v| <
#: 10^(k+1), a column of words: the float bits of hi, hi's 26-bit head and
#: tail, and lo of 10^(16-k), then the byte where the fraction's point goes,
#: the "0.000" word and the exponent word.  _decade fills a column on first
#: use, as a run writes numbers of a few dozen decades; until then it is 0.
_DECADES = np.zeros((7, _K_MAX - _K_MIN + 1), np.uint64)


def _decade(k: int) -> None:
    """Build the column of _DECADES for the exponent k.  Python's int true
    division rounds correctly, so hi is 10^(16-k) = top / bottom rounded and
    lo the rest rounded."""
    top, bottom = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
    hi = top / bottom
    num, den = hi.as_integer_ratio()
    lo = (top * den - num * bottom) / (bottom * den)
    c = hi * _SPLIT
    head = c - (c - hi)
    fixed = -4 <= k <= 16
    column = _DECADES[:, k - _K_MIN]
    column[:4] = np.array([hi, head, hi - head, lo]).view(np.uint64)
    column[4] = (7 + k if k >= 0 else 6) if fixed else 7
    column[5] = _word(b"\0" + b"0." + b"0" * (-1 - k)) if fixed and k < 0 else 0
    column[6] = 0 if fixed else _word(b"e%+03d" % k)


def _powers(k: np.ndarray) -> np.ndarray:
    """The (4, k.size) float rows of the _DECADES columns of the exponents
    k, building each decade not yet in the table."""
    columns = np.take(_DECADES[:4], k - _K_MIN, axis=1).view(float)
    new = columns[0] == 0.0
    if new.any():
        for decade in set(k[new].tolist()):  # np.unique would import numpy.ma
            _decade(decade)
        columns = np.take(_DECADES[:4], k - _K_MIN, axis=1).view(float)
    return columns


def _scaled(a, k):
    """D = round(a 10^(16-k)) as int64, and a 10^(16-k) - D + 1/2 in
    [0, 1): near 0 or 1 at a near-tie, below 1/2 where a 10^(16-k) < D."""
    hi, head, tail, lo = _powers(k)
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
    fast &= (d > _E16) | (d == _E16) & (frac >= 0.5)  # a 10^(16-k) >= 10^16
    fast &= (d < _E17) & (frac > _NEAR) & (frac < 1.0 - _NEAR)  # no round-up
    d[zero] = 0

    k -= _K_MIN
    s = np.take(_DECADES[4], k).view(np.int64)
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
    head = np.take(_DECADES[5], k) | (first << 48)
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
    out[:, 3] = np.take(_DECADES[6], k)

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        out[slow, :3] = _slow_g17(v[slow])
        out[slow, 3] = 0


def _text(rows: np.ndarray) -> bytes:
    """The bytes of a (rows, columns, _WORDS) array of _g17 words, each value
    followed by a comma and each row's last by a newline, without the NULs."""
    rows[:, :-1, 3] |= _COMMA
    rows[:, -1, 3] |= _NEWLINE
    return rows.tobytes().translate(None, b"\0")


def _write_csv(files, header: list[str], blocks) -> None:
    """Each (path, rows) of files in turn: the header, then its rows, taken
    in order from the (rows, columns, _WORDS) arrays of _g17 words that
    blocks yields, each written before the next is made."""
    blocks, rows = iter(blocks), ()
    for path, n in files:
        with _open_new(path) as fh:
            fh.write((",".join(header) + "\n").encode("ascii"))
            while n:
                if not len(rows):
                    rows = next(blocks)
                fh.write(_text(rows[:n]))
                rows, n = rows[n:], max(0, n - len(rows))


def _table(*columns):
    """The _g17 words of one row per index of the equal-length columns, one
    _g17 call per block of max(1, _TEXT_CELLS // len(columns)) rows.  Each
    block reuses the last one's array."""
    columns = [np.ravel(c) for c in columns]
    n, per = len(columns[0]), max(1, _TEXT_CELLS // len(columns))
    rows = np.empty((min(n, per), len(columns), _WORDS), np.uint64)
    for start in range(0, n, per):
        block = rows[:min(per, n - start)]
        _g17(np.column_stack([c[start:start + len(block)] for c in columns]),
             block.reshape(-1, _WORDS))
        yield block


def _scan(ts, xs, current):
    """The _g17 words of rows t, x, j[k, i] for t = ts[k] and x = xs[i], t
    slowest, where current(start, times) gives the rows of j for the block
    of times ts[start:start + len(times)]: max(1, _TEXT_CELLS // len(xs))
    times a block.  Each t and x is formatted once; each block's currents
    by one _g17 call, with the t and x words broadcast beside them."""
    t_words, x_words = (np.empty((len(v), _WORDS), np.uint64) for v in (ts, xs))
    _g17(ts, t_words)
    _g17(xs, x_words)
    per = max(1, _TEXT_CELLS // len(xs))
    for start in range(0, len(ts), per):
        j = current(start, ts[start:start + per])
        rows = np.empty((*j.shape, 3, _WORDS), np.uint64)
        rows[:, :, 0] = t_words[start:start + len(j), None]
        rows[:, :, 1] = x_words
        rows = rows.reshape(-1, 3, _WORDS)
        _g17(j, rows[:, 2])
        yield rows


def _write_json(path: str, payload: dict) -> None:
    with _open_new(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _open_new(path: str):
    """path opened for writing as a new file: truncating a just-written file
    costs tens of milliseconds on ext4, so an existing file or symlink is
    unlinked first."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "wb")


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
    payload = {name: getattr(fc, name) for name in fc._fields}
    payload["class"] = payload.pop("verdict").value
    payload["escape_samples"] = [{name: getattr(sample, name) for name in sample._fields}
                                 for sample in fc.escape_samples]
    _write_json(path, {"field": field.label, **payload})
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
    from .arrival import (Component, _momentum_input, arrival_amplitude_quadrature,
                          arrival_distribution, arrival_moments)
    # the packet in momentum, or arrival_distribution's refusal of its box
    psi_tilde = _momentum_input(build_packet(cfg, build_params(cfg), build_x_grid(cfg)))
    dist = arrival_distribution(psi_tilde, grid_T=build_time_grid(cfg))
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
                try:
                    mover = arrival_moments(dist, component)
                except ZeroWeightComponent:
                    window = dist.grid_T
                    held = float(np.trapezoid(dist.component(component), T))
                    raise ScenarioError(
                        f"grids.T [{window.origin:g}, {window.origin + window.span:g}] "
                        f"misses the {name} mover: it carries weight "
                        f"{summary[f'w_{name}']:.3e}, but the window holds "
                        f"{held:.3e} of its arrival density") from None
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
        scale = float(oracle._amp.max())
        summary["oracle_l_inf"] = float(
            np.abs(oracle.values - dist.amplitude).max() / scale)
    _write_csv([(os.path.join(out_dir, "arrival_density.csv"), len(T))],
               ["T", "total", "plus", "minus", "interference"],
               _table(T, dist.total, dist.plus, dist.minus, dist.interference))
    _write_json(os.path.join(out_dir, "arrival_summary.json"), summary)
    lead = "plus" if "mean_T_plus" in summary else "minus"
    print(f"w_{lead}={summary[f'w_{lead}']:.6f} "
          f"mean_T_{lead}={summary[f'mean_T_{lead}']:.4f}")
    return 0


def cmd_classical_limit(cfg: dict, out_dir: str, args) -> int:
    from .classical import (_gaussian_limits, exact_momentum_histogram,
                            l1_distance, quantum_momentum_limit)
    if "classical_limit" not in cfg:
        raise ScenarioError("scenario needs a classical_limit section")
    section = cfg["classical_limit"]
    named = {}  # file tag -> time
    for t in section["times"]:
        tag = f"{t:g}"
        if tag in named:
            raise ScenarioError(
                f"classical_limit.times {named[tag]!r} and {t!r} would both write "
                f"classical_limit_*_t{tag}.csv")
        named[tag] = t
    params = build_params(cfg)
    x_grid = build_x_grid(cfg)
    packet = build_packet(cfg, params, x_grid)
    # classical_limit.samples, the scenario seed and --seed are accepted and
    # change nothing: the ensemble tables are the exact histograms of the
    # product Gaussian that ensemble_from_packet samples
    x0 = section.get("x0", 0.0)
    bins = section["p_bins"]
    p_edges = np.linspace(bins["min"], bins["max"], bins["count"] + 1)

    exact_q = exact_momentum_histogram(packet, p_edges)
    # every time's refusal comes before the classical tables and the first file
    quantum = [quantum_momentum_limit(packet, x0, t, p_edges) for t in section["times"]]
    mu, limits = _gaussian_limits(packet, x0, section["times"], p_edges)

    runs = list(zip(section["times"], limits, quantum))
    results = [{"t": t, "l1_error_ensemble": l1_distance(h_ens, mu),
                "l1_error_quantum": l1_distance(h_q, exact_q)} for t, h_ens, h_q in runs]
    # every table's rows in one stream: one _g17 call for up to _TEXT_CELLS values
    files, columns = [], []
    for t, h_ens, h_q in runs:
        for kind, exact, limit in (("ensemble", mu, h_ens), ("quantum", exact_q, h_q)):
            files.append((os.path.join(out_dir, f"classical_limit_{kind}_t{t:g}.csv"),
                          len(mu.centers)))
            columns.append((mu.centers, exact.density, limit.density,
                            np.abs(exact.masses - limit.masses) / mu.widths))
    _write_csv(files, ["p", "mu_exact", "mu_limit", "abs_err"],
               _table(*map(np.concatenate, zip(*columns))))
    for run in results:
        print(f"t={run['t']:g}: L1 ensemble={run['l1_error_ensemble']:.6f} "
              f"quantum={run['l1_error_quantum']:.6f}")
    _write_json(os.path.join(out_dir, "classical_limit_summary.json"),
                {"x0": x0, "runs": results})
    return 0


def cmd_backflow(cfg: dict, out_dir: str, args) -> int:
    from .transforms import free_current
    if "backflow_scan" not in cfg:
        raise ScenarioError("scenario needs a backflow_scan section")
    scan = cfg["backflow_scan"]
    cells = scan["x_count"] * scan["t_count"]
    if cells > _SCAN_ROWS:
        raise ScenarioError(
            f"backflow_scan.x_count * t_count = {cells} rows, more than the "
            f"{_SCAN_ROWS} a scan may write")
    psi_tilde, box = _momentum_packet(cfg)
    params = psi_tilde.params

    p = psi_tilde.points
    neg_mass = float(np.sum(psi_tilde._amp[p < 0.0] ** 2) * psi_tilde.grid.step)
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

    lows = []  # per block of times, its first minimum (j, t index, x index)

    def current(start, times):
        j = free_current(psi_tilde, times, xs)
        k_t, k_x = np.unravel_index(np.argmin(j), j.shape)
        lows.append((float(j[k_t, k_x]), start + int(k_t), int(k_x)))
        return j

    # computed, written and searched for the minimum a CSV block at a time
    _write_csv([(os.path.join(out_dir, "backflow_current.csv"), len(ts) * len(xs))],
               ["t", "x", "j"], _scan(ts, xs, current))
    min_current, k_t, k_x = min(lows)  # the first occurrence in (t, x) order
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
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="flowquant",
        description="Flow quantization and arrival-time distributions on 1-D grids.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name == "classical-limit":
            p.add_argument("--seed", type=int, default=None,
                           help="accepted and unused: the tables are exact")
        if name == "arrival":
            p.add_argument("--oracle", action="store_true",
                           help="also run the oscillatory-quadrature oracle")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            # the bound the schema puts on a scenario's seed
            raise ScenarioError(f"--seed {args.seed} is less than the minimum of 0")
        cfg = load_scenario(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args)
    except NegativeMomentumLeak as exc:
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
