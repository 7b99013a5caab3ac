"""The CLI's CSV number text: cli._g17 against Python's "%.17g", its fast
path on real traffic, and the writers' blocks and memory."""

import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowquant import cli


def _text(values) -> bytes:
    return b"".join(map(cli._text, cli._table(np.asarray(values, dtype=float))))


def _oracle(values) -> bytes:
    return "".join(map("{:.17g}\n".format, np.ravel(values).tolist())).encode("ascii")


def _assert_oracle(values):
    got, want = _text(values).split(b"\n"), _oracle(values).split(b"\n")
    bad = [(v, g, w) for v, g, w in zip(np.ravel(values).tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {np.size(values)} differ, e.g. {bad[:5]}"
    assert len(got) == len(want)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -math.inf, math.nan, 1e-4, 1e16, 1e17, 1e22])
@example([9.9999999999999995e-05, 0.00099999999999999999, 99999999999999999.0])
def test_g17_is_float_format(values):
    _assert_oracle(values)


def _families(rng) -> np.ndarray:
    """Seeded values that probe each step of the formatter, over 1M."""
    n = 1 << 19
    # every exponent field equally likely: subnormals, huge, inf and nan too
    bits = rng.integers(0, 1 << 63, n, dtype=np.uint64) | (
        rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    uniform = bits.view(np.float64)
    # k / 2^n: short binary fractions, whose decimals end in ...5 and give
    # exact ties at the 18th digit
    dyadic = (rng.integers(1, 1 << 53, n, dtype=np.int64).astype(float)
              * np.exp2(-rng.integers(0, 110, n)))
    ties = (2.0 * rng.integers(1, 1 << 40, n) + 1.0) * np.exp2(-rng.integers(1, 60, n))
    # integers next to where the digit count and float spacing change
    near = np.concatenate([float(c) + np.arange(-2000.0, 2001.0)
                           for c in (2 ** 53, 10 ** 16, 10 ** 17, 2 ** 56, 10 ** 15)])
    # 10^q and its neighbours within three ulps, over the table and past it
    tens = np.array([float(10 ** q) if q >= 0 else 1 / 10 ** -q
                     for q in range(-330, 309)])
    ulps = np.concatenate([tens] + [np.nextafter(tens, d) for d in (0.0, np.inf)])
    for _ in range(2):
        ulps = np.concatenate([ulps, np.nextafter(ulps, 0.0), np.nextafter(ulps, np.inf)])
    # the exponents at the ends of the table, and where the fast path stops
    ends = [cli._K_MIN - 2, cli._K_MIN - 1, cli._K_MIN, cli._K_MAX, cli._K_MAX + 1,
            cli._K_MAX + 2, 16 - cli._Q_MIN, 16 - cli._Q_MAX]
    edge = (rng.uniform(1.0, 10.0, (len(ends), 4096))
            * np.array([10.0 ** k for k in ends])[:, None]).ravel()
    values = np.concatenate([uniform, dyadic, ties, near, ulps, edge])
    return np.where(rng.integers(0, 2, values.size, dtype=bool), -values, values)


def test_g17_on_seeded_families():
    values = _families(np.random.default_rng(26))
    assert values.size >= 1_000_000
    for start in range(0, values.size, 1 << 17):
        _assert_oracle(values[start:start + (1 << 17)])


def test_g17_table_is_exact():
    # hi is 10^q rounded, lo the rest rounded, head + tail == hi in 26 bits
    # each, for q = 16 - k over every decade k of the table
    ks = np.arange(cli._K_MIN - 1, cli._K_MAX + 3)
    hi, head, tail, lo = cli._powers(ks)
    for i, k in enumerate(ks.tolist()):
        exact = Fraction(10) ** (16 - k)
        assert hi[i] == float(exact)
        assert lo[i] == float(exact - Fraction(hi[i]))
        assert head[i] + tail[i] == hi[i]
        for half in (head[i], tail[i]):
            mantissa = Fraction(abs(half)) / Fraction(2) ** (math.frexp(half)[1] - 26)
            assert mantissa.denominator == 1
    # the largest value on the fast path splits without overflow
    assert math.isfinite(float(10 ** (cli._K_MAX + 2)) * cli._SPLIT)


def test_g17_builds_the_decade_a_rounding_moves_to(monkeypatch):
    # with log10 one ulp low, 1e-243 (a float just below 10^-243) is first
    # scaled in decade -244 and rounds up to 10^17 there: its text is read
    # from decade -243, which nothing else has built in a fresh table
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    monkeypatch.setattr(cli, "_DECADES", np.zeros_like(cli._DECADES))
    _assert_oracle([1e-243, -1e-176, 1e-175])


@pytest.fixture
def fallback_share(monkeypatch):
    """counts() gives (values formatted, values sent to "%.17g")."""
    counts = [0, 0]
    g17, slow = cli._g17, cli._slow_g17

    def counted_g17(values, out):
        counts[0] += np.size(values)
        g17(values, out)

    def counted_slow(values):
        counts[1] += len(values)
        return slow(values)

    monkeypatch.setattr(cli, "_g17", counted_g17)
    monkeypatch.setattr(cli, "_slow_g17", counted_slow)
    return lambda: tuple(counts)


def test_fast_path_serves_the_shipped_csvs(fallback_share, run_shipped, shipped_outputs):
    # a formatter that fell back everywhere would pass every byte test
    assert run_shipped() == shipped_outputs
    total, slow = fallback_share()
    assert total >= 50_000
    assert slow * 1000 < total


def test_fast_path_serves_a_normal_sample(fallback_share):
    values = np.random.default_rng(7).standard_normal(1 << 18)
    assert _text(values) == _oracle(values)
    total, slow = fallback_share()
    assert total == values.size and slow * 1000 < total


def test_fallback_takes_only_what_it_must(fallback_share):
    values = np.array([math.nan, -math.inf, 5e-324, 1e-300, 1e305, 0.5, -0.0, 1.0])
    assert _text(values) == _oracle(values)
    assert fallback_share() == (values.size, 5)


def _reference_csv(header, *columns) -> bytes:
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    return (",".join(header) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)).encode("ascii")


@pytest.mark.parametrize("count", [1, 5])
def test_write_csv_in_many_blocks(tmp_path, count):
    rng = np.random.default_rng(count)
    n = 3 * cli._TEXT_CELLS + 7
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
               for _ in range(count)]
    header = list("abcde")[:count]
    cli._write_csv([(tmp_path / "t.csv", n)], header, cli._table(*columns))
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, *columns)


@pytest.mark.parametrize("nt, nx, rows", [(3, cli._TEXT_CELLS + 5, 1), (3, cli._TEXT_CELLS + 5, 2),
                                          (40, 700, 7), (40, 700, 40)])
def test_scan_csv_in_many_blocks(tmp_path, monkeypatch, nt, nx, rows):
    # more currents per block of times than one text block holds, and a
    # time row wider than a text block
    if rows != max(1, cli._TEXT_CELLS // nx):
        monkeypatch.setattr(cli, "_TEXT_CELLS", rows * nx)  # blocks of rows times
    rng = np.random.default_rng(nx)
    ts, xs = np.linspace(0.0, 3.0, nt), np.linspace(-5.0, 5.0, nx)
    j = rng.standard_normal((nt, nx))
    cli._write_csv([(tmp_path / "s.csv", nt * nx)], ["t", "x", "j"],
                   cli._scan(ts, xs, lambda start, times: j[start:start + len(times)]))
    assert (tmp_path / "s.csv").read_bytes() == _reference_csv(
        ["t", "x", "j"], np.repeat(ts, nx), np.tile(xs, nt), j)


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_csv_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(3)
    xs = np.linspace(-20.0, 20.0, 201)
    peaks = []
    for nt in (101, 101, 2020):  # a first run fills the tables
        ts = np.linspace(0.0, 10.0, nt)
        j = rng.standard_normal((nt, xs.size))
        path = os.path.join(tmp_path, f"scan{nt}.csv")
        scan = cli._scan(ts, xs, lambda start, times: j[start:start + len(times)])
        peaks.append(_traced_peak(
            lambda: cli._write_csv([(path, j.size)], ["t", "x", "j"], scan)))
    assert peaks[2] <= 1.2 * peaks[1]


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(4)
    peaks = []
    for n in (2048, 2048, 131_072):
        columns = [rng.standard_normal(n) for _ in range(5)]
        path = os.path.join(tmp_path, f"table{n}.csv")
        peaks.append(_traced_peak(
            lambda: cli._write_csv([(path, n)], list("abcde"), cli._table(*columns))))
    assert peaks[2] <= 1.2 * peaks[1]
