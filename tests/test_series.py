import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from clmtree import series
from clmtree.series import (
    TickSeries,
    load_ticks,
    log_transform,
    save_ticks,
)


def write(tmp_path, text, name="ticks.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_three_rows(tmp_path):
    path = write(tmp_path, "time,value\n0,1.0\n1,1.5\n2,1.2\n")
    ts = load_ticks(path)
    assert len(ts) == 3
    assert ts.values.tolist() == [1.0, 1.5, 1.2]
    assert ts.collapsed == 0


def test_duplicate_timestamps_keep_last(tmp_path):
    path = write(tmp_path, "time,value\n0,0.5\n1,1.0\n1,2.0\n2,3.0\n")
    ts = load_ticks(path)
    assert len(ts) == 3
    assert ts.values[1] == 2.0  # latest quote wins
    assert ts.collapsed == 1


def test_malformed_row_names_line(tmp_path):
    path = write(tmp_path, "time,value\n0,1.0\n1,abc\n2,2.0\n")
    with pytest.raises(ValueError, match=":3"):
        load_ticks(path)


def test_missing_header(tmp_path):
    path = write(tmp_path, "0,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_ticks(path)


def test_too_few_distinct_timestamps(tmp_path):
    path = write(tmp_path, "time,value\n1,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="distinct"):
        load_ticks(path)


def test_unreadable_file():
    with pytest.raises(OSError):
        load_ticks("/nonexistent/nowhere.csv")


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    ts = TickSeries(times=np.cumsum(rng.random(50) + 1e-3),
                    values=rng.standard_normal(50))
    path = str(tmp_path / "rt.csv")
    save_ticks(ts, path)
    back = load_ticks(path)
    assert np.array_equal(back.times, ts.times)
    assert np.array_equal(back.values, ts.values)


def test_multiline_meta_roundtrips(tmp_path):
    ts = TickSeries(times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]),
                    meta="EURUSD 2003\nsource: broker\n")
    path = str(tmp_path / "meta.csv")
    save_ticks(ts, path)
    back = load_ticks(path)
    assert back.meta == "EURUSD 2003; source: broker"
    assert np.array_equal(back.values, ts.values)


def _per_row_writer(ts, path):
    """``save_ticks`` as it stood with one ``float()`` and one write a row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ts.meta and "," not in ts.meta and ts.meta != path:
            fh.writelines(f"# {line}\n" for line in ts.meta.splitlines()
                          if line.strip())
        fh.write(series.CANONICAL_HEADER + "\n")
        for t, v in zip(ts.times, ts.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def test_save_ticks_writes_the_per_row_bytes(tmp_path):
    rng = np.random.default_rng(5)
    values = np.r_[-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16,
                   0.1, 1.0 / 3.0, rng.standard_normal(200)]
    times = np.r_[-1e16, np.cumsum(rng.exponential(1.0, values.size - 1))]
    ts = TickSeries(times=times, values=values,
                    meta="EURUSD 2003\nsource: broker\n")
    for name, meta in (("meta", ts.meta), ("plain", "")):
        ts_ = TickSeries(times=ts.times, values=ts.values, meta=meta)
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_rows.csv"
        save_ticks(ts_, str(got))
        _per_row_writer(ts_, str(want))
        assert got.read_bytes() == want.read_bytes()
    assert got.read_text().startswith("time,value\n-1e+16,-0.0\n")


def _outcome(path):
    """load_ticks's result fields, bit for bit, or its error message."""
    try:
        ts = load_ticks(path)
    except ValueError as exc:
        return "error", str(exc)
    return ts.times.tobytes(), ts.values.tobytes(), ts.meta, ts.collapsed


def _loop_outcome(path):
    """The same, with both fast readers off so that the line loop parses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_fixed_rows", lambda fh: None)
        mp.setattr(series, "_loadtxt_rows", lambda fh: None)
        return _outcome(path)


def _fixed_reader_takes(path):
    with open(path, "rb") as fh:
        return series._fixed_rows(fh) is not None


def test_reader_matches_line_loop(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)
    short = st.tuples(st.integers(-10**6, 10**6), st.integers(0, 5)).map(
        lambda kd: f"{kd[0] / 10**kd[1]:.{kd[1]}f}")
    number = st.one_of(finite.map(repr), finite.map(lambda x: "%.17g" % x),
                       short)
    # a few fixed times make duplicate timestamps likely ("1" == "1.0")
    time = st.one_of(number, st.sampled_from(["0", "1", "1.0", "-0.0"]))
    row = st.builds(lambda t, v, pad: f"{pad}{t},{pad}{v}{pad}",
                    time, number, st.sampled_from(["", " "]))
    blank = st.sampled_from(["", " ", "\t", "  "])
    path = tmp_path / "prop.csv"

    @hypothesis.given(
        lines=st.lists(st.one_of(row, row, row, blank), min_size=2, max_size=30),
        preamble=st.sampled_from(["", "# epoch 2003-01-01\n", "\n \n"]),
        eol=st.sampled_from(["\n", "\r\n"]),
        last_eol=st.booleans())
    def check(lines, preamble, eol, last_eol):
        text = preamble + "time,value" + eol + eol.join(lines)
        path.write_bytes((text + (eol if last_eol else "")).encode("utf-8"))
        assert _outcome(str(path)) == _loop_outcome(str(path))
        # the reader takes every file with a row, blank lines and
        # whitespace-only lines among them
        if any(line.strip() for line in lines):
            with open(path, encoding="utf-8") as fh:
                assert series._loadtxt_rows(fh) is not None

    check()


def _fixed_layout_files():
    """(text, digits per field) of files in one fixed layout: each field
    has the same digits before and after its '.' on every row, with
    leading zeros, and up to 22 digits after the '.'; times repeat and
    come sorted or not."""
    st = pytest.importorskip("hypothesis").strategies

    @st.composite
    def layout(draw):
        # one field in four is too long for the fixed-layout reader
        too_long = draw(st.integers(0, 3)) == 3
        n = draw(st.integers(16, 23) if too_long
                 else st.integers(1, series.FIXED_MAX_DIGITS))
        frac = draw(st.integers(0, min(n, 22)))
        return n - frac, frac, frac > 0 or draw(st.booleans())

    @st.composite
    def files(draw):
        layouts = [draw(layout()), draw(layout())]

        def field(whole, frac, dot):
            digits = st.text("0123456789", min_size=whole + frac,
                             max_size=whole + frac)
            return digits.map(lambda d: d[:whole] + "." * dot + d[whole:])

        # at one width and '.' column, text order is numeric order
        pool = sorted(draw(st.lists(field(*layouts[0]), min_size=2,
                                    max_size=12, unique=True)))
        times = draw(st.one_of(
            st.just(pool), st.permutations(pool),
            st.lists(st.sampled_from(pool[:3]), min_size=2, max_size=12)))
        values = draw(st.lists(field(*layouts[1]), min_size=len(times),
                               max_size=len(times)))
        preamble = draw(st.sampled_from(["", "# epoch 2003-01-01\n", "\n \n"]))
        text = preamble + "time,value\n" + "".join(
            f"{t},{v}\n" for t, v in zip(times, values))
        return text, [whole + frac for whole, frac, _ in layouts]

    return files()


def test_fixed_reader_matches_line_loop(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "fixed.csv"

    @hypothesis.given(case=_fixed_layout_files())
    def check(case):
        text, digits = case
        path.write_bytes(text.encode("utf-8"))
        assert _fixed_reader_takes(path) == all(
            1 <= d <= series.FIXED_MAX_DIGITS for d in digits)
        assert _outcome(str(path)) == _loop_outcome(str(path))

    check()


def test_fixed_reader_refuses_near_misses(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "near.csv"

    def mutate(text, kind, at, col):
        head, _, body = text.partition("time,value\n")
        rows = body.split("\n")[:-1]
        row = rows[at % len(rows)]
        digits = [i for i, c in enumerate(row) if c.isdigit()]
        i = digits[col % len(digits)]
        if kind in "-e_":  # a sign, exponent or underscore float may take
            row = row[:i] + kind + row[i + 1:]
        elif kind == "wider":
            row = row[:i] + "0" + row[i:]
        rows[at % len(rows)] = row
        eol = "\r\n" if kind == "crlf" else "\n"
        last = "" if kind == "no final newline" else eol
        return head + "time,value\n" + eol.join(rows) + last

    @hypothesis.given(
        case=_fixed_layout_files(),
        kind=st.sampled_from(["-", "e", "_", "crlf", "no final newline",
                              "wider"]),
        at=st.integers(0, 11), col=st.integers(0, 29))
    def check(case, kind, at, col):
        text, digits = case
        hypothesis.assume(all(1 <= d <= series.FIXED_MAX_DIGITS
                              for d in digits))
        path.write_bytes(mutate(text, kind, at, col).encode("utf-8"))
        assert not _fixed_reader_takes(path)
        assert _outcome(str(path)) == _loop_outcome(str(path))

    check()


@pytest.mark.parametrize("preamble", [b"# a\rb\n", b"# \xff\n"])
def test_fixed_reader_leaves_text_mode_preambles(tmp_path, preamble):
    # text mode ends a line at '\r' and refuses bytes that are not UTF-8
    path = tmp_path / "pre.csv"
    path.write_bytes(preamble + b"time,value\n0,1\n1,2\n")
    assert not _fixed_reader_takes(path)
    assert _outcome(str(path)) == _loop_outcome(str(path))


def test_sixteen_digits_go_to_the_other_readers(tmp_path):
    path = write(tmp_path, "time,value\n0,1234567890.123456\n1,2.5\n")
    assert not _fixed_reader_takes(path)
    assert load_ticks(path).values.tolist() == [1234567890.123456, 2.5]


def test_bench_tick_files_take_the_fixed_reader(tmp_path, monkeypatch):
    # the benchmark's own generator, loaded from its file and not edited
    source = Path(__file__).resolve().parents[1] / "bench" / "ticks.py"
    spec = importlib.util.spec_from_file_location("bench_ticks", source)
    ticks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ticks)
    monkeypatch.setattr(ticks, "N_TICKS", 2_000)
    ticks.write_inputs(201, str(tmp_path))
    monkeypatch.setattr(series, "_loadtxt_rows", lambda fh: pytest.fail(
        "a bench tick file left the fixed-layout reader"))
    for index, (pair, _, decimals, _) in enumerate(ticks.PAIRS):
        micros, pips = ticks.generate_pair(201, index)
        s = load_ticks(str(tmp_path / f"{pair}.csv"))
        assert s.collapsed == 0
        assert np.array_equal(s.times, micros.astype(np.float64))
        assert np.array_equal(s.values, pips / 10**decimals)


def test_whitespace_only_lines_stay_with_the_reader(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text("time,value\n \t\n0,1.5\n  \n1,2.5\n\t", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        rows, _ = series._loadtxt_rows(fh)
    assert rows.tolist() == [[0.0, 1.5], [1.0, 2.5]]
    s = load_ticks(str(path))
    assert s.times.tolist() == [0.0, 1.0] and s.values.tolist() == [1.5, 2.5]


def test_comment_after_value_is_malformed(tmp_path):
    path = write(tmp_path, "time,value\n0,1\n1,2 # x\n2,3\n")
    with pytest.raises(ValueError, match=r":3: malformed row"):
        load_ticks(path)


@pytest.mark.parametrize("body", ["0,1,2\n1,2,3\n", "0\n1\n"])
def test_other_column_counts_are_malformed(tmp_path, body):
    path = write(tmp_path, "time,value\n" + body)
    with pytest.raises(ValueError, match=r":2: malformed row"):
        load_ticks(path)


def test_underscored_number_still_accepted(tmp_path):
    path = write(tmp_path, "time,value\n0,1\n1_0,2\n")
    assert load_ticks(path).times.tolist() == [0.0, 10.0]


def test_comment_between_rows_goes_to_meta(tmp_path):
    path = write(tmp_path, "# epoch\ntime,value\n0,1\n# gap\n1,2\n")
    ts = load_ticks(path)
    assert ts.meta == "epoch; gap"
    assert ts.values.tolist() == [1.0, 2.0]


def test_malformed_row_deep_in_large_file_names_line(tmp_path):
    rows = "".join(f"{i},1\n" for i in range(399_999))
    path = write(tmp_path, "time,value\n" + rows + "x,1\n" + "5e5,1\n")
    with pytest.raises(ValueError, match=r":400001: malformed row 'x,1'"):
        load_ticks(path)


@pytest.mark.parametrize("body", ["", "0,1\n"])
def test_too_few_rows_raise_without_warning(tmp_path, body):
    path = write(tmp_path, "time,value\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="fewer than 2 observations"):
            load_ticks(path)
    assert caught == []


def test_log_transform_identities():
    ts = TickSeries(times=np.array([0.0, 1.0, 2.0]),
                    values=np.array([1.0, math.e, math.e**2]))
    out = log_transform(ts)
    assert np.allclose(out.values, [0.0, 1.0, 2.0], atol=1e-15)
    assert np.array_equal(out.times, ts.times)


def test_log_transform_rejects_nonpositive():
    ts = TickSeries(times=np.array([0.0, 1.0, 2.0]),
                    values=np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="index 1"):
        log_transform(ts)


def test_fx_like_fixture_drift_negligible():
    # magnitudes mimic a year of AUD-USD-style log ticks: increment mean
    # tiny relative to its standard deviation
    rng = np.random.default_rng(20030101)
    n = 60_000
    log_rate = np.cumsum(rng.standard_normal(n) * 2.47e-4) + math.log(0.59)
    ts = TickSeries(times=np.arange(n, dtype=float), values=np.exp(log_rate))
    out = log_transform(ts)
    inc = out.increments()
    assert abs(inc.mean()) / inc.std() < 0.01


def test_validation():
    with pytest.raises(ValueError):
        TickSeries(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TickSeries(times=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        TickSeries(times=np.array([0.0, 1.0]), values=np.array([1.0, np.nan]))
