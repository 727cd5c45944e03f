import math
import warnings

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


def _outcome(path):
    """load_ticks's result fields, bit for bit, or its error message."""
    try:
        ts = load_ticks(path)
    except ValueError as exc:
        return "error", str(exc)
    return ts.times.tobytes(), ts.values.tobytes(), ts.meta, ts.collapsed


def _loop_outcome(path):
    """The same, with numpy's reader switched off so the line loop parses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_loadtxt_rows", lambda fh: None)
        return _outcome(path)


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
