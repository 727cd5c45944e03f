"""Irregularly sampled observations and their tick files."""

from __future__ import annotations

import copy
import logging
import os
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CANONICAL_HEADER = "time,value"
# The fixed-layout reader takes the body in blocks of whole rows of about
# this many bytes, so that its buffers do not grow with the file.  Two
# threads parse a 400,000-tick file faster in 512 KB blocks than in 1 MB.
FIXED_BLOCK_BYTES = 1 << 19
# At most 15 digits keep a field's integer below 2**53, an exact double.
FIXED_MAX_DIGITS = 15


@dataclass(frozen=True)
class TickSeries:
    """Timestamped observations of one process.

    ``times`` are real seconds (or plain tick indices: downstream tests are
    invariant to the time coordinate) and must be strictly increasing.
    Immutable after construction; safe to share across threads.
    """

    times: np.ndarray
    values: np.ndarray
    meta: str = ""
    collapsed: int = 0  # duplicate-timestamp rows merged away by the loader

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValueError("times and values must be 1-d and equal length")
        if t.size < 2:
            raise ValueError("need at least 2 observations")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")

    def _on_times(self, values) -> TickSeries:
        """This series with new ``values``, of which only the values are
        checked: the times were checked when this series was built."""
        v = np.ascontiguousarray(values, dtype=np.float64)
        v.setflags(write=False)
        if v.shape != self.times.shape:
            raise ValueError("times and values must be 1-d and equal length")
        if not np.all(np.isfinite(v)):
            raise ValueError("times and values must be finite")
        new = copy.copy(self)
        object.__setattr__(new, "values", v)
        return new

    def __len__(self) -> int:
        return int(self.times.size)

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def load_ticks(path: str) -> TickSeries:
    """Load a tick file into a TickSeries.

    The canonical format is UTF-8 CSV with header ``time,value``, one
    observation per row, '.' decimal separator and LF line endings.  Every
    '#' line, before or after the header (e.g. an epoch declaration), is
    kept in ``meta``.  Duplicate timestamps collapse to the last value seen
    (latest quote wins); the collapse count is reported on the result.

    Data rows are read by the first of three routes that takes the file:

    1. the fixed-layout reader (``_fixed_rows``), for files whose rows are
       all as wide as the first and hold unsigned decimals of at most 15
       digits, with each ',' and '.' in the same column on every row.  It
       reads a field with k digits after its '.' as an integer over 10**k;
       both are exact doubles (at most 15 digits, and 10**k exact for
       k <= 22), so the one division rounds correctly.  Two threads parse
       the rows straight into the (2, n) array;
    2. numpy's C reader (``_loadtxt_rows``);
    3. a loop over the lines (``_line_rows``), which names the line of a
       malformed row.

    Each route gives the (2, n) array of times and values and the '#'
    lines, or None for a file it refuses, which goes to the next route.  So
    the accepted inputs are the loop's, and so are the bits: every route
    reads the correctly rounded double of each field.  Rows already in
    strictly increasing time skip the sort and the duplicate collapse.
    """
    try:
        with open(path, "rb") as fh:
            got = _fixed_rows(fh)
        if got is None:
            with open(path, "r", encoding="utf-8") as fh:
                got = _loadtxt_rows(fh) or _line_rows(fh, path)
    except OSError as exc:
        raise OSError(f"cannot read tick file {path}: {exc}") from exc

    cols, comments = got
    if cols.shape[1] < 2:
        raise ValueError(f"{path}: fewer than 2 observations")
    collapsed = 0
    # rows already in strictly increasing time need neither sort nor collapse
    if not np.all(cols[0, 1:] > cols[0, :-1]):
        cols = cols[:, np.argsort(cols[0], kind="stable")]
        # Last observation wins on duplicate timestamps.
        keep = np.concatenate([cols[0, 1:] != cols[0, :-1], [True]])
        collapsed = int((~keep).sum())
        cols = cols[:, keep]
    if cols.shape[1] < 2:
        raise ValueError(f"{path}: fewer than 2 distinct timestamps")
    if collapsed:
        logger.info("%s: collapsed %d duplicate-timestamp rows", path, collapsed)
    meta = "; ".join(comments) if comments else path
    return TickSeries(times=cols[0], values=cols[1], meta=meta, collapsed=collapsed)


def _line_rows(fh, path: str):
    """(cols, comments) of text ``fh``, read line by line from its start.
    Raises ValueError naming the line of a wrong header or a malformed row."""
    fh.seek(0)
    rows, comments, header_seen = [], [], False
    for lineno, line in enumerate(fh.read().split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line.lstrip("# "))
            continue
        if not header_seen:
            if line != CANONICAL_HEADER:
                raise ValueError(
                    f"{path}:{lineno}: expected header {CANONICAL_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from exc
    if not header_seen:
        raise ValueError(f"{path}: missing {CANONICAL_HEADER!r} header")
    return np.array(rows, dtype=np.float64).reshape(-1, 2).T, comments


def _fixed_rows(fh):
    """(cols, comments) of a fixed-layout tick file open in binary, or None.

    The first data row sets the layout: its width, and the columns of its
    ',' and '.' bytes.  Every row must have the same bytes in those columns,
    a digit in every other column but the last, and a newline there.  Each
    field has 1 to FIXED_MAX_DIGITS digits and at most one '.'.  The body
    is read in blocks of whole rows, about FIXED_BLOCK_BYTES each.  The
    calling thread parses the first half of the blocks, rounded up, and one
    helper thread the rest, each at its own file offsets and into block
    buffers allocated here, so no number depends on thread timing.  A file
    of one block starts no thread; the helper is joined before this returns
    or raises.

    Any other file gives None, and no error: CRLF ends, signs, exponents,
    underscores, blanks, a '#' after the header, a missing final newline,
    mixed widths, or a field of more digits.  So does a file that ends
    before its size said, or a platform without ``os.preadv``.
    """
    from concurrent.futures import ThreadPoolExecutor  # not on import clmtree

    try:
        comments = _preamble(_utf8_lines(fh))
    except ValueError:
        return None
    if comments is None:
        return None
    start = fh.tell()
    layout = _fixed_layout(fh.readline(FIXED_BLOCK_BYTES))
    if layout is None or not hasattr(os, "preadv"):
        return None
    width = layout[0].size
    n, extra = divmod(os.fstat(fh.fileno()).st_size - start, width)
    if extra:
        return None

    per_block = max(1, FIXED_BLOCK_BYTES // width)
    # the calling thread's rows: ceil(blocks / 2) = ceil(n / (2 * per_block))
    mid = min(n, -(-n // (2 * per_block)) * per_block)
    cols = np.empty((2, n), dtype=np.float64)
    with ThreadPoolExecutor(max_workers=1) as helper:  # a thread on submit only
        second = helper.submit(
            _parse_fixed, fh.fileno(), start + mid * width, layout, cols[:, mid:],
            *_block_buffers(min(per_block, n - mid), width)) if mid < n else None
        ok = _parse_fixed(fh.fileno(), start, layout, cols[:, :mid],
                          *_block_buffers(min(per_block, mid), width))
        ok = (second is None or second.result()) and ok
    return (cols, comments) if ok else None


def _block_buffers(rows: int, width: int):
    """The reused buffers of one thread's blocks of ``rows`` rows."""
    return (np.empty((rows, width), dtype=np.uint8),
            np.empty((rows, width), dtype=np.uint8),
            np.empty((rows, width), dtype=bool), np.empty(rows, dtype=np.int64))


def _parse_fixed(fd, offset, layout, out, buf, gap, bad, acc):
    """Read the rows at byte ``offset`` of ``fd`` into the two rows of
    ``out``, a block of buf's rows at a time; False if a row does not fit
    the layout or the file ends early.  A field's integer is built with one
    multiply-add per digit column, then divided by 10.0**k (k digits after
    its '.') straight into ``out``.  Both operands are exact doubles, so the
    division rounds correctly (Clinger 1990), to the double any parser
    reads from the text."""
    expect, limit, fields = layout
    per_block, width = buf.shape
    for lo in range(0, out.shape[1], per_block):
        m = min(per_block, out.shape[1] - lo)
        block = buf[:m]
        if os.preadv(fd, [block], offset + lo * width) != block.nbytes:
            return False
        # uint8 wraps below expect, so one comparison bounds each byte
        np.subtract(block, expect, out=gap[:m])
        if np.greater(gap[:m], limit, out=bad[:m]).any():
            return False
        a = acc[:m]
        for j, (digit_cols, zeros, scale) in enumerate(fields):
            a[:] = block[:, digit_cols[0]]
            for col in digit_cols[1:]:
                a *= 10
                a += block[:, col]
            a -= zeros
            np.divide(a, scale, out=out[j, lo:lo + m])
    return True


def _fixed_layout(row: bytes):
    """(expect, limit, fields) of the fixed layout whose first row is ``row``,
    or None.  A byte b fits column c when (b - expect[c]) mod 256 is at most
    limit[c].  ``fields`` holds, per field, its digit columns, the value its
    multiply-add gains from the '0' bytes, and 10.0**k."""
    if not row.endswith(b"\n"):
        return None
    parts = row[:-1].split(b",")
    if len(parts) != 2:
        return None
    expect = np.frombuffer(row, dtype=np.uint8).copy()
    limit = np.zeros_like(expect)
    fields = []
    pos = 0
    for part in parts:
        whole, _, frac = part.partition(b".")
        digits = whole + frac
        if not (digits.isdigit() and len(digits) <= FIXED_MAX_DIGITS):
            return None
        cols = [pos + i for i, byte in enumerate(part) if byte != ord(".")]
        expect[cols] = ord("0")
        limit[cols] = 9
        zeros = ord("0") * int("1" * len(cols))
        fields.append((cols, zeros, 10.0 ** len(frac)))
        pos += len(part) + 1
    return expect, limit, fields


def _utf8_lines(fh):
    """The lines of binary ``fh`` as text.  Raises ValueError on a line that
    is not UTF-8 or holds a carriage return, which the text-mode readers
    take as a line end."""
    for line in iter(fh.readline, b""):
        if b"\r" in line:
            raise ValueError("carriage return")
        yield line.decode("utf-8")


def _preamble(lines):
    """The '#' lines before the header, each stripped of its '# ', or None
    if another nonblank line comes first or no header comes.  Stops right
    after the header."""
    comments = []
    for line in lines:
        line = line.strip()
        if line.startswith("#"):
            comments.append(line.lstrip("# "))
        elif line == CANONICAL_HEADER:
            return comments
        elif line:
            return None
    return None


def _loadtxt_rows(fh):
    """(cols, comments) with the rows read by ``np.loadtxt``, or None."""
    comments = _preamble(iter(fh.readline, ""))
    if comments is None:
        return None
    # comments=None: the reader refuses any '#' after the header as no number,
    # and a file with no rows by its "no data" warning.  It refuses a
    # whitespace-only line too, which the loop skips as blank, so a refused
    # file is read once more without such lines.
    start = fh.tell()
    rows = _read_rows(fh)
    if rows is None:
        fh.seek(start)
        rows = _read_rows(line for line in fh if not line.isspace())
    return (rows.T, comments) if rows is not None and rows.shape[1] == 2 else None


def _read_rows(lines):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (ValueError, Warning):
        return None


def save_ticks(series: TickSeries, path: str) -> None:
    """Write the canonical tick format; round-trips bit-exactly via repr.
    Each nonblank line of ``meta`` becomes one '#' line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if series.meta and "," not in series.meta and series.meta != path:
            fh.writelines(f"# {line}\n" for line in series.meta.splitlines()
                          if line.strip())
        fh.write(CANONICAL_HEADER + "\n")
        fh.write("".join(f"{t!r},{v!r}\n" for t, v in
                         zip(series.times.tolist(), series.values.tolist())))


def log_transform(series: TickSeries) -> TickSeries:
    """Natural log of the values; timestamps unchanged."""
    bad = np.flatnonzero(series.values <= 0.0)
    if bad.size:
        raise ValueError(f"nonpositive value at index {int(bad[0])}")
    return series._on_times(np.log(series.values))
