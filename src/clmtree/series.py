"""Irregularly sampled observations and their tick files."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

CANONICAL_HEADER = "time,value"


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
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")

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

    Data rows are parsed by numpy's C reader.  Only a file it refuses goes
    to the loop over the lines, which accepts the same inputs, to the same
    bits, and names the line of a malformed row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fast = _loadtxt_rows(fh)
            fh.seek(0)
            raw = [] if fast else fh.read().split("\n")
    except OSError as exc:
        raise OSError(f"cannot read tick file {path}: {exc}") from exc

    rows, comments = fast or ([], [])
    header_seen = bool(fast)
    for lineno, line in enumerate(raw, start=1):
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

    if len(rows) < 2:
        raise ValueError(f"{path}: fewer than 2 observations")
    arr = np.asarray(rows, dtype=np.float64)
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    # Last observation wins on duplicate timestamps.
    keep = np.concatenate([arr[1:, 0] != arr[:-1, 0], [True]])
    collapsed = int((~keep).sum())
    arr = arr[keep]
    if arr.shape[0] < 2:
        raise ValueError(f"{path}: fewer than 2 distinct timestamps")
    if collapsed:
        logger.info("%s: collapsed %d duplicate-timestamp rows", path, collapsed)
    meta = "; ".join(comments) if comments else path
    return TickSeries(times=arr[:, 0], values=arr[:, 1], meta=meta, collapsed=collapsed)


def _loadtxt_rows(fh):
    """(rows, comments) with the rows read by ``np.loadtxt``, or None."""
    comments = []
    for line in iter(fh.readline, ""):
        line = line.strip()
        if line.startswith("#"):
            comments.append(line.lstrip("# "))
        elif line == CANONICAL_HEADER:
            break
        elif line:
            return None
    # comments=None: the reader refuses any '#' after the header as no number,
    # and a file with no header or no rows by its "no data" warning.  It
    # refuses a whitespace-only line too, which the loop skips as blank, so
    # a refused file is read once more without such lines.
    start = fh.tell()
    rows = _read_rows(fh)
    if rows is None:
        fh.seek(start)
        rows = _read_rows(line for line in fh if not line.isspace())
    return (rows, comments) if rows is not None and rows.shape[1] == 2 else None


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
        for t, v in zip(series.times, series.values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def log_transform(series: TickSeries) -> TickSeries:
    """Natural log of the values; timestamps unchanged."""
    bad = np.flatnonzero(series.values <= 0.0)
    if bad.size:
        raise ValueError(f"nonpositive value at index {int(bad[0])}")
    return TickSeries(
        times=series.times,
        values=np.log(series.values),
        meta=series.meta,
        collapsed=series.collapsed,
    )
