"""Quadratic-variation baseline test.

Estimate the quadratic variation on a regular grid, invert it as a time
change, and test the normalised increments of the time-changed path against
i.i.d. N(0,1).

Each step works on many paths at once, one path per row of a matrix of
observations on a shared grid (``qv_rows``, ``qv_increments``,
``time_change_rows``, ``normal_gof_rows``); the single-path functions are a
batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .outcomes import SegmentOutcomes, Segments, TestOutcome
from .series import TickSeries

# Asymptotic 5% points: sqrt(m) * D for the two-sided Kolmogorov-Smirnov
# statistic and the one-sample Cramer-von Mises W2.
KS_CRIT_5PCT = 1.3581015157406195
CVM_CRIT_5PCT = 0.46136
GRID_RTOL = 1e-9
MIN_TEST_VALUES = 5
GOF_TESTS = ("ks", "cvm", "sm")


@dataclass(frozen=True)
class QvPath:
    """Cumulative squared increments from the second one onward."""

    qv: np.ndarray

    def total(self) -> float:
        return float(self.qv[-1])


@dataclass(frozen=True)
class NormalizedIncrements:
    z: np.ndarray
    increment: float  # the QV-time step
    n_points: int  # N: inverse evaluated at increment, 2*increment, ...


def qv_rows(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of squared increments, accumulated from the second increment,
    of each row of ``values`` (one path per row, observed at ``times``).
    The result is formed in one array of the output's size."""
    if times.size < 3:
        raise ValueError("need at least 3 observations on the grid")
    steps = np.diff(times)
    spacing = float(steps[0])
    if np.max(np.abs(steps - spacing)) > GRID_RTOL * abs(spacing):
        raise ValueError("observations are not on a regular grid")
    qv = np.subtract(values[:, 2:], values[:, 1:-1])
    np.square(qv, out=qv)
    np.cumsum(qv, axis=1, out=qv)
    return qv


def qv_increments(qv: np.ndarray, c: float) -> np.ndarray:
    """Per row of ``qv_rows``: Delta = c * S with S the mean
    quadratic-variation increment past the first recorded point; NaN where
    the quadratic variation is degenerate."""
    if not c > 0:
        raise ValueError("c must be positive")
    n_incr = qv.shape[1] - 1  # increments beyond the first recorded value
    if n_incr < 1:
        return np.full(qv.shape[0], np.nan)
    first, last = qv[:, 0], qv[:, -1]
    return np.where(last > first, c * ((last - first) / n_incr), np.nan)


def time_change_rows(values: np.ndarray, qv: np.ndarray,
                     increments: np.ndarray) -> tuple[Segments, np.ndarray]:
    """Evaluate each time-changed path on its QV clock and difference it.

    The generalised inverse maps t to the first grid time where cumulative
    QV exceeds t; N is the largest multiple of the increment still inside
    the observed QV.  Returns the normalised increments, one segment per
    row, and N per row; a row with N < 2 (or a NaN increment) has N = 0
    and an empty segment.
    """
    n_points = np.ceil(qv[:, -1] / increments) - 1
    # a quotient rounded up past a whole number puts the last threshold on
    # the total, where the inverse is undefined
    n_points -= n_points * increments >= qv[:, -1]
    ok = np.isfinite(n_points) & (n_points >= 2)
    n_points = np.where(ok, n_points, 0).astype(np.int64)
    rows = np.flatnonzero(ok)
    n = n_points[rows]
    first = n.cumsum() - n  # each row's first threshold in the flat arrays
    j = np.arange(1, n.sum() + 1) - np.repeat(first, n)
    thresholds = np.repeat(increments[rows], n) * j
    idx = _search_rows(qv, rows, n, thresholds)
    # qv[i] accrues at the (i+2)-th observation
    idx += np.repeat(rows * values.shape[1] + 2, n)
    y = values.ravel()[idx]
    z = np.subtract(y[1:], y[:-1])
    z = np.delete(z, first[1:] - 1)  # the steps from one row to the next
    z /= np.repeat(np.sqrt(increments[rows]), n - 1)
    lengths = np.zeros(qv.shape[0], dtype=np.int64)
    lengths[rows] = n - 1
    return Segments(z, lengths), n_points


def _search_rows(qv, rows, n, thresholds):
    """``np.searchsorted(qv[r], t, side="right")`` for each row r of
    ``rows`` and its ``n`` thresholds t, in one pass: the number of values
    <= t is built up bit by bit, from the largest power of two down.  A
    candidate past the row's end tests its last value, which holds only
    when the whole row is <= t."""
    width = qv.shape[1]
    flat = qv.ravel()
    base = np.repeat(rows * width - 1, n)
    count = np.zeros(thresholds.size, dtype=np.int64)
    cand = np.empty_like(count)
    bit = 1 << (width.bit_length() - 1)
    while bit:
        np.add(count, bit, out=cand)
        np.minimum(cand, width, out=cand)
        np.copyto(count, cand, where=flat[base + cand] <= thresholds)
        bit >>= 1
    return count


def normal_gof_rows(z: Segments, drop_last: bool = False
                    ) -> dict[str, SegmentOutcomes]:
    """KS, Cramer-von Mises and standardised-mean tests against N(0,1) of
    each segment.

    No centering: the null mean is known to be 0, which is what gives the
    SM statistic its sensitivity to drift.  ``drop_last`` removes each
    segment's final increment (the sawtooth-suppression variant).
    Segments of equal length are reduced as the rows of one matrix, so
    each sum runs as it does on one sample.
    """
    if drop_last:
        ends = (z.starts + z.lengths - 1)[z.lengths > 0]
        z = Segments(np.delete(z.values, ends), np.maximum(z.lengths - 1, 0))
    lengths = z.lengths
    out = {key: SegmentOutcomes(lengths) for key in GOF_TESTS}
    for res in out.values():
        res.skip(lengths < MIN_TEST_VALUES,
                 lambda m: f"only {m} normalised increments, "
                           f"need {MIN_TEST_VALUES}")
    for m in np.unique(lengths[lengths >= MIN_TEST_VALUES]).tolist():
        rows = np.flatnonzero(lengths == m)
        x = z.take(rows).values.reshape(rows.size, m)
        grid = special.ndtr(np.sort(x, axis=1))
        steps = np.arange(1, m + 1) / m
        d_stat = math.sqrt(m) * np.maximum(grid - (steps - 1.0 / m),
                                           steps - grid).max(axis=1)
        out["ks"].decide(rows, d_stat, d_stat > KS_CRIT_5PCT)

        grid -= (2 * np.arange(1, m + 1) - 1) / (2 * m)
        w2 = 1.0 / (12 * m) + np.sum(grid * grid, axis=1)
        out["cvm"].decide(rows, w2, w2 > CVM_CRIT_5PCT)

        t = np.sum(x, axis=1) / math.sqrt(m)
        sm_p = 2.0 * special.ndtr(-np.abs(t))
        out["sm"].decide(rows, t, sm_p < 0.05, sm_p)
    return out


def qv_tests(values: np.ndarray, qv: np.ndarray, c: float,
             drop_last: bool = False
             ) -> tuple[np.ndarray, dict[str, SegmentOutcomes]]:
    """The baseline at multiplier c on every row of ``values``: which rows
    have at least 2 full QV increments to test, and every row's KS, CvM
    and SM outcomes (skipped on the others)."""
    z, n_points = time_change_rows(values, qv, qv_increments(qv, c))
    return n_points > 0, normal_gof_rows(z, drop_last)


def estimate_qv(series: TickSeries) -> QvPath:
    """Sum of squared increments, accumulated from the second increment."""
    return QvPath(qv=qv_rows(series.times, series.values[None, :])[0])


def select_increment(qv: QvPath, c: float) -> float:
    """Delta = c * S with S the mean quadratic-variation increment past the
    first recorded point."""
    increment = float(qv_increments(qv.qv[None, :], c)[0])
    if math.isnan(increment):
        raise ValueError("degenerate quadratic variation")
    return increment


def time_change_increments(
    series: TickSeries, qv: QvPath, increment: float
) -> NormalizedIncrements:
    """The time-changed path's normalised increments (``time_change_rows``
    of one path)."""
    if increment <= 0:
        raise ValueError("increment must be positive")
    z, n_points = time_change_rows(series.values[None, :], qv.qv[None, :],
                                   np.array([increment], dtype=np.float64))
    if n_points[0] < 2:
        raise ValueError("fewer than 2 full QV increments available")
    return NormalizedIncrements(z=z.values, increment=float(increment),
                                n_points=int(n_points[0]))


def normal_gof_tests(
    incs: NormalizedIncrements, drop_last: bool = False
) -> dict[str, TestOutcome]:
    """``normal_gof_rows`` of one sample."""
    res = normal_gof_rows(Segments(incs.z, [incs.z.size]), drop_last)
    return {key: r.outcome(0, key) for key, r in res.items()}
