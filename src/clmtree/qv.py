"""Quadratic-variation baseline test.

Estimate the quadratic variation on a regular grid, invert it as a time
change, and test the normalised increments of the time-changed path against
i.i.d. N(0,1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .outcomes import TestOutcome, skipped_outcome
from .series import TickSeries

# Asymptotic 5% points: sqrt(m) * D for the two-sided Kolmogorov-Smirnov
# statistic and the one-sample Cramer-von Mises W2.
KS_CRIT_5PCT = 1.3581015157406195
CVM_CRIT_5PCT = 0.46136
GRID_RTOL = 1e-9
MIN_TEST_VALUES = 5


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


def estimate_qv(series: TickSeries) -> QvPath:
    """Sum of squared increments, accumulated from the second increment."""
    t = series.times
    if t.size < 3:
        raise ValueError("need at least 3 observations on the grid")
    steps = np.diff(t)
    spacing = float(steps[0])
    if np.max(np.abs(steps - spacing)) > GRID_RTOL * abs(spacing):
        raise ValueError("observations are not on a regular grid")
    inc = np.diff(series.values)
    return QvPath(qv=np.cumsum(inc[1:] ** 2))


def select_increment(qv: QvPath, c: float) -> float:
    """Delta = c * S with S the mean quadratic-variation increment past the
    first recorded point."""
    if c <= 0:
        raise ValueError("c must be positive")
    n_incr = qv.qv.size - 1  # increments beyond the first recorded value
    if n_incr < 1 or qv.qv[-1] <= qv.qv[0]:
        raise ValueError("degenerate quadratic variation")
    s = (qv.qv[-1] - qv.qv[0]) / n_incr
    return float(c * s)


def time_change_increments(
    series: TickSeries, qv: QvPath, increment: float
) -> NormalizedIncrements:
    """Evaluate the time-changed path on the QV clock and difference it.

    The generalised inverse maps t to the first grid time where cumulative
    QV exceeds t; N is the largest multiple of the increment still inside
    the observed QV.
    """
    if increment <= 0:
        raise ValueError("increment must be positive")
    total = qv.total()
    n_points = int(math.ceil(total / increment)) - 1
    if n_points < 2:
        raise ValueError("fewer than 2 full QV increments available")
    thresholds = increment * np.arange(1, n_points + 1)
    idx = np.searchsorted(qv.qv, thresholds, side="right")
    y = series.values[idx + 2]  # qv[i] accrues at the (i+2)-th observation
    z = np.diff(y) / math.sqrt(increment)
    return NormalizedIncrements(z=z, increment=float(increment), n_points=n_points)


def normal_gof_tests(
    incs: NormalizedIncrements, drop_last: bool = False
) -> dict[str, TestOutcome]:
    """KS, Cramer-von Mises and standardised-mean tests against N(0,1).

    No centering: the null mean is known to be 0, which is what gives the
    SM statistic its sensitivity to drift.  ``drop_last`` removes the final
    increment (the sawtooth-suppression variant).
    """
    z = incs.z[:-1] if drop_last else incs.z
    m = z.size
    if m < MIN_TEST_VALUES:
        reason = f"only {m} normalised increments, need {MIN_TEST_VALUES}"
        return {k: skipped_outcome(k, m, reason) for k in ("ks", "cvm", "sm")}

    zs = np.sort(z)
    grid = special.ndtr(zs)
    steps = np.arange(1, m + 1) / m
    d_stat = math.sqrt(m) * float(
        np.maximum(grid - (steps - 1.0 / m), steps - grid).max()
    )
    ks = TestOutcome("ks", m, statistic=d_stat,
                     reject_at_5pct=d_stat > KS_CRIT_5PCT)

    w2 = float(1.0 / (12 * m) + np.sum((grid - (2 * np.arange(1, m + 1) - 1)
                                        / (2 * m)) ** 2))
    cvm = TestOutcome("cvm", m, statistic=w2,
                      reject_at_5pct=w2 > CVM_CRIT_5PCT)

    t = float(np.sum(z) / math.sqrt(m))
    sm_p = float(2.0 * special.ndtr(-abs(t)))
    sm = TestOutcome("sm", m, statistic=t, p_value=sm_p,
                     reject_at_5pct=sm_p < 0.05)
    return {"ks": ks, "cvm": cvm, "sm": sm}
