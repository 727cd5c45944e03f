"""Frozen reference copy of the per-path quadratic-variation study.

The QV baseline as it stood before it was batched across paths: each path
is simulated from its own generator, wrapped as a tick series, and taken
through the estimate, the increment choice, the time change and the
KS / CvM / SM tests one at a time.  The package's batched study must give
``==`` rows, and ``==`` per-path statistics, on every input.
"""

import math

import numpy as np
from scipy import special

from clmtree.outcomes import TestOutcome, skipped_outcome
from clmtree.qv import CVM_CRIT_5PCT, GRID_RTOL, KS_CRIT_5PCT, MIN_TEST_VALUES
from clmtree.series import TickSeries


def reference_estimate_qv(series):
    t = series.times
    if t.size < 3:
        raise ValueError("need at least 3 observations on the grid")
    steps = np.diff(t)
    spacing = float(steps[0])
    if np.max(np.abs(steps - spacing)) > GRID_RTOL * abs(spacing):
        raise ValueError("observations are not on a regular grid")
    inc = np.diff(series.values)
    return np.cumsum(inc[1:] ** 2)


def reference_select_increment(qv, c):
    if c <= 0:
        raise ValueError("c must be positive")
    n_incr = qv.size - 1
    if n_incr < 1 or qv[-1] <= qv[0]:
        raise ValueError("degenerate quadratic variation")
    s = (qv[-1] - qv[0]) / n_incr
    return float(c * s)


def reference_time_change(series, qv, increment):
    """(z, n_points) of one path."""
    if increment <= 0:
        raise ValueError("increment must be positive")
    total = float(qv[-1])
    n_points = int(math.ceil(total / increment)) - 1
    if n_points < 2:
        raise ValueError("fewer than 2 full QV increments available")
    thresholds = increment * np.arange(1, n_points + 1)
    idx = np.searchsorted(qv, thresholds, side="right")
    y = series.values[idx + 2]
    return np.diff(y) / math.sqrt(increment), n_points


def reference_gof(z, drop_last=False):
    z = z[:-1] if drop_last else z
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


def reference_qv_paths(cfg):
    n, h = cfg.qv_n_points, cfg.qv_spacing
    kind = "bm" if cfg.process is None else cfg.process.kind
    out = np.empty((cfg.n_paths, n + 1))
    for i in range(cfg.n_paths):
        rng = np.random.default_rng([cfg.seed, i])
        bm = np.concatenate([[0.0],
                             np.cumsum(rng.standard_normal(n) * math.sqrt(h))])
        if kind == "bm":
            out[i] = bm
        elif kind == "expbm":
            t = h * np.arange(n + 1)
            out[i] = np.exp(bm - 0.5 * t)
        else:
            raise ValueError(f"unknown qv process {kind!r}")
    return out


def reference_path_outcomes(series, c, drop_last=False):
    """One path's KS / CvM / SM outcomes at multiplier c, or None where the
    path has too little quadratic variation to time-change."""
    qv = reference_estimate_qv(series)
    try:
        inc = reference_select_increment(qv, c)
        z, _ = reference_time_change(series, qv, inc)
    except ValueError:
        return None
    return reference_gof(z, drop_last)


def reference_qv_study(cfg, c_values):
    """(rows, per-c list of per-path outcomes) of the per-path study."""
    c_values = list(c_values)
    if not c_values:
        raise ValueError("need at least one c value")
    paths = reference_qv_paths(cfg)
    times = cfg.qv_spacing * np.arange(cfg.qv_n_points + 1)
    series_all = [TickSeries(times=times, values=row, meta="qv-study")
                  for row in paths]
    rows, outcomes = [], []
    for c in c_values:
        counts = {"ks": [0, 0], "cvm": [0, 0], "sm": [0, 0]}
        tested_sizes = []
        per_path = [reference_path_outcomes(s, c, cfg.qv_drop_last)
                    for s in series_all]
        for res in per_path:
            if res is None:
                continue
            tested_sizes.append(res["sm"].n_used)
            for key, outcome in res.items():
                if outcome.applied:
                    counts[key][1] += 1
                    counts[key][0] += bool(outcome.reject_at_5pct)
        rows.append({
            "c": float(c),
            "mean_n_tested": float(np.mean(tested_sizes)) if tested_sizes else 0.0,
            **{key: tuple(val) for key, val in counts.items()},
        })
        outcomes.append(per_path)
    return rows, outcomes
