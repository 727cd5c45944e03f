"""Goodness-of-fit tests for subcrossing counts.

Under the null the counts are an i.i.d. sample from twice a Geometric_1(1/2)
variable: P(Z = 2i) = 2**-i, i = 1, 2, ...
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from .critical_values import TABLES, CriticalValueTable, lookup_cv
from .outcomes import TestOutcome, ZSample, skipped_outcome

# Delta-method variance of n**0.5 * (c_hat - 1) for Y = Z/2 under the null
# (moments of Geometric_1(1/2): E Y = 2, E Y(Y-1) = 4, Var Y(Y-1) = 88,
# Cov(Y(Y-1), Y) = 12, Var Y = 2).
_KLP_AVAR = 1.5

_KLP_LOG_MIN_N = 10

# largest n decided by the empirical table (d = 3)
CHI2_SMALL_MAX = TABLES["chi2_geometric"].lengths[-1]


def geometric_bin_probs(d: int) -> np.ndarray:
    """Null mass of i = Z/2 on the bins 1, ..., d-1 and the pooled tail d+:
    2**-i below d and 2**-(d-1) for the tail, summing to 1."""
    probs = 2.0 ** -np.arange(1.0, d + 1)
    probs[-1] = 2.0 ** -(d - 1)
    return probs


def _bin_geometric(values: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed and expected counts on i = Z/2 with the tail pooled at d."""
    i = values // 2
    obs = np.zeros(d, dtype=np.float64)
    clipped = np.minimum(i, d)
    obs[:] = np.bincount(clipped.astype(np.int64), minlength=d + 1)[1 : d + 1]
    return obs, values.size * geometric_bin_probs(d)


def pearson_statistic(obs: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """Pearson's sum of (obs - exp)**2 / exp over the last axis."""
    return np.sum((obs - exp) ** 2 / exp, axis=-1)


def _bin_count(n: int) -> int:
    return int(math.floor(math.log2(n / 5.0) + 1.0))


def twos_test(z: ZSample) -> TestOutcome:
    """Exact two-sided binomial test on the number of Z = 2 observations."""
    n = len(z)
    if n == 0:
        return skipped_outcome("twos", n, "empty sample")
    t = int(np.sum(z.values == 2))
    lo = stats.binom.cdf(t, n, 0.5)
    hi = stats.binom.sf(t - 1, n, 0.5)
    p = min(1.0, 2.0 * min(lo, hi))
    return TestOutcome("twos", n, statistic=float(t), p_value=p,
                       reject_at_5pct=p < 0.05)


CHI2_MIN_N = 14


def chi2_geometric_test(z: ZSample, cv: CriticalValueTable | None) -> TestOutcome:
    """Pearson chi-square against the geometric subcrossing law.

    For 14 <= n <= 39 the decision uses empirical 0.95 critical values with
    d = 3 bins; for n >= 40 two extra bins beyond the floor(log2(n/5) + 1)
    rule are used with the asymptotic chi-square distribution.
    """
    n = len(z)
    if n < CHI2_MIN_N:
        return skipped_outcome("chi2", n, f"n={n} below floor {CHI2_MIN_N}")
    if n <= CHI2_SMALL_MAX:
        if cv is None:
            raise ValueError("chi2_geometric_test needs a critical-value table "
                             f"for n={n}")
        d_stat = float(pearson_statistic(*_bin_geometric(z.values, 3)))
        crit, _ = lookup_cv(cv, n, 0.95)
        return TestOutcome("chi2", n, statistic=d_stat,
                           reject_at_5pct=d_stat >= crit)
    d = _bin_count(n) + 2
    d_stat = float(pearson_statistic(*_bin_geometric(z.values, d)))
    p = float(special.chdtrc(d - 1, d_stat))
    return TestOutcome("chi2", n, statistic=d_stat, p_value=p,
                       reject_at_5pct=p < 0.05)


G_MIN_N = 14


def g_test(z: ZSample) -> TestOutcome:
    """Log-likelihood-ratio test with the basic floor(log2(n/5) + 1) binning."""
    n = len(z)
    if n < G_MIN_N:
        return skipped_outcome("g", n, f"n={n} below floor {G_MIN_N}")
    d = max(_bin_count(n), 2)
    obs, exp = _bin_geometric(z.values, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(obs > 0, obs * np.log(obs / exp), 0.0)
    g = float(2.0 * terms.sum())
    p = float(special.chdtrc(d - 1, g))
    return TestOutcome("g", n, statistic=g, p_value=p, reject_at_5pct=p < 0.05)


def ks_statistic_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    """sqrt(n) * sup |H - F_n| from the counts of i = Z/2 = 1, 2, ... on the
    last axis; bins past the largest observed i add nothing."""
    f_emp = np.cumsum(counts, axis=-1) / n
    h = 1.0 - 2.0 ** -np.arange(1.0, counts.shape[-1] + 1)
    return np.sqrt(n) * np.max(np.abs(h - f_emp), axis=-1)


def ks_statistic_geometric(values: np.ndarray) -> float:
    """sqrt(n) * sup |H - F_n| over the jump points 2, 4, ... of the null cdf."""
    i = values // 2
    counts = np.bincount(i.astype(np.int64), minlength=int(i.max()) + 1)[1:]
    return float(ks_statistic_from_counts(counts, values.size))


KS_MIN_N = 2


def ks_discrete_test(z: ZSample, cv: CriticalValueTable) -> TestOutcome:
    """Kolmogorov-Smirnov test with Monte Carlo critical values.

    For n > 1000 the n = 1000 critical value stands in for the asymptote.
    """
    n = len(z)
    if n < KS_MIN_N:
        return skipped_outcome("ks_discrete", n, f"n={n} below floor {KS_MIN_N}")
    if cv is None:
        raise ValueError("ks_discrete_test needs a critical-value table")
    d_stat = ks_statistic_geometric(z.values)
    crit, _ = lookup_cv(cv, n, 0.95, fallback_to_max=True)
    return TestOutcome("ks_discrete", n, statistic=d_stat,
                       reject_at_5pct=d_stat > crit)


def klp_statistic(values: np.ndarray) -> float:
    """Standardised moment ratio of Y = Z/2: asymptotically N(0,1).

    The ratio c_hat = mean(Y(Y-1)) / mean(Y)**2 has null value 1.  From
    n = 10 the log of the ratio is standardised (same asymptotics, size
    close to nominal); below that the raw scale is kept, where the log
    would over-weight the all-twos atom (c_hat = 0) and the test runs
    conservative instead, matching its documented small-sample behaviour.
    """
    y = values / 2.0
    n = y.size
    mean_y = y.mean()
    c_hat = float(np.mean(y * (y - 1.0)) / mean_y**2)
    if n < _KLP_LOG_MIN_N:
        return math.sqrt(n / _KLP_AVAR) * (c_hat - 1.0)
    if c_hat <= 0.0:
        return -math.inf
    return math.sqrt(n / _KLP_AVAR) * math.log(c_hat)


KLP_MIN_N = 5


def klp_nb_test(z: ZSample) -> TestOutcome:
    """First-two-moments test of the geometric law, applied to Y = Z/2."""
    n = len(z)
    if n < KLP_MIN_N:
        return skipped_outcome("klp", n, f"n={n} below floor {KLP_MIN_N}")
    t = klp_statistic(z.values)
    p = float(2.0 * special.ndtr(-abs(t)))
    return TestOutcome("klp", n, statistic=t, p_value=p,
                       reject_at_5pct=abs(t) > special.ndtri(0.975))


def chi2_stationarity(z: ZSample, parts: int) -> TestOutcome:
    """Split-sample variant: sum of per-part chi-square statistics.

    Harness-side diagnostic only; chi2_{parts*(d-1)} under the null.
    """
    n = len(z)
    if parts < 2 or n // parts < CHI2_MIN_N:
        return skipped_outcome("chi2_split", n, "parts too short")
    size = n // parts
    d = max(_bin_count(size), 2)
    total = 0.0
    for j in range(parts):
        total += float(pearson_statistic(
            *_bin_geometric(z.values[j * size : (j + 1) * size], d)))
    df = parts * (d - 1)
    p = float(special.chdtrc(df, total))
    return TestOutcome("chi2_split", size * parts, statistic=total, p_value=p,
                       reject_at_5pct=p < 0.05)
