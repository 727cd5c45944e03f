"""Goodness-of-fit tests for subcrossing counts.

Under the null the counts are an i.i.d. sample from twice a Geometric_1(1/2)
variable: P(Z = 2i) = 2**-i, i = 1, 2, ...

Each test decides every segment of a ``Segments`` (one level's counts from
many paths) in one call; the single-sample functions are a segment of one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.special._ufuncs import _binom_cdf, _binom_sf

from .critical_values import TABLES, CriticalValueTable, lookup_cv
from .outcomes import SegmentOutcomes, Segments, per_unique, pymin, single_sample

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


def binned_counts(z: Segments, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed and expected counts of i = Z/2 with the tail pooled at d,
    one row of d bins per segment."""
    i = np.minimum(z.values // 2, d)
    obs = np.bincount(z.ids * d + i - 1, minlength=len(z) * d)
    return (obs.reshape(len(z), d).astype(np.float64),
            z.lengths[:, None] * geometric_bin_probs(d))


def pearson_statistic(obs: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """Pearson's sum of (obs - exp)**2 / exp over the last axis."""
    return np.sum((obs - exp) ** 2 / exp, axis=-1)


def _bin_count(n: int) -> int:
    return int(math.floor(math.log2(n / 5.0) + 1.0))


def _by_bins(z: Segments, rows: np.ndarray, bins: np.ndarray, statistic):
    """statistic(obs, exp) of the given segments, gathered by bin count so
    that each row's sum runs as it does on one sample."""
    out = np.full(len(z), np.nan)
    for d in np.unique(bins[rows]):
        sel = np.flatnonzero(rows & (bins == d))
        out[sel] = statistic(*binned_counts(z.take(sel), int(d)))
    return out


def _binom_half_tails(t, n):
    """P(T <= t) and P(T >= t) for T ~ Binomial(n, 1/2), bit for bit as
    ``scipy.stats.binom`` gives them: from the ufuncs behind it, with the
    sf(-1) = 1 that it sets itself where the ufunc gives NaN."""
    return (_binom_cdf(t, n, 0.5),
            np.where(t == 0, 1.0, _binom_sf(t - 1, n, 0.5)))


def twos_segments(z: Segments) -> SegmentOutcomes:
    """Exact two-sided binomial test on the number of Z = 2 observations."""
    n = z.lengths
    res = SegmentOutcomes(n)
    res.skip(n == 0, "empty sample")
    ok = res.applied
    t = z.counts(z.values == 2)[ok]
    p = pymin(1.0, 2.0 * pymin(*_binom_half_tails(t, n[ok])))
    res.decide(ok, t, p < 0.05, p)
    return res


CHI2_MIN_N = 14


def chi2_geometric_segments(z: Segments,
                            cv: CriticalValueTable | None) -> SegmentOutcomes:
    """Pearson chi-square against the geometric subcrossing law.

    For 14 <= n <= 39 the decision uses empirical 0.95 critical values with
    d = 3 bins; for n >= 40 two extra bins beyond the floor(log2(n/5) + 1)
    rule are used with the asymptotic chi-square distribution.
    """
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(CHI2_MIN_N)
    small = res.applied & (n <= CHI2_SMALL_MAX)
    if small.any():
        if cv is None:
            raise ValueError("chi2_geometric_test needs a critical-value table "
                             f"for n={n[small][0]}")
        stat = _by_bins(z, small, np.full(len(z), 3), pearson_statistic)[small]
        crit = per_unique(lambda m: lookup_cv(cv, m, 0.95)[0], n[small])
        res.decide(small, stat, stat >= crit)
    large = res.applied & ~small
    if not large.any():
        return res
    d = np.zeros(len(z), dtype=np.int64)
    d[large] = per_unique(_bin_count, n[large]) + 2
    stat = _by_bins(z, large, d, pearson_statistic)[large]
    p = special.chdtrc(d[large] - 1, stat)
    res.decide(large, stat, p < 0.05, p)
    return res


G_MIN_N = 14


def _g_statistic(obs: np.ndarray, exp: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(obs > 0, obs * np.log(obs / exp), 0.0)
    return 2.0 * terms.sum(axis=-1)


def g_segments(z: Segments) -> SegmentOutcomes:
    """Log-likelihood-ratio test with the basic floor(log2(n/5) + 1) binning."""
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(G_MIN_N)
    ok = res.applied
    d = np.zeros(len(z), dtype=np.int64)
    d[ok] = np.maximum(per_unique(_bin_count, n[ok]), 2)
    g = _by_bins(z, ok, d, _g_statistic)[ok]
    p = special.chdtrc(d[ok] - 1, g)
    res.decide(ok, g, p < 0.05, p)
    return res


def ks_statistic_from_counts(counts: np.ndarray, n) -> np.ndarray:
    """sqrt(n) * sup |H - F_n| from the counts of i = Z/2 = 1, 2, ... on the
    last axis (n: one sample size, or one per row); bins past the largest
    observed i add nothing."""
    n = np.asarray(n)
    f_emp = np.cumsum(counts, axis=-1) / n[..., None]
    h = 1.0 - 2.0 ** -np.arange(1.0, counts.shape[-1] + 1)
    return np.sqrt(n) * np.max(np.abs(h - f_emp), axis=-1)


KS_MIN_N = 2


def ks_discrete_segments(z: Segments, cv: CriticalValueTable) -> SegmentOutcomes:
    """Kolmogorov-Smirnov test with Monte Carlo critical values.

    For n > 1000 the n = 1000 critical value stands in for the asymptote.
    """
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(KS_MIN_N)
    ok = np.flatnonzero(res.applied)
    if ok.size == 0:
        return res
    if cv is None:
        raise ValueError("ks_discrete_test needs a critical-value table")
    sub = z.take(ok)
    i = sub.values // 2
    width = int(i.max())
    counts = np.bincount(sub.ids * width + i - 1, minlength=ok.size * width)
    stat = ks_statistic_from_counts(counts.reshape(ok.size, width), sub.lengths)
    crit = per_unique(lambda m: lookup_cv(cv, m, 0.95, fallback_to_max=True)[0],
                      sub.lengths)
    res.decide(ok, stat, stat > crit)
    return res


def _klp(n: int, sum_y: float, sum_yy: float) -> float:
    c_hat = (sum_yy / n) / (sum_y / n) ** 2
    if n < _KLP_LOG_MIN_N:
        return math.sqrt(n / _KLP_AVAR) * (c_hat - 1.0)
    if c_hat <= 0.0:
        return -math.inf
    return math.sqrt(n / _KLP_AVAR) * math.log(c_hat)


def klp_statistic(z: Segments) -> np.ndarray:
    """Standardised moment ratio of Y = Z/2 per segment: asymptotically
    N(0,1).

    The ratio c_hat = mean(Y(Y-1)) / mean(Y)**2 has null value 1.  From
    n = 10 the log of the ratio is standardised (same asymptotics, size
    close to nominal); below that the raw scale is kept, where the log
    would over-weight the all-twos atom (c_hat = 0) and the test runs
    conservative instead, matching its documented small-sample behaviour.
    The sums are of integers, so exact in any order.
    """
    y = z.values / 2.0
    sum_y, sum_yy = (np.bincount(z.ids, weights=w, minlength=len(z)).tolist()
                     for w in (y, y * (y - 1.0)))
    return np.array([_klp(*args) for args in zip(z.lengths.tolist(), sum_y, sum_yy)])


KLP_MIN_N = 5


def klp_nb_segments(z: Segments) -> SegmentOutcomes:
    """First-two-moments test of the geometric law, applied to Y = Z/2."""
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(KLP_MIN_N)
    ok = np.flatnonzero(res.applied)
    t = klp_statistic(z.take(ok))
    res.decide(ok, t, np.abs(t) > special.ndtri(0.975),
               2.0 * special.ndtr(-np.abs(t)))
    return res


twos_test = single_sample(twos_segments, "twos")
chi2_geometric_test = single_sample(chi2_geometric_segments, "chi2")
g_test = single_sample(g_segments, "g")
ks_discrete_test = single_sample(ks_discrete_segments, "ks_discrete")
klp_nb_test = single_sample(klp_nb_segments, "klp")
