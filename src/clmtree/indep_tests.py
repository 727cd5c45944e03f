"""Serial-independence tests for subcrossing counts and excursion bits.

The run/cluster statistics (number of runs, run-length variances, success
locations) are referred to exact conditional null distributions or to
moment-matched Gamma laws whose mean and variance are computed exactly from
the combinatorics of random binary arrangements.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.special import gammaln

from .critical_values import TABLES, CriticalValueTable, lookup_cv
from .outcomes import (DEGENERATE, BitSequence, SegmentOutcomes, Segments, ZSample,
                       per_unique, pymin, single_sample)

# Exact enumeration of the run-count distribution is used up to this length;
# beyond it the normal approximation with continuity correction takes over.
RUNS_EXACT_MAX = 50

# longest samples decided by the empirical tables
AUTOCORR_TABLE_MAX = TABLES["autocorr"].lengths[-1]
LARSEN_TABLE_MAX = TABLES["larsen"].lengths[-1]
OBRIEN76_TABLE_MAX = TABLES["obrien76"].lengths[-1]


def indicator_of_twos(z: ZSample) -> BitSequence:
    """I_k = 1 where Z_k equals 2."""
    if len(z) == 0:
        raise ValueError("empty sample")
    return BitSequence((z.values == 2).astype(np.int8), origin="twos-indicator")


def _tabled(res: SegmentOutcomes, test_id: str, n_max: int, stat: np.ndarray,
            cv: CriticalValueTable | None) -> np.ndarray:
    """Two-sided 5% decision outside the tabulated 0.025 and 0.975 quantiles
    up to length n_max; returns the longer applied segments.

    The comparisons are strict: at small n the statistic has atoms, and
    an empirical quantile can sit on one; inclusive cutoffs would then
    reject the whole atom and overshoot the level.
    """
    rows = res.applied & (res.n_used <= n_max)
    n = res.n_used[rows]
    if n.size:
        if cv is None:
            raise ValueError(f"the {test_id} test needs critical values for n={n[0]}")
        lo = per_unique(lambda m: lookup_cv(cv, m, 0.025)[0], n)
        hi = per_unique(lambda m: lookup_cv(cv, m, 0.975)[0], n)
        res.decide(rows, stat[rows], (stat[rows] < lo) | (stat[rows] > hi))
    return res.applied & ~rows


def _normal(res: SegmentOutcomes, rows: np.ndarray, stat: np.ndarray,
            zscore: np.ndarray) -> None:
    """Two-sided p-value of a zscore that is N(0,1) under the null."""
    if not rows.any():
        return
    p = 2.0 * special.ndtr(-np.abs(zscore))
    res.decide(rows, stat, p < 0.05, p)


# ---------------------------------------------------------------------------
# lag-1 autocorrelation
# ---------------------------------------------------------------------------

def lag1_autocorr_statistic(z: Segments) -> tuple[np.ndarray, np.ndarray]:
    """Per segment: the known-mean-4 lag-1 numerator over the centred sum
    of squares; constant segments are invalid.  Segments of equal length
    are reduced as the rows of one matrix, so each sum runs as it does on
    one sample."""
    out = np.full(len(z), np.nan)
    for m in np.unique(z.lengths[z.lengths >= 2]):
        rows = np.flatnonzero(z.lengths == m)
        x = z.take(rows).values.reshape(rows.size, m).astype(np.float64, copy=False)
        dev = x - 4.0
        num = np.sum(dev[:, 1:] * dev[:, :-1], axis=1)
        cen = x - x.mean(axis=1, keepdims=True)
        den = np.sum(cen * cen, axis=1)
        valid = den > 0
        out[rows[valid]] = num[valid] / den[valid]
    return out, ~np.isnan(out)


def lag1_autocorr_batch(z_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lag1_autocorr_statistic`` of the rows of a matrix."""
    return lag1_autocorr_statistic(Segments.rows(z_matrix))


AUTOCORR_MIN_N = 5


def lag1_autocorr_segments(z: Segments,
                           cv: CriticalValueTable | None) -> SegmentOutcomes:
    """Two-sided lag-1 autocorrelation test.

    Empirical quantiles decide for 5 <= n <= 100; beyond that sqrt(n) times
    the statistic is referred to N(0,1).
    """
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(AUTOCORR_MIN_N)
    stat, valid = lag1_autocorr_statistic(z)
    res.skip(~valid, DEGENERATE + "constant sample: autocorrelation undefined")
    large = _tabled(res, "autocorr", AUTOCORR_TABLE_MAX, stat, cv)
    _normal(res, large, stat[large], np.sqrt(n[large]) * stat[large])
    return res


lag1_autocorr_test = single_sample(lag1_autocorr_segments, "autocorr")


# ---------------------------------------------------------------------------
# bivariate joint distribution
# ---------------------------------------------------------------------------

JOINT_MIN_N = 10


def joint_dist_segments(z: Segments) -> SegmentOutcomes:
    """Chi-square on consecutive pairs against the product geometric law.

    d = 3 with tail pooling in both coordinates; valid from n >= 10.
    """
    n = z.lengths
    res = SegmentOutcomes(n)
    res.floor(JOINT_MIN_N)
    ok = res.applied
    m = n // 2
    pos = np.arange(z.values.size) - z.starts[z.ids]
    at = np.flatnonzero((pos % 2 == 0) & (pos + 1 < 2 * m[z.ids]))
    cell = (3 * np.minimum(z.values[at] // 2, 3)
            + np.minimum(z.values[at + 1] // 2, 3) - 4)
    obs = np.bincount(z.ids[at] * 9 + cell, minlength=9 * len(z))
    marg = np.array([0.5, 0.25, 0.25])
    exp = m[ok, None] * np.outer(marg, marg).ravel()
    obs = obs.reshape(len(z), 9)[ok].astype(np.float64)
    stat = np.sum((obs - exp) ** 2 / exp, axis=1)
    p = special.chdtrc(8, stat)
    res.decide(ok, stat, p < 0.05, p)
    return res


joint_dist_test = single_sample(joint_dist_segments, "joint")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def bit_runs(b: Segments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per maximal run of equal bits, in order: its segment, its symbol and
    its length."""
    v = b.values
    first = np.ones(v.size, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    first[b.starts[b.lengths > 0]] = True
    at = np.flatnonzero(first)
    return b.ids[at], v[at], np.diff(np.append(at, v.size))


def _run_length_vars(seg: np.ndarray, lengths: np.ndarray,
                     n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Per segment: how many of the given runs (in order) it holds, and the
    biased variance of their lengths (0 below two runs).  Equal run counts
    are reduced as the rows of one matrix, so each sum runs as it does on
    one sample."""
    k = np.bincount(seg, minlength=n_segments)
    first = k.cumsum() - k
    var = np.zeros(n_segments)
    for m in np.unique(k[k >= 2]).tolist():
        rows = np.flatnonzero(k == m)
        x = lengths[first[rows, None] + np.arange(m)].astype(np.float64)
        dev = x - x.sum(axis=1, keepdims=True) / m
        var[rows] = np.sum(dev * dev, axis=1) / m
    return k, var


@lru_cache(maxsize=4096)
def _runs_pmf(n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact conditional distribution of the number of runs given (n0, n1)."""
    n = n0 + n1
    lden = gammaln(n + 1) - gammaln(n0 + 1) - gammaln(n1 + 1)

    def lbin(m, k):
        k = np.asarray(k)
        out = np.full(k.shape, -np.inf)
        ok = (k >= 0) & (k <= m)
        km = k[ok]
        out[ok] = gammaln(m + 1) - gammaln(km + 1) - gammaln(m - km + 1)
        return out

    rs = np.arange(2, n + 1)
    logp = np.full(rs.shape, -np.inf)
    even = rs % 2 == 0
    k = rs[even] // 2
    logp[even] = math.log(2.0) + lbin(n1 - 1, k - 1) + lbin(n0 - 1, k - 1) - lden
    k = (rs[~even] - 1) // 2
    a = lbin(n1 - 1, k) + lbin(n0 - 1, k - 1)
    b = lbin(n1 - 1, k - 1) + lbin(n0 - 1, k)
    logp[~even] = np.logaddexp(a, b) - lden
    p = np.exp(logp)
    keep = p > 0
    p = p[keep]
    p /= p.sum()
    return rs[keep], p


@lru_cache(maxsize=65536)
def _runs_exact_p(n0: int, n1: int, r: int) -> float:
    """Sum of the probabilities of run counts no more likely than r."""
    rs, pmf = _runs_pmf(n0, n1)
    p_obs = float(pmf[rs == r][0])
    return min(1.0, float(pmf[pmf <= p_obs * (1.0 + 1e-12)].sum()))


def wald_wolfowitz_segments(b: Segments) -> SegmentOutcomes:
    """Run-count test.

    Exact conditional two-sided p-value up to length 50 (summing the
    probabilities of run counts no more likely than the observed one);
    normal approximation with continuity correction beyond.
    """
    n = b.lengths
    n1 = b.counts(b.values == 1)
    n0 = n - n1
    res = SegmentOutcomes(n)
    res.skip((n0 == 0) | (n1 == 0), "single-symbol sequence")
    r = np.bincount(bit_runs(b)[0], minlength=len(b))
    exact = res.applied & (n <= RUNS_EXACT_MAX)
    if exact.any():
        p = per_unique(_runs_exact_p, n0[exact], n1[exact], r[exact])
        res.decide(exact, r[exact], p < 0.05, p)
    big = res.applied & ~exact
    if not big.any():
        return res
    n0, n1, n, r = n0[big], n1[big], n[big], r[big]
    mu = 1.0 + 2.0 * n0 * n1 / n
    var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n) / (n * n * (n - 1.0))
    zscore = (r - mu + np.where(r > mu, -0.5, 0.5)) / np.sqrt(var)
    p = pymin(1.0, 2.0 * special.ndtr(-np.abs(zscore)))
    res.decide(big, r, p < 0.05, p)
    return res


wald_wolfowitz_runs = single_sample(wald_wolfowitz_segments, "runs")


# ---------------------------------------------------------------------------
# run-length variance moments, conditional on the observed run count
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def run_variance_moments(n_sym: int, r: int) -> tuple[float, float]:
    """Exact mean and variance of the biased variance of the r run lengths of
    a symbol occurring n_sym times, given that it forms exactly r runs.

    Conditional on the run counts the two symbols' run-length vectors are
    independent uniform positive compositions, so these moments follow from
    Dirichlet-multinomial factorial moments.
    """
    if not 1 <= r <= n_sym:
        raise ValueError("need 1 <= runs <= symbol count")
    n = float(n_sym - r)  # composition remainder after one per run
    k = float(r)
    f2 = n * (n - 1)
    f3 = f2 * (n - 2)
    f4 = f3 * (n - 3)
    k2 = k * (k + 1)
    k3 = k2 * (k + 2)
    k4 = k3 * (k + 3)
    eg1 = n / k
    eg2 = 2.0 * f2 / k2 + eg1
    eg4 = 24.0 * f4 / k4 + 36.0 * f3 / k3 + 14.0 * f2 / k2 + eg1
    cross = 4.0 * f4 / k4 + 4.0 * f3 / k3 + f2 / k2
    eq = k * eg2
    eq2 = k * eg4 + k * (k - 1.0) * cross
    mean = eq / k - (n / k) ** 2
    second = eq2 / k**2 - 2.0 * (n / k) ** 2 * eq / k + (n / k) ** 4
    return mean, max(second - mean * mean, 0.0)


def gamma_match(n_sym: int, r: int) -> tuple[float, float]:
    """(c, nu) such that c * s2, s2 the biased variance of the r run lengths
    of a symbol occurring n_sym times, is approximately chi-square with
    fractional degrees of freedom nu, by matching the first two moments;
    NaN where the variance is degenerate."""
    mean, var = run_variance_moments(n_sym, r)
    if var <= 0.0 or mean <= 0.0:
        return math.nan, math.nan
    return 2.0 * mean / var, 2.0 * mean * mean / var


def obrien76_pivot(b: Segments) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the Gamma-cdf pivot of the run-length variance of the
    more numerous symbol given its run count: uniform on [0,1] under the
    null up to the Gamma approximation.  Segments with < 2 of a symbol or
    < 2 runs of the pivot symbol are invalid."""
    n1 = b.counts(b.values == 1)
    n0 = b.lengths - n1
    seg, symbol, lengths = bit_runs(b)
    mine = symbol == (n1 >= n0)[seg]
    runs, s2 = _run_length_vars(seg[mine], lengths[mine], len(b))
    valid = (np.minimum(n0, n1) >= 2) & (runs >= 2)
    c, nu = np.full((2, len(b)), np.nan)
    c[valid], nu[valid] = per_unique(
        gamma_match, np.maximum(n0, n1)[valid], runs[valid]).reshape(-1, 2).T
    valid &= ~np.isnan(c)
    out = np.full(len(b), np.nan)
    out[valid] = special.gammainc(nu[valid] / 2.0, c[valid] * s2[valid] / 2.0)
    return out, valid


def obrien76_segments(b: Segments,
                      cv: CriticalValueTable | None) -> SegmentOutcomes:
    """Run-length-variance clustering test for the more numerous symbol.

    For short sequences (n <= 20, where both symbol counts can be small)
    empirical quantiles of the pivot replace the nominal 0.025/0.975
    cutoffs.
    """
    n = b.lengths
    n1 = b.counts(b.values == 1)
    res = SegmentOutcomes(n)
    res.skip(np.minimum(n1, n - n1) < 2, "less numerous symbol count < 2")
    u, valid = obrien76_pivot(b)
    res.skip(~valid, "fewer than 2 runs of the more numerous symbol")
    large = _tabled(res, "obrien76", OBRIEN76_TABLE_MAX, u, cv)
    if large.any():
        p = pymin(1.0, 2.0 * pymin(u[large], 1.0 - u[large]))
        res.decide(large, u[large], p < 0.05, p)
    return res


obrien76_test = single_sample(obrien76_segments, "obrien76")


def obrien_dyck85_segments(b: Segments) -> SegmentOutcomes:
    """Weighted sum of the two run-length variances.

    Given the run counts the two variances are exactly independent, each
    weight equalises its component's chi-square scale, and the sum is
    referred to a Gamma with shape (nu0 + nu1)/2 and scale 2; two-sided
    decision at 5%.
    """
    n = b.lengths
    n1 = b.counts(b.values == 1)
    seg, symbol, lengths = bit_runs(b)
    ones = symbol == 1
    k1, var1 = _run_length_vars(seg[ones], lengths[ones], len(b))
    k0, var0 = _run_length_vars(seg[~ones], lengths[~ones], len(b))
    res = SegmentOutcomes(n)
    res.skip((k1 < 2) | (k0 < 2), "fewer than 2 runs of a symbol")
    ok = res.applied
    c1, nu1, c0, nu0 = np.full((4, len(b)), np.nan)
    c1[ok], nu1[ok] = per_unique(gamma_match, n1[ok], k1[ok]).reshape(-1, 2).T
    c0[ok], nu0[ok] = per_unique(gamma_match, (n - n1)[ok], k0[ok]).reshape(-1, 2).T
    res.skip(np.isnan(c1) | np.isnan(c0), "degenerate run-length variance")
    ok = res.applied
    t = c0[ok] * var0[ok] + c1[ok] * var1[ok]
    # cdf and sf at t of the Gamma law with shape a and scale 2
    a, x = (nu0[ok] + nu1[ok]) / 2.0, t / 2.0
    p = pymin(1.0, 2.0 * pymin(special.gammainc(a, x), special.gammaincc(a, x)))
    res.decide(ok, t, p < 0.05, p)
    return res


obrien_dyck85_test = single_sample(obrien_dyck85_segments, "obrien85")


# ---------------------------------------------------------------------------
# Larsen unimodal-clustering test
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def larsen_moments(n: int, n1: int) -> tuple[float, float]:
    """Exact mean and variance of K1 = sum |R_i - median(R)| when the n1
    success locations are a uniform random subset of 1..n.

    K1 is a fixed integer combination of the location order statistics, so
    the moments follow from the order-statistic means and covariances of
    sampling without replacement.  Lower-median convention for even n1.
    """
    if n1 < 1:
        raise ValueError("need at least one success")
    m = (n1 + 1) // 2
    i = np.arange(1, n1 + 1, dtype=np.float64)
    c = np.where(i < m, -1.0, 1.0)
    c[m - 1] = 2.0 * m - 1.0 - n1
    mean = (n + 1.0) / (n1 + 1.0) * float(np.dot(c, i))
    w = c * (n1 + 1.0 - i)
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1][1:], [0.0]])
    s = float(np.dot(c * i, c * (n1 + 1.0 - i) + 2.0 * suffix))
    scale = (n + 1.0) * (n - n1) / ((n1 + 1.0) ** 2 * (n1 + 2.0))
    return mean, max(scale * s, 0.0)


def larsen_statistic(b: Segments) -> tuple[np.ndarray, np.ndarray]:
    """Standardised K1 per segment, 0 by convention where K1 is
    deterministic; segments without successes are invalid.  Moments are
    built only for the (length, success count) pairs present."""
    ones = np.flatnonzero(b.values == 1)
    seg = b.ids[ones]
    n1 = np.bincount(seg, minlength=len(b))
    valid = n1 >= 1
    loc = ones - b.starts[seg] + 1
    med = np.zeros(len(b), dtype=np.int64)
    med[valid] = loc[(n1.cumsum() - n1 + (n1 + 1) // 2 - 1)[valid]]
    k1 = np.bincount(seg, weights=np.abs(loc - med[seg]), minlength=len(b))
    mean, sd = np.zeros((2, len(b)))
    mean[valid], var = per_unique(
        larsen_moments, b.lengths[valid], n1[valid]).reshape(-1, 2).T
    sd[valid] = np.sqrt(var)
    out = np.zeros(len(b))
    ok = sd > 0
    out[ok] = (k1[ok] - mean[ok]) / sd[ok]
    return out, valid


LARSEN_MIN_N = 3


def larsen_segments(b: Segments, cv: CriticalValueTable | None) -> SegmentOutcomes:
    """Two-sided test of the standardised absolute-deviation statistic."""
    n = b.lengths
    t, valid = larsen_statistic(b)
    res = SegmentOutcomes(n)
    res.skip((n < LARSEN_MIN_N) | ~valid, f"no successes or n < {LARSEN_MIN_N}")
    large = _tabled(res, "larsen", LARSEN_TABLE_MAX, t, cv)
    _normal(res, large, t[large], t[large])
    return res


larsen_test = single_sample(larsen_segments, "larsen")
