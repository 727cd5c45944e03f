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
from .outcomes import BitSequence, TestOutcome, ZSample, skipped_outcome

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


def _tabled_outcome(test_id: str, n: int, stat: float,
                    cv: CriticalValueTable | None) -> TestOutcome:
    """Two-sided 5% decision outside the tabulated 0.025 and 0.975 quantiles.

    The comparisons are strict: at small n the statistic has atoms, and
    an empirical quantile can sit on one; inclusive cutoffs would then
    reject the whole atom and overshoot the level.
    """
    if cv is None:
        raise ValueError(f"the {test_id} test needs critical values for n={n}")
    lo, _ = lookup_cv(cv, n, 0.025)
    hi, _ = lookup_cv(cv, n, 0.975)
    return TestOutcome(test_id, n, statistic=stat,
                       reject_at_5pct=(stat < lo) or (stat > hi))


def _normal_outcome(test_id: str, n: int, stat: float,
                    zscore: float) -> TestOutcome:
    """Two-sided p-value of a zscore that is N(0,1) under the null."""
    p = float(2.0 * special.ndtr(-abs(zscore)))
    return TestOutcome(test_id, n, statistic=stat, p_value=p,
                       reject_at_5pct=p < 0.05)


# ---------------------------------------------------------------------------
# lag-1 autocorrelation
# ---------------------------------------------------------------------------

def lag1_autocorr_batch(z_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the known-mean-4 lag-1 numerator over the centred sum of
    squares; constant rows are invalid."""
    dev = z_matrix - 4.0
    num = np.sum(dev[:, 1:] * dev[:, :-1], axis=1)
    cen = z_matrix - z_matrix.mean(axis=1, keepdims=True)
    den = np.sum(cen * cen, axis=1)
    valid = den > 0
    out = np.full(z_matrix.shape[0], np.nan)
    out[valid] = num[valid] / den[valid]
    return out, valid


AUTOCORR_MIN_N = 5


def lag1_autocorr_test(z: ZSample, cv: CriticalValueTable | None) -> TestOutcome:
    """Two-sided lag-1 autocorrelation test.

    Empirical quantiles decide for 5 <= n <= 100; beyond that sqrt(n) times
    the statistic is referred to N(0,1).
    """
    n = len(z)
    if n < AUTOCORR_MIN_N:
        return skipped_outcome("autocorr", n, f"n={n} below floor {AUTOCORR_MIN_N}")
    stat, valid = lag1_autocorr_batch(z.values[None, :].astype(np.float64))
    if not valid[0]:
        raise ValueError("constant sample: autocorrelation undefined")
    stat = float(stat[0])
    if n <= AUTOCORR_TABLE_MAX:
        return _tabled_outcome("autocorr", n, stat, cv)
    return _normal_outcome("autocorr", n, stat, math.sqrt(n) * stat)


# ---------------------------------------------------------------------------
# bivariate joint distribution
# ---------------------------------------------------------------------------

JOINT_MIN_N = 10


def joint_dist_test(z: ZSample) -> TestOutcome:
    """Chi-square on consecutive pairs against the product geometric law.

    d = 3 with tail pooling in both coordinates; valid from n >= 10.
    """
    n = len(z)
    if n < JOINT_MIN_N:
        return skipped_outcome("joint", n, f"n={n} below floor {JOINT_MIN_N}")
    m = n // 2
    i = np.minimum(z.values[: 2 * m : 2] // 2, 3) - 1
    j = np.minimum(z.values[1 : 2 * m : 2] // 2, 3) - 1
    obs = np.bincount(3 * i + j, minlength=9).reshape(3, 3).astype(np.float64)
    marg = np.array([0.5, 0.25, 0.25])
    exp = m * np.outer(marg, marg)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    p = float(special.chdtrc(8, stat))
    return TestOutcome("joint", n, statistic=stat, p_value=p,
                       reject_at_5pct=p < 0.05)


# ---------------------------------------------------------------------------
# run helpers
# ---------------------------------------------------------------------------

def run_lengths(bits: np.ndarray, symbol: int) -> np.ndarray:
    """Lengths of the maximal runs of ``symbol``."""
    mask = np.concatenate([[0], (bits == symbol).astype(np.int8), [0]])
    d = np.diff(mask)
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1)
    return ends - starts


def runs_count(bits: np.ndarray) -> int:
    return int(1 + np.count_nonzero(np.diff(bits)))


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


def wald_wolfowitz_runs(b: BitSequence) -> TestOutcome:
    """Run-count test.

    Exact conditional two-sided p-value up to length 50 (summing the
    probabilities of run counts no more likely than the observed one);
    normal approximation with continuity correction beyond.
    """
    n = len(b)
    n1, n0 = b.n_ones, b.n_zeros
    if n0 == 0 or n1 == 0:
        return skipped_outcome("runs", n, "single-symbol sequence")
    r = runs_count(b.bits)
    if n <= RUNS_EXACT_MAX:
        rs, pmf = _runs_pmf(n0, n1)
        p_obs = float(pmf[rs == r][0])
        p = min(1.0, float(pmf[pmf <= p_obs * (1.0 + 1e-12)].sum()))
    else:
        mu = 1.0 + 2.0 * n0 * n1 / n
        var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n) / (n * n * (n - 1.0))
        shift = -0.5 if r > mu else 0.5
        zscore = (r - mu + shift) / math.sqrt(var)
        p = min(1.0, float(2.0 * special.ndtr(-abs(zscore))))
    return TestOutcome("runs", n, statistic=float(r), p_value=p,
                       reject_at_5pct=p < 0.05)


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


def _gamma_match(mean: float, var: float) -> tuple[float, float] | None:
    """(c, nu) such that c * s2 is approximately chi-square with fractional
    degrees of freedom nu, by matching the first two moments."""
    if var <= 0.0 or mean <= 0.0:
        return None
    return 2.0 * mean / var, 2.0 * mean * mean / var


def _biased_var(x: np.ndarray) -> float:
    return float(np.mean((x - x.mean()) ** 2))


def obrien76_pivot_batch(bits_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the Gamma-cdf pivot of the run-length variance of the more
    numerous symbol given its run count: uniform on [0,1] under the null
    up to the Gamma approximation.  Rows are grouped by (count, runs);
    rows with < 2 of a symbol or < 2 runs of the pivot symbol are invalid."""
    b, width = bits_matrix.shape
    n1 = bits_matrix.sum(axis=1)
    n0 = width - n1
    out = np.full(b, np.nan)
    valid = np.minimum(n0, n1) >= 2
    s2 = np.zeros(b)
    n_runs = np.zeros(b, dtype=np.int64)
    sym = (n1 >= n0).astype(np.int8)
    for row in np.flatnonzero(valid):
        lens = run_lengths(bits_matrix[row], int(sym[row]))
        n_runs[row] = lens.size
        s2[row] = _biased_var(lens.astype(np.float64)) if lens.size >= 2 else 0.0
    valid &= n_runs >= 2
    n_more = np.maximum(n0, n1)
    for count, runs in {(int(a), int(r))
                        for a, r in zip(n_more[valid], n_runs[valid])}:
        match = _gamma_match(*run_variance_moments(count, runs))
        rows = valid & (n_more == count) & (n_runs == runs)
        if match is None:
            valid[rows] = False
            continue
        c, nu = match
        out[rows] = special.gammainc(nu / 2.0, c * s2[rows] / 2.0)
    return out, valid


def obrien76_test(b: BitSequence, cv: CriticalValueTable | None) -> TestOutcome:
    """Run-length-variance clustering test for the more numerous symbol.

    For short sequences (n <= 20, where both symbol counts can be small)
    empirical quantiles of the pivot replace the nominal 0.025/0.975
    cutoffs.
    """
    n = len(b)
    if min(b.n_ones, b.n_zeros) < 2:
        return skipped_outcome("obrien76", n, "less numerous symbol count < 2")
    u, valid = obrien76_pivot_batch(b.bits[None, :])
    u = float(u[0])
    if not valid[0]:
        return skipped_outcome("obrien76", n, "fewer than 2 runs of the "
                                              "more numerous symbol")
    if n <= OBRIEN76_TABLE_MAX:
        return _tabled_outcome("obrien76", n, u, cv)
    p = min(1.0, 2.0 * min(u, 1.0 - u))
    return TestOutcome("obrien76", n, statistic=u, p_value=p,
                       reject_at_5pct=p < 0.05)


def obrien_dyck85_test(b: BitSequence) -> TestOutcome:
    """Weighted sum of the two run-length variances.

    Given the run counts the two variances are exactly independent, each
    weight equalises its component's chi-square scale, and the sum is
    referred to a Gamma with shape (nu0 + nu1)/2 and scale 2; two-sided
    decision at 5%.
    """
    n = len(b)
    lens1 = run_lengths(b.bits, 1)
    lens0 = run_lengths(b.bits, 0)
    if lens1.size < 2 or lens0.size < 2:
        return skipped_outcome("obrien85", n, "fewer than 2 runs of a symbol")
    match1 = _gamma_match(*run_variance_moments(b.n_ones, lens1.size))
    match0 = _gamma_match(*run_variance_moments(b.n_zeros, lens0.size))
    if match1 is None or match0 is None:
        return skipped_outcome("obrien85", n, "degenerate run-length variance")
    c1, nu1 = match1
    c0, nu0 = match0
    t = (c0 * _biased_var(lens0.astype(np.float64))
         + c1 * _biased_var(lens1.astype(np.float64)))
    # cdf and sf at t of the Gamma law with shape a and scale 2
    a, x = (nu0 + nu1) / 2.0, t / 2.0
    tail = min(special.gammainc(a, x), special.gammaincc(a, x))
    p = min(1.0, 2.0 * float(tail))
    return TestOutcome("obrien85", n, statistic=t, p_value=p,
                       reject_at_5pct=p < 0.05)


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


def larsen_batch(bits_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardised K1 per row, 0 by convention where K1 is deterministic;
    rows without successes are invalid.  Moments are built only for the
    success counts present."""
    b, n = bits_matrix.shape
    n1 = bits_matrix.sum(axis=1)
    valid = n1 >= 1
    cum = np.cumsum(bits_matrix, axis=1)
    m = (n1 + 1) // 2
    med_col = np.argmax(cum >= np.maximum(m, 1)[:, None], axis=1) + 1
    cols = np.arange(1, n + 1)
    k1 = np.sum(bits_matrix * np.abs(cols[None, :] - med_col[:, None]), axis=1)
    means = np.zeros(n + 1)
    sds = np.zeros(n + 1)
    for count in np.unique(n1[valid]):
        mu, var = larsen_moments(n, int(count))
        means[count], sds[count] = mu, math.sqrt(var)
    out = np.zeros(b)
    ok = valid & (sds[n1] > 0)
    out[ok] = (k1[ok] - means[n1[ok]]) / sds[n1[ok]]
    return out, valid


LARSEN_MIN_N = 3


def larsen_test(b: BitSequence, cv: CriticalValueTable | None) -> TestOutcome:
    """Two-sided test of the standardised absolute-deviation statistic."""
    n = len(b)
    if n < LARSEN_MIN_N or b.n_ones == 0:
        return skipped_outcome("larsen", n, f"no successes or n < {LARSEN_MIN_N}")
    t, _ = larsen_batch(b.bits[None, :])
    t = float(t[0])
    if n <= LARSEN_TABLE_MAX:
        return _tabled_outcome("larsen", n, t, cv)
    return _normal_outcome("larsen", n, t, t)
