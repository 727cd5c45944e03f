import math

import numpy as np
import pytest

from clmtree.critical_values import shipped_table
from clmtree.dist_tests import (
    _binom_half_tails,
    binned_counts,
    chi2_geometric_test,
    g_test,
    klp_nb_test,
    klp_statistic,
    ks_discrete_test,
    twos_test,
)
from clmtree.outcomes import Segments, ZSample


@pytest.fixture(scope="module")
def chi2_cv():
    return shipped_table("chi2_geometric")


@pytest.fixture(scope="module")
def ks_cv():
    return shipped_table("ks_discrete")


def zs(values):
    return ZSample(np.asarray(values))


class TestTwos:
    def test_all_twos_small_sample(self):
        out = twos_test(zs([2] * 10))
        assert out.statistic == 10
        assert math.isclose(out.p_value, 2.0 ** -9)
        assert out.reject_at_5pct

    def test_center_is_p_one(self):
        out = twos_test(zs([2] * 5 + [4] * 5))
        assert out.p_value == 1.0
        assert not out.reject_at_5pct

    def test_empty_skips(self):
        out = twos_test(zs([]))
        assert out.skipped

    def test_tails_equal_scipy_stats_bit_for_bit(self):
        """The tails come from private scipy.special ufuncs; a scipy that
        moves or changes them fails here."""
        from scipy import stats

        n = np.concatenate([np.arange(1, 41), [99, 100, 1000, 1001, 19_999,
                                               20_000]])
        grid = [(t, m) for m in n
                for t in np.unique(np.r_[np.arange(min(m, 40) + 1),
                                         np.linspace(0, m, 41).round(),
                                         m - np.arange(min(m, 40) + 1)])]
        t, n = np.array(grid, dtype=np.int64).T
        lo, hi = _binom_half_tails(t, n)
        assert np.array_equal(lo, stats.binom.cdf(t, n, 0.5))
        assert np.array_equal(hi, stats.binom.sf(t - 1, n, 0.5))


class TestChi2:
    def test_exact_proportions_give_zero(self, chi2_cv):
        values = [2] * 32 + [4] * 16 + [6] * 8 + [8] * 4 + [10] * 2 + [12] * 2
        out = chi2_geometric_test(zs(values), chi2_cv)
        assert out.statistic == 0.0
        assert not out.reject_at_5pct
        assert out.p_value == 1.0

    def test_all_twos_n20_rejects_via_table(self, chi2_cv):
        out = chi2_geometric_test(zs([2] * 20), chi2_cv)
        assert out.statistic == 20.0
        assert out.p_value is None  # table-decided
        assert out.reject_at_5pct

    def test_skip_below_floor(self, chi2_cv):
        out = chi2_geometric_test(zs([2] * 13), chi2_cv)
        assert out.skipped

    def test_bin_rule_boundaries(self, chi2_cv):
        rng = np.random.default_rng(0)
        sample = zs(2 * rng.geometric(0.5, size=40))
        out = chi2_geometric_test(sample, chi2_cv)
        assert out.p_value is not None  # asymptotic branch from n=40

    def test_missing_table_raises(self):
        with pytest.raises(ValueError):
            chi2_geometric_test(zs([2] * 20), None)


class TestG:
    def test_exact_proportions_give_zero(self):
        values = [2] * 32 + [4] * 16 + [6] * 8 + [8] * 4 + [10] * 4
        out = g_test(zs(values))
        assert out.statistic == 0.0

    def test_all_twos_value(self):
        out = g_test(zs([2] * 20))
        assert math.isclose(out.statistic, 40 * math.log(2.0))
        assert out.p_value < 1e-6 and out.reject_at_5pct

    def test_skip_below_floor(self):
        assert g_test(zs([2] * 13)).skipped


def test_tail_pooling_conserves_mass():
    rng = np.random.default_rng(4)
    for n, d in ((20, 3), (100, 5), (37, 4)):
        values = 2 * rng.geometric(0.5, size=n)
        obs, exp = binned_counts(Segments.of([values]), d)
        assert obs.sum() == n
        assert math.isclose(exp.sum(), n, rel_tol=1e-12)


class TestKsDiscrete:
    def test_hand_example(self, ks_cv):
        out = ks_discrete_test(zs([2, 2, 4, 8]), ks_cv)
        assert math.isclose(out.statistic, 0.25)

    def test_reject_all_twos(self, ks_cv):
        out = ks_discrete_test(zs([2] * 50), ks_cv)
        assert out.reject_at_5pct

    def test_fallback_above_table_max(self, ks_cv):
        rng = np.random.default_rng(1)
        out = ks_discrete_test(zs(2 * rng.geometric(0.5, size=1500)), ks_cv)
        assert out.applied  # uses the n=1000 entry as the asymptote proxy


class TestKlp:
    def test_population_ratio_is_one(self):
        # E[Y]=2 and E[Y(Y-1)]=4 under the null make the ratio 1, so the
        # statistic concentrates near 0 for large samples
        rng = np.random.default_rng(2)
        stat = klp_statistic(Segments.of([2 * rng.geometric(0.5, size=200_000)]))
        assert abs(stat[0]) < 3.5

    def test_constant_sample_rejects(self):
        out = klp_nb_test(zs([2] * 40))
        assert out.reject_at_5pct and out.p_value == 0.0

    def test_skip_below_floor(self):
        assert klp_nb_test(zs([2, 4, 2, 6])).skipped

    def test_null_distribution_close_to_standard_normal(self):
        rng = np.random.default_rng(3)
        y = rng.geometric(0.5, size=(4000, 2000))
        stats_ = klp_statistic(Segments.rows(2 * y))
        assert abs(stats_.mean()) < 0.08
        assert 0.93 < stats_.std() < 1.07


def test_all_twos_rejected_by_every_applicable_test(chi2_cv, ks_cv):
    sample = zs([2] * 20)
    assert twos_test(sample).reject_at_5pct
    assert chi2_geometric_test(sample, chi2_cv).reject_at_5pct
    assert g_test(sample).reject_at_5pct
    assert ks_discrete_test(sample, ks_cv).reject_at_5pct
    assert klp_nb_test(sample).reject_at_5pct
