import itertools
import math

import numpy as np
import pytest
from scipy import stats

from clmtree.critical_values import shipped_table
from clmtree.indep_tests import (
    gamma_match,
    indicator_of_twos,
    joint_dist_test,
    lag1_autocorr_batch,
    lag1_autocorr_test,
    larsen_moments,
    larsen_statistic,
    larsen_test,
    obrien76_pivot,
    obrien76_test,
    obrien_dyck85_test,
    run_variance_moments,
    wald_wolfowitz_runs,
)
from clmtree.outcomes import BitSequence, Segments, ZSample


@pytest.fixture(scope="module")
def ac_cv():
    return shipped_table("autocorr")


@pytest.fixture(scope="module")
def larsen_cv():
    return shipped_table("larsen")


@pytest.fixture(scope="module")
def ob76_cv():
    return shipped_table("obrien76")


def bits(seq):
    return BitSequence(np.asarray(seq, dtype=np.int8))


def zs(values):
    return ZSample(np.asarray(values))


def larsen_batch(mat):
    return larsen_statistic(Segments.rows(mat))


def obrien76_pivot_batch(mat):
    return obrien76_pivot(Segments.rows(mat))


# One-sample reference formulas for the segmented statistics, written out
# row by row as the definitions read.

def run_lengths(bits, symbol):
    """Lengths of the maximal runs of ``symbol``."""
    mask = np.concatenate([[0], (bits == symbol).astype(np.int8), [0]])
    d = np.diff(mask)
    return np.flatnonzero(d == -1) - np.flatnonzero(d == 1)


def _biased_var(x):
    return float(np.mean((x - x.mean()) ** 2))


def ref_lag1_autocorr(values):
    """Known-mean-4 numerator over the centred sum of squares; None when the
    sample is constant."""
    dev = values - 4.0
    den = float(np.sum((values - values.mean()) ** 2))
    if den == 0.0:
        return None
    return float(np.sum(dev[1:] * dev[:-1]) / den)


def ref_larsen(bits):
    """Standardised K1; 0 by convention when K1 is deterministic."""
    n = bits.size
    locs = np.flatnonzero(bits) + 1
    n1 = locs.size
    med = locs[(n1 + 1) // 2 - 1]
    k1 = float(np.sum(np.abs(locs - med)))
    mean, var = larsen_moments(n, n1)
    if var == 0.0:
        return 0.0
    return (k1 - mean) / math.sqrt(var)


def ref_obrien76_pivot(bits):
    """Gamma-cdf pivot of the run-length variance of the more numerous
    symbol; None when degenerate."""
    n1 = int(bits.sum())
    n0 = bits.size - n1
    if min(n0, n1) < 2:
        return None
    lens = run_lengths(bits, 1 if n1 >= n0 else 0)
    if lens.size < 2:
        return None
    c, nu = gamma_match(max(n1, n0), lens.size)
    if math.isnan(c):
        return None
    s2 = _biased_var(lens.astype(np.float64))
    return float(stats.gamma.cdf(c * s2, a=nu / 2.0, scale=2.0))


class TestIndicator:
    def test_definition(self):
        out = indicator_of_twos(zs([2, 4, 2, 8]))
        assert out.bits.tolist() == [1, 0, 1, 0]
        assert indicator_of_twos(zs([2, 2])).bits.tolist() == [1, 1]

    def test_null_mean_approaches_half(self):
        rng = np.random.default_rng(0)
        out = indicator_of_twos(zs(2 * rng.geometric(0.5, size=100_000)))
        assert abs(out.bits.mean() - 0.5) < 0.01


class TestAutocorr:
    def test_hand_example(self, ac_cv):
        stat, valid = lag1_autocorr_batch(np.array([[2.0, 6, 2, 6, 2, 6]]))
        assert valid[0] and math.isclose(stat[0], -5.0 / 6.0)
        out = lag1_autocorr_test(zs([2, 6, 2, 6, 2, 6]), ac_cv)
        assert out.statistic == stat[0]

    def test_constant_sample_errors(self, ac_cv):
        with pytest.raises(ValueError, match="constant"):
            lag1_autocorr_test(zs([4, 4, 4, 4, 4, 4]), ac_cv)

    def test_skip_below_floor(self, ac_cv):
        assert lag1_autocorr_test(zs([2, 4, 2, 6]), ac_cv).skipped

    def test_small_n_uses_table(self, ac_cv):
        out = lag1_autocorr_test(zs([2, 6, 2, 6, 2, 6]), ac_cv)
        assert out.p_value is None and out.reject_at_5pct is not None

    def test_large_n_asymptotic(self, ac_cv):
        rng = np.random.default_rng(1)
        out = lag1_autocorr_test(zs(2 * rng.geometric(0.5, size=400)), ac_cv)
        assert out.p_value is not None

    def test_batch_matches_scalar(self, ac_cv):
        rng = np.random.default_rng(2)
        z = 2.0 * rng.geometric(0.5, size=(40, 30))
        z[0] = 4.0  # one constant row
        stat, valid = lag1_autocorr_batch(z)
        for row, s, ok in zip(z, stat, valid):
            ref = ref_lag1_autocorr(row)
            assert ok == (ref is not None)
            if ok:
                assert math.isclose(s, ref)
                # the test is a batch of one: the reference to the bit
                assert lag1_autocorr_test(zs(row.astype(int)), ac_cv).statistic == ref


class TestJoint:
    def test_exact_product_counts_give_zero(self):
        pairs = ([(2, 2)] * 4 + [(2, 4)] * 2 + [(2, 6)] * 2
                 + [(4, 2)] * 2 + [(4, 4)] + [(4, 8)]
                 + [(6, 2)] * 2 + [(8, 4)] + [(10, 6)])
        flat = [v for p in pairs for v in p]
        out = joint_dist_test(zs(flat))
        assert out.statistic == 0.0

    def test_all_equal_pairs_reject(self):
        out = joint_dist_test(zs([2] * 20))
        assert math.isclose(out.statistic, 30.0)
        assert out.reject_at_5pct

    def test_skip_below_floor(self):
        assert joint_dist_test(zs([2] * 8)).skipped

    def test_permutation_keeps_null_rejection(self):
        rng = np.random.default_rng(3)
        rej, rej_perm = 0, 0
        for _ in range(400):
            z = 2 * rng.geometric(0.5, size=60)
            rej += joint_dist_test(zs(z)).reject_at_5pct
            rej_perm += joint_dist_test(zs(rng.permutation(z))).reject_at_5pct
        assert abs(rej - rej_perm) / 400 < 0.035


class TestRuns:
    def test_alternating_rejects(self):
        out = wald_wolfowitz_runs(bits([0, 1] * 5))
        assert out.statistic == 10
        assert out.reject_at_5pct

    def test_two_blocks_reject(self):
        out = wald_wolfowitz_runs(bits([0] * 5 + [1] * 5))
        assert out.statistic == 2
        assert out.reject_at_5pct

    def test_statistic_counts_runs(self):
        assert wald_wolfowitz_runs(bits([0, 1, 1, 0, 0, 0, 1])).statistic == 4

    def test_single_symbol_skips(self):
        assert wald_wolfowitz_runs(bits([1, 1, 1])).skipped

    def test_complement_symmetry(self):
        rng = np.random.default_rng(4)
        for n in (12, 30, 80):
            b = rng.integers(0, 2, n).astype(np.int8)
            if b.min() == b.max():
                continue
            p1 = wald_wolfowitz_runs(bits(b)).p_value
            p2 = wald_wolfowitz_runs(bits(1 - b)).p_value
            assert math.isclose(p1, p2)

    def test_exact_and_normal_branches_agree_near_cutoff(self):
        rng = np.random.default_rng(5)
        b = rng.integers(0, 2, 50).astype(np.int8)
        exact = wald_wolfowitz_runs(bits(b)).p_value
        approx = wald_wolfowitz_runs(bits(np.concatenate([b, b]))).p_value
        assert 0 <= exact <= 1 and 0 <= approx <= 1


def enumerate_bits(n, n1):
    for ones in itertools.combinations(range(n), n1):
        b = np.zeros(n, dtype=np.int8)
        b[list(ones)] = 1
        yield b


class TestRunVarianceMoments:
    def test_against_enumeration_conditional_on_runs(self):
        for n_sym, n_other in ((5, 4), (6, 5), (7, 3)):
            samples = {}
            for b in enumerate_bits(n_sym + n_other, n_sym):
                lens = run_lengths(b, 1)
                samples.setdefault(lens.size, []).append(
                    _biased_var(lens.astype(float))
                )
            for r, vals in samples.items():
                vals = np.array(vals)
                mean, var = run_variance_moments(n_sym, r)
                assert math.isclose(mean, vals.mean(), rel_tol=1e-10, abs_tol=1e-12)
                assert math.isclose(var, vals.var(), rel_tol=1e-10, abs_tol=1e-12)


class TestObrien76:
    def test_hand_example_run_lengths(self):
        b = np.array([1, 1, 0, 1, 1, 1, 1, 0, 1, 1], dtype=np.int8)
        lens = run_lengths(b, 1)
        assert lens.tolist() == [2, 4, 2]
        assert math.isclose(_biased_var(lens.astype(float)), 8.0 / 9.0)

    def test_equal_runs_sit_in_lower_tail(self):
        u, valid = obrien76_pivot_batch(
            np.array([[1, 1, 0, 1, 1, 0, 1, 1]], dtype=np.int8))
        assert valid[0] and u[0] == 0.0  # zero variance -> cdf at zero

    def test_skip_rules(self, ob76_cv):
        assert obrien76_test(bits([1, 1, 1, 1, 0, 1]), ob76_cv).skipped
        assert obrien76_test(bits([0, 0, 1, 1, 1, 1]), ob76_cv).skipped  # 1 run

    def test_small_n_uses_table(self, ob76_cv):
        out = obrien76_test(bits([1, 1, 0, 1, 0, 1, 1, 0, 1, 1]), ob76_cv)
        assert out.applied and out.p_value is None

    def test_large_n_two_sided_pivot(self, ob76_cv):
        rng = np.random.default_rng(6)
        out = obrien76_test(bits(rng.integers(0, 2, 60)), ob76_cv)
        assert out.applied and 0.0 <= out.p_value <= 1.0

    def test_batch_matches_scalar(self, ob76_cv):
        rng = np.random.default_rng(7)
        mat = rng.integers(0, 2, size=(60, 25)).astype(np.int8)
        mat[0] = [0] * 12 + [1] * 13  # one run of the more numerous symbol
        stat, valid = obrien76_pivot_batch(mat)
        for row, s, ok in zip(mat, stat, valid):
            ref = ref_obrien76_pivot(row)
            if ref is None:
                assert not ok
            else:
                assert ok and math.isclose(s, ref)
                # the test is a batch of one: the reference to the bit
                assert obrien76_test(bits(row), ob76_cv).statistic == ref


class TestObrienDyck85:
    def test_periodic_input_zero_statistic(self):
        out = obrien_dyck85_test(bits([0, 0, 1, 1] * 3))
        assert out.statistic == 0.0
        assert out.p_value == 0.0 and out.reject_at_5pct  # lower-tail extreme

    def test_insufficient_runs_skip(self):
        assert obrien_dyck85_test(bits([0, 0, 1, 1])).skipped

    def test_complement_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            b = rng.integers(0, 2, 40).astype(np.int8)
            o1 = obrien_dyck85_test(bits(b))
            o2 = obrien_dyck85_test(bits(1 - b))
            assert o1.applied == o2.applied
            if o1.applied:
                assert math.isclose(o1.statistic, o2.statistic)
                assert math.isclose(o1.p_value, o2.p_value)


class TestLarsen:
    def test_hand_example(self, larsen_cv):
        b = np.array([0, 1, 1, 1, 0], dtype=np.int8)
        mean, var = larsen_moments(5, 3)
        expect = (2.0 - mean) / math.sqrt(var)
        stat, valid = larsen_batch(b[None, :])
        assert valid[0] and math.isclose(stat[0], expect)
        assert math.isclose(larsen_test(bits(b), larsen_cv).statistic, expect)

    def test_single_success_is_zero(self):
        stat, valid = larsen_batch(np.array([[0, 0, 1, 0]], dtype=np.int8))
        assert valid[0] and stat[0] == 0.0

    def test_moments_against_enumeration(self):
        for n, n1 in ((7, 3), (8, 4), (9, 5)):
            k1s = []
            for b in enumerate_bits(n, n1):
                locs = np.flatnonzero(b) + 1
                med = locs[(n1 + 1) // 2 - 1]
                k1s.append(np.sum(np.abs(locs - med)))
            k1s = np.array(k1s, dtype=float)
            mean, var = larsen_moments(n, n1)
            assert math.isclose(mean, k1s.mean(), rel_tol=1e-10)
            assert math.isclose(var, k1s.var(), rel_tol=1e-10)

    def test_skip_rules(self, larsen_cv):
        assert larsen_test(bits([0, 0, 0, 0]), larsen_cv).skipped
        assert larsen_test(bits([1, 0]), larsen_cv).skipped

    def test_small_n_table_and_large_n_normal(self, larsen_cv):
        rng = np.random.default_rng(9)
        small = larsen_test(bits(rng.integers(0, 2, 40)), larsen_cv)
        assert small.p_value is None and small.applied
        large = larsen_test(bits(rng.integers(0, 2, 200)), larsen_cv)
        assert large.p_value is not None

    def test_batch_matches_scalar(self, larsen_cv):
        rng = np.random.default_rng(10)
        mat = rng.integers(0, 2, size=(80, 33)).astype(np.int8)
        mat[0] = 0  # no successes
        stat, valid = larsen_batch(mat)
        for row, s, ok in zip(mat, stat, valid):
            if row.sum() == 0:
                assert not ok
            else:
                ref = ref_larsen(row)
                assert ok and math.isclose(s, ref)
                # the test is a batch of one: the reference to the bit
                assert larsen_test(bits(row), larsen_cv).statistic == ref

    def test_moments_only_for_present_counts(self):
        rng = np.random.default_rng(11)
        row = rng.integers(0, 2, size=(1, 5003)).astype(np.int8)
        larsen_moments.cache_clear()
        larsen_batch(row)
        assert larsen_moments.cache_info().currsize == 1

