import math

import numpy as np
import pytest
from scipy import stats

from clmtree.critical_values import (
    SHIPPED_N_MC,
    SHIPPED_SEED,
    SHIPPED_TABLES,
    TABLES,
    CriticalValueError,
    generate_cv_table,
    load_all_tables,
    load_table,
    load_table_dir,
    lookup_cv,
    save_table,
    shipped_table,
)


def test_determinism_bit_identical():
    a = generate_cv_table("chi2_geometric", [20], (0.95,), n_mc=10_000, seed=7)
    b = generate_cv_table("chi2_geometric", [20], (0.95,), n_mc=10_000, seed=7)
    assert a.entries == b.entries
    # a continuous statistic separates seeds (discrete ones may share atoms)
    c = generate_cv_table("autocorr", [50], (0.975,), n_mc=10_000, seed=8)
    d = generate_cv_table("autocorr", [50], (0.975,), n_mc=10_000, seed=9)
    assert c.entries != d.entries


def test_order_independence_of_lengths():
    a = generate_cv_table("autocorr", [10, 30], (0.975,), n_mc=10_000, seed=7)
    b = generate_cv_table("autocorr", [30, 10], (0.975,), n_mc=10_000, seed=7)
    assert a.entries == b.entries


def test_twos_quantile_matches_exact_binomial():
    tab = generate_cv_table("twos", [20], (0.95,), n_mc=100_000, seed=3)
    mc = tab.entries[(20, 0.95)]
    exact = stats.binom.ppf(0.95, 20, 0.5)
    assert abs(mc - exact) <= 1.0


def test_quantile_ordering():
    tab = generate_cv_table("autocorr", [12], (0.025, 0.975), n_mc=20_000, seed=4)
    assert tab.entries[(12, 0.025)] < tab.entries[(12, 0.975)]


def test_seed_independence_within_band():
    a = generate_cv_table("chi2_geometric", [39], (0.95,), n_mc=100_000, seed=1)
    b = generate_cv_table("chi2_geometric", [39], (0.95,), n_mc=100_000, seed=2)
    va, vb = a.entries[(39, 0.95)], b.entries[(39, 0.95)]
    assert abs(va - vb) / va < 0.03


def test_rejects_unknown_test_and_small_n_mc():
    with pytest.raises(ValueError, match="unknown"):
        generate_cv_table("nope", [10], (0.95,), n_mc=10_000, seed=0)
    with pytest.raises(ValueError, match="10,000"):
        generate_cv_table("twos", [10], (0.95,), n_mc=100, seed=0)


def test_save_load_roundtrip(tmp_path):
    tab = generate_cv_table("larsen", [10, 20], (0.025, 0.975),
                            n_mc=10_000, seed=5)
    path = save_table(tab, str(tmp_path))
    back = load_table(path)
    assert back.entries == tab.entries
    assert (back.test_id, back.seed, back.n_mc) == ("larsen", 5, 10_000)
    again = load_table_dir(str(tmp_path), "larsen")
    assert again.entries == tab.entries


def test_load_table_dir_missing(tmp_path):
    with pytest.raises(CriticalValueError):
        load_table_dir(str(tmp_path), "larsen")


def test_shipped_tables_cover_served_lengths():
    for test_id in SHIPPED_TABLES:
        tab = shipped_table(test_id)
        for q in TABLES[test_id].quantiles:
            for n in TABLES[test_id].lengths:
                val, fb = lookup_cv(tab, n, q)
                assert math.isfinite(val) and not fb


# a few lengths per shipped table, the ends of its range among them
REGENERATED_LENGTHS = {
    "ks_discrete": (2, 50, 1000),
    "chi2_geometric": (14, 39),
    "autocorr": (5, 100),
    "larsen": (3, 80),
    "obrien76": (6, 20),
}


@pytest.mark.parametrize("test_id", sorted(REGENERATED_LENGTHS))
def test_generator_reproduces_shipped_rows(test_id):
    """The shipped seed and n_mc regenerate the shipped entries bit for bit,
    so the batteries still simulate the statistics the tables were made
    from."""
    lengths = REGENERATED_LENGTHS[test_id]
    quantiles = TABLES[test_id].quantiles
    tab = generate_cv_table(test_id, lengths, quantiles,
                            n_mc=SHIPPED_N_MC, seed=SHIPPED_SEED)
    shipped = shipped_table(test_id)
    assert (shipped.seed, shipped.n_mc) == (SHIPPED_SEED, SHIPPED_N_MC)
    for key, value in tab.entries.items():
        assert value == shipped.entries[key], key


def test_shipped_ranges_start_at_the_serving_floors():
    from clmtree import dist_tests, indep_tests

    assert TABLES["chi2_geometric"].lengths.start == dist_tests.CHI2_MIN_N
    assert TABLES["ks_discrete"].lengths.start == dist_tests.KS_MIN_N
    assert TABLES["autocorr"].lengths.start == indep_tests.AUTOCORR_MIN_N
    assert TABLES["larsen"].lengths.start == indep_tests.LARSEN_MIN_N


def test_lookup_fallback_flag():
    tab = shipped_table("ks_discrete")
    val, fb = lookup_cv(tab, 1500, 0.95, fallback_to_max=True)
    assert fb
    assert val == tab.entries[(1000, 0.95)]
    with pytest.raises(CriticalValueError):
        lookup_cv(tab, 1500, 0.95)  # no fallback permission -> loud


def test_load_all_tables_shipped_and_dir(tmp_path):
    tabs = load_all_tables()
    assert set(tabs) == set(SHIPPED_TABLES)
    assert "twos" in TABLES and "twos" not in tabs
    with pytest.raises(CriticalValueError):
        load_all_tables(str(tmp_path))


def test_calibration_of_generated_tables():
    # using a table at nominal level keeps null rejection near 5%
    rng = np.random.default_rng(6)
    chi2 = shipped_table("chi2_geometric")
    from clmtree.dist_tests import chi2_geometric_test
    from clmtree.outcomes import ZSample

    rej = sum(
        chi2_geometric_test(ZSample(2 * rng.geometric(0.5, 20)), chi2).reject_at_5pct
        for _ in range(2000)
    )
    assert 0.035 <= rej / 2000 <= 0.065

    ac = shipped_table("autocorr")
    from clmtree.indep_tests import lag1_autocorr_test

    rej = sum(
        lag1_autocorr_test(ZSample(2 * rng.geometric(0.5, 50)), ac).reject_at_5pct
        for _ in range(2000)
    )
    assert 0.035 <= rej / 2000 <= 0.065
