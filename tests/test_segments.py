"""Each roster test decides many segments in one call.  Every segment's
outcome must equal the single-sample function's on that segment alone,
field by field, with floats compared bit for bit and the scalar types
(which the rendered reports pin) compared too."""

import numpy as np
import pytest

from clmtree import dist_tests as dt
from clmtree import indep_tests as it
from clmtree.critical_values import load_all_tables
from clmtree.harness import ROSTER
from clmtree.outcomes import BitSequence, Segments, ZSample

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALAR = {
    "chi2": dt.chi2_geometric_test, "twos": dt.twos_test, "g": dt.g_test,
    "ks_discrete": dt.ks_discrete_test, "klp": dt.klp_nb_test,
    "joint": it.joint_dist_test, "autocorr": it.lag1_autocorr_test,
    "runs": it.wald_wolfowitz_runs, "larsen": it.larsen_test,
    "obrien76": it.obrien76_test, "obrien85": it.obrien_dyck85_test,
}
BASE = {test_id: test_id.removesuffix("_ud") for test_id in ROSTER}

# empty samples, samples just below and at each floor, and lengths
# straddling each table's edge and the exact-runs cutoff
LENGTHS = (0, 1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 19, 20, 21, 39, 40, 49, 50,
           51, 79, 80, 81, 100, 101, 1000, 1001)
COUNT_KINDS = ("geometric", "geometric", "constant", "twos", "two-values")
BIT_KINDS = ("random", "random", "ones", "zeros", "blocks", "sparse")


def _counts(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "geometric":
        return 2 * rng.geometric(0.5, n)
    if kind == "constant":
        return np.full(n, 2 * int(rng.integers(1, 5)), dtype=np.int64)
    if kind == "twos":
        return np.full(n, 2, dtype=np.int64)
    return rng.choice([2, 4], n)


def _bits(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 2, n).astype(np.int8)
    if kind in ("ones", "zeros"):
        return np.full(n, int(kind == "ones"), dtype=np.int8)
    if kind == "blocks":
        return (np.arange(n) // int(rng.integers(1, 6)) % 2).astype(np.int8)
    return (rng.random(n) < 0.1).astype(np.int8)


def _segments(kinds, make):
    length = st.one_of(st.sampled_from(LENGTHS), st.integers(0, 130))
    return st.lists(st.builds(make, st.sampled_from(kinds), length,
                              st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=6)


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _scalar(test_id, sample, cv):
    """The single-sample outcome, with a degenerate sample's ValueError in
    the form the segmented call reports it."""
    base = BASE[test_id]
    wrapped = (ZSample(sample) if ROSTER[test_id].sample == "counts"
               else BitSequence(sample))
    try:
        return SCALAR[base](wrapped, *cv).__dict__
    except ValueError as exc:
        return {"skipped": f"degenerate: {exc}"}


def _check(test_id, samples, tables):
    entry = ROSTER[test_id]
    cv = () if entry.table is None else (tables[entry.table],)
    res = entry.func(Segments.of(samples), *cv)
    for i, sample in enumerate(samples):
        got = res.outcome(i, BASE[test_id]).__dict__
        want = _scalar(test_id, sample, cv)
        if "test_id" not in want:
            assert got["skipped"] == want["skipped"], (test_id, i)
            continue
        for key, value in want.items():
            assert _same(got[key], value), (test_id, i, key, got[key], value)


@pytest.fixture(scope="module")
def tables():
    return load_all_tables()


@pytest.mark.parametrize("test_id", [t for t, e in ROSTER.items()
                                     if e.sample == "counts"])
def test_count_tests_segment_like_single_samples(test_id, tables):
    @hypothesis.settings(max_examples=60)
    @hypothesis.given(samples=_segments(COUNT_KINDS, _counts))
    def check(samples):
        _check(test_id, samples, tables)

    check()


@pytest.mark.parametrize("test_id", ["runs", "larsen", "obrien76", "obrien85"])
def test_bit_tests_segment_like_single_samples(test_id, tables):
    @hypothesis.settings(max_examples=60)
    @hypothesis.given(samples=_segments(BIT_KINDS, _bits))
    def check(samples):
        _check(test_id, samples, tables)

    check()


def test_decisions_keep_the_reported_types():
    """Every outcome holds a Python float p-value and a Python bool
    decision, below p = 1 as at p = 1, which reports print as plain
    numbers and JSON booleans."""
    z = ZSample([2] * 20)
    twos = dt.twos_test(z)
    assert type(twos.p_value) is float and twos.p_value < 1.0
    assert twos.reject_at_5pct is True
    centre = dt.twos_test(ZSample([2] * 5 + [4] * 5))
    assert type(centre.p_value) is float and centre.reject_at_5pct is False
    assert type(dt.klp_nb_test(z).reject_at_5pct) is bool
    assert type(dt.g_test(z).reject_at_5pct) is bool
