import math

import numpy as np
import pytest

from clmtree import harness
from clmtree.qv import (
    MIN_TEST_VALUES,
    NormalizedIncrements,
    QvPath,
    estimate_qv,
    normal_gof_tests,
    qv_increments,
    qv_rows,
    qv_tests,
    select_increment,
    time_change_increments,
    time_change_rows,
)
from clmtree.series import TickSeries
from clmtree.simulate import ProcessSpec
from oracle_qv import (
    reference_estimate_qv,
    reference_gof,
    reference_path_outcomes,
    reference_qv_paths,
    reference_qv_study,
    reference_select_increment,
    reference_time_change,
)


def grid_series(values, spacing=1.0):
    values = np.asarray(values, dtype=float)
    return TickSeries(times=spacing * np.arange(values.size), values=values)


class TestEstimateQv:
    def test_linear_path(self):
        h = 0.5
        n = 12
        s = grid_series(h * np.arange(n + 1))  # includes the origin point
        qv = estimate_qv(s)
        assert np.allclose(np.diff(qv.qv), h * h)
        assert math.isclose(qv.total(), (n - 1) * h * h)

    def test_constant_series(self):
        qv = estimate_qv(grid_series(np.ones(10)))
        assert np.all(qv.qv == 0.0)

    def test_irregular_grid_rejected(self):
        s = TickSeries(times=np.array([0.0, 1.0, 2.5]), values=np.zeros(3))
        with pytest.raises(ValueError, match="regular"):
            estimate_qv(s)

    def test_bm_consistency(self):
        # total QV of BM over [0,5] concentrates near 5
        rng = np.random.default_rng(0)
        h = 1.0 / 250.0
        totals = []
        for i in range(200):
            inc = rng.standard_normal(1250) * math.sqrt(h)
            totals.append(estimate_qv(grid_series(np.r_[0, np.cumsum(inc)],
                                                  spacing=h)).total())
        totals = np.array(totals)
        assert abs(totals.mean() - 5.0) < 3 * totals.std() / math.sqrt(200)


class TestSelectIncrement:
    def test_constant_increments(self):
        h = 0.5
        qv = estimate_qv(grid_series(h * np.arange(13)))
        assert math.isclose(select_increment(qv, 20.0), 20.0 * h * h)

    def test_c_must_be_positive(self):
        qv = estimate_qv(grid_series(0.5 * np.arange(13)))
        with pytest.raises(ValueError):
            select_increment(qv, 0.0)

    def test_degenerate_qv(self):
        with pytest.raises(ValueError):
            select_increment(estimate_qv(grid_series(np.ones(10))), 20.0)


class TestTimeChange:
    def test_linear_hand_trace(self):
        h = 0.25
        n = 30
        s = grid_series(h * np.arange(n + 1))
        qv = estimate_qv(s)
        norm = time_change_increments(s, qv, h * h)
        assert np.allclose(norm.z, 1.0)
        assert norm.n_points == n - 2

    def test_increment_larger_than_total(self):
        s = grid_series(0.5 * np.arange(13))
        qv = estimate_qv(s)
        with pytest.raises(ValueError, match="fewer than 2"):
            time_change_increments(s, qv, 2.0 * qv.total())

    def test_inverse_right_continuity(self):
        rng = np.random.default_rng(1)
        s = grid_series(np.cumsum(rng.standard_normal(400)) * 0.1)
        qv = estimate_qv(s)
        inc = select_increment(qv, 10.0)
        thresholds = inc * np.arange(1, int(qv.total() / inc))
        idx = np.searchsorted(qv.qv, thresholds, side="right")
        assert np.all(np.diff(idx) >= 0)
        assert np.all(qv.qv[idx] > thresholds)  # strictly exceeds

    def test_last_threshold_stays_below_the_total(self):
        # On this line at c = 4, total / increment rounds up to 3 + 1 ulp,
        # and 3 increments give exactly the total.  The per-path time
        # change took N = 3 and read past the path's end; N is now 2, and
        # in a batch the next path's values are not read.
        s = grid_series(np.arange(14) / 3.0)
        qv = estimate_qv(s)
        inc = select_increment(qv, 4.0)
        assert 3 * inc == qv.total()
        with pytest.raises(IndexError):
            reference_time_change(s, qv.qv, inc)
        norm = time_change_increments(s, qv, inc)
        assert norm.n_points == 2
        idx = np.searchsorted(qv.qv, inc * np.arange(1, 3), side="right")
        assert np.array_equal(norm.z, np.diff(s.values[idx + 2])
                              / math.sqrt(inc))
        values = np.array([s.values, s.values[::-1] * 5.0])
        qvs = qv_rows(s.times, values)
        z, n_points = time_change_rows(values, qvs, qv_increments(qvs, 4.0))
        assert n_points[0] == 2
        assert np.array_equal(z.values[:z.lengths[0]], norm.z)

    def test_null_normalised_variance(self):
        # across paths the normalised increments average unit variance
        rng = np.random.default_rng(2)
        h = 1.0 / 250.0
        vs = []
        for i in range(50):
            inc = rng.standard_normal(4000) * math.sqrt(h)
            s = grid_series(np.r_[0, np.cumsum(inc)], spacing=h)
            qv = estimate_qv(s)
            norm = time_change_increments(s, qv, select_increment(qv, 40.0))
            assert norm.z.size >= 50
            vs.append(norm.z.var())
        assert abs(np.mean(vs) - 1.0) < 0.15


class TestNormalGof:
    def test_sm_telescoping_identity(self):
        rng = np.random.default_rng(3)
        h = 1.0 / 250.0
        inc = rng.standard_normal(1250) * math.sqrt(h)
        s = grid_series(np.r_[0, np.cumsum(inc)], spacing=h)
        qv = estimate_qv(s)
        delta_t = select_increment(qv, 30.0)
        norm = time_change_increments(s, qv, delta_t)
        res = normal_gof_tests(norm)
        thresholds = delta_t * np.arange(1, norm.n_points + 1)
        idx = np.searchsorted(qv.qv, thresholds, side="right")
        y = s.values[idx + 2]
        direct = (y[-1] - y[0]) / math.sqrt(delta_t * (norm.n_points - 1))
        assert math.isclose(res["sm"].statistic, direct, rel_tol=1e-12)

    def test_skip_when_too_short(self):
        rng = np.random.default_rng(4)
        h = 1.0 / 250.0
        inc = rng.standard_normal(200) * math.sqrt(h)
        s = grid_series(np.r_[0, np.cumsum(inc)], spacing=h)
        qv = estimate_qv(s)
        norm = time_change_increments(s, qv, qv.total() / 4.1)
        res = normal_gof_tests(norm)
        assert all(out.skipped for out in res.values())

    def test_null_calibration(self):
        # z exactly N(0,1): each test's rejection stays near its level
        rng = np.random.default_rng(5)
        m = 40
        counts = {"ks": 0, "cvm": 0, "sm": 0}
        reps = 2000

        from clmtree.qv import NormalizedIncrements

        for _ in range(reps):
            z = rng.standard_normal(m)
            res = normal_gof_tests(
                NormalizedIncrements(z=z, increment=1.0, n_points=m + 1)
            )
            for key in counts:
                counts[key] += bool(res[key].reject_at_5pct)
        for key, cnt in counts.items():
            assert 0.02 <= cnt / reps <= 0.075, (key, cnt / reps)

    def test_drop_last_flag(self):
        rng = np.random.default_rng(6)
        from clmtree.qv import NormalizedIncrements

        z = rng.standard_normal(30)
        full = normal_gof_tests(NormalizedIncrements(z, 1.0, 31))
        dropped = normal_gof_tests(NormalizedIncrements(z, 1.0, 31),
                                   drop_last=True)
        assert dropped["sm"].n_used == full["sm"].n_used - 1

    def test_critical_value_tests_report_no_p_value(self):
        # KS and CvM decide by their asymptotic 5% points, SM by its p-value
        from clmtree.qv import CVM_CRIT_5PCT, KS_CRIT_5PCT, NormalizedIncrements

        z = np.random.default_rng(7).standard_normal(50)
        res = normal_gof_tests(NormalizedIncrements(z, 1.0, 51))
        assert res["ks"].p_value is None and res["cvm"].p_value is None
        assert res["ks"].reject_at_5pct == (res["ks"].statistic > KS_CRIT_5PCT)
        assert res["cvm"].reject_at_5pct == (
            res["cvm"].statistic > CVM_CRIT_5PCT)
        assert 0.0 < res["sm"].p_value < 1.0



# ---------------------------------------------------------------------------
# the batched study against the frozen per-path study
# ---------------------------------------------------------------------------

def _same_outcome(got, want):
    assert got == want
    assert type(got.statistic) is type(want.statistic)
    assert type(got.reject_at_5pct) is type(want.reject_at_5pct)


def _assert_rows_match_reference(values, times, c, drop_last):
    """Every row's tested flag and KS / CvM / SM outcomes, field by field,
    against the frozen per-path functions on that row alone."""
    tested, res = qv_tests(values, qv_rows(times, values), c, drop_last)
    for i, row in enumerate(values):
        want = reference_path_outcomes(TickSeries(times, row), c, drop_last)
        assert bool(tested[i]) == (want is not None), i
        if want is not None:
            for key, outcome in want.items():
                _same_outcome(res[key].outcome(i, key), outcome)


# c as the number of QV increments per tested step: ratios near 1 and 2
# leave fewer than 2 full increments, ratios up to 7 fewer than
# MIN_TEST_VALUES normalised increments
RATIOS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def test_study_matches_the_frozen_per_path_study(monkeypatch):
    """Property: ``run_qv_study`` gives the frozen per-path study's rows,
    and ``qv_tests`` every path's statistics, ``==``, for any number of
    paths and points, in one block of paths or several, both processes,
    ``qv_drop_last`` and c values that leave from fewer than 2 increments
    to many."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80)
    @hypothesis.given(
        n_paths=st.integers(1, 12),
        n_points=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
        ratios=st.lists(st.one_of(st.sampled_from(RATIOS),
                                  st.floats(0.2, 150.0)),
                        min_size=1, max_size=4),
        drop_last=st.booleans(),
        process=st.sampled_from(["bm", "expbm"]),
        spacing=st.sampled_from([1.0 / 250.0, 1.0, 0.37]),
        block_values=st.sampled_from([harness.QV_BLOCK_VALUES, 1, 700]))
    def run(n_paths, n_points, seed, ratios, drop_last, process, spacing,
            block_values):
        monkeypatch.setattr(harness, "QV_BLOCK_VALUES", block_values)
        cfg = harness.StudyConfig(
            process=ProcessSpec(process), n_paths=n_paths, seed=seed,
            qv_n_points=n_points, qv_spacing=spacing, qv_drop_last=drop_last)
        c_values = [max(n_points - 2, 1) / r for r in ratios]
        rows, per_path = reference_qv_study(cfg, c_values)
        assert harness.run_qv_study(cfg, c_values).rows == rows
        paths = harness._qv_paths(cfg, range(n_paths))
        times = spacing * np.arange(n_points + 1)
        qv = qv_rows(times, paths)
        for c, want in zip(c_values, per_path):
            tested, res = qv_tests(paths, qv, c, drop_last)
            assert tested.tolist() == [w is not None for w in want]
            for i, outcomes in enumerate(want):
                for key, outcome in (outcomes or {}).items():
                    _same_outcome(res[key].outcome(i, key), outcome)

    run()


@pytest.mark.parametrize("block_values", [1, 700, harness.QV_BLOCK_VALUES])
@pytest.mark.parametrize("kind", ["bm", "expbm"])
def test_study_paths_match_the_frozen_paths_bit_for_bit(monkeypatch, kind,
                                                        block_values):
    """The blocks of paths that ``run_qv_study`` steps with the grid
    stepper, joined, are the frozen per-path simulation's bytes."""
    monkeypatch.setattr(harness, "QV_BLOCK_VALUES", block_values)
    blocks, qv_paths = [], harness._qv_paths

    def recorded(cfg, paths):
        blocks.append(qv_paths(cfg, paths))
        return blocks[-1]

    monkeypatch.setattr(harness, "_qv_paths", recorded)
    for spacing in (1.0 / 250.0, 0.37, 1.0):
        cfg = harness.StudyConfig(process=ProcessSpec(kind), n_paths=9,
                                  seed=13, qv_n_points=300,
                                  qv_spacing=spacing)
        blocks.clear()
        harness.run_qv_study(cfg, [60.0])
        assert len(blocks) == {1: 9, 700: 3}.get(block_values, 1)
        assert np.concatenate(blocks).tobytes() \
            == reference_qv_paths(cfg).tobytes()


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_null_study_matches_the_frozen_study(seed):
    """The benchmark's null-study QV call: 400 paths of 1250 points."""
    cfg = harness.StudyConfig(process=ProcessSpec("bm"), n_paths=400,
                              seed=seed, qv_n_points=1250,
                              qv_spacing=1.0 / 250.0)
    c_values = (20.0, 60.0, 100.0, 140.0)
    rows, _ = reference_qv_study(cfg, c_values)
    assert harness.run_qv_study(cfg, c_values).rows == rows


def test_degenerate_paths_match_the_frozen_functions():
    """Property: on paths that are constant, flat at the start or end,
    mostly flat, a walk, or a +-1 walk (whose QV thresholds at an integer
    c fall on QV values), the batch decides each row as the frozen
    functions decide it alone."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = ("walk", "unit", "constant", "flat_head", "flat_tail", "sparse")

    def path(kind, n, rng):
        steps = rng.standard_normal(n - 1)
        if kind == "unit":
            steps = rng.choice([-1.0, 1.0], n - 1)
        elif kind == "constant":
            steps[:] = 0.0
        elif kind == "flat_head":
            steps[:rng.integers(0, n)] = 0.0
        elif kind == "flat_tail":
            steps[rng.integers(0, n):] = 0.0
        elif kind == "sparse":
            steps[rng.random(n - 1) < 0.9] = 0.0
        return np.r_[3.0, 3.0 + np.cumsum(steps)]

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(
        rows=st.lists(st.sampled_from(kinds), min_size=1, max_size=8),
        n=st.integers(3, 200),
        seed=st.integers(0, 2**32 - 1),
        ratio=st.one_of(st.sampled_from(RATIOS), st.floats(0.2, 100.0)),
        whole_c=st.one_of(st.none(), st.integers(1, 40)),
        drop_last=st.booleans())
    def run(rows, n, seed, ratio, whole_c, drop_last):
        rng = np.random.default_rng(seed)
        values = np.array([path(kind, n, rng) for kind in rows])
        c = max(n - 3, 1) / ratio if whole_c is None else float(whole_c)
        _assert_rows_match_reference(values, np.arange(n, dtype=float), c,
                                     drop_last)

    run()


class TestScalarFunctionsMatchTheFrozenOnes:
    """The single-path functions are batches of one: the frozen functions'
    values, and their ValueErrors with the same messages."""

    @staticmethod
    def _walk(n, seed, spacing=1.0):
        rng = np.random.default_rng(seed)
        return grid_series(np.r_[0.0, np.cumsum(rng.standard_normal(n - 1))],
                           spacing=spacing)

    @pytest.mark.parametrize("n", [3, 4, 17, 600])
    @pytest.mark.parametrize("c", [0.5, 3.0, 40.0])
    def test_values(self, n, c):
        s = self._walk(n, n, spacing=0.01)
        qv = estimate_qv(s)
        want = reference_estimate_qv(s)
        assert qv.qv.dtype == want.dtype and np.array_equal(qv.qv, want)
        try:
            inc = reference_select_increment(want, c)
            z, n_points = reference_time_change(s, want, inc)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                time_change_increments(s, qv, select_increment(qv, c))
            return
        assert select_increment(qv, c) == inc
        norm = time_change_increments(s, qv, inc)
        assert np.array_equal(norm.z, z) and norm.n_points == n_points
        assert type(norm.n_points) is int and type(norm.increment) is float
        for drop_last in (False, True):
            got = normal_gof_tests(norm, drop_last=drop_last)
            for key, outcome in reference_gof(z, drop_last).items():
                _same_outcome(got[key], outcome)

    @pytest.mark.parametrize("m", [0, 1, MIN_TEST_VALUES - 1, MIN_TEST_VALUES,
                                   8, 9, 64])
    def test_gof_at_every_length(self, m):
        z = np.random.default_rng(m).standard_normal(m) * 1.3 + 0.2
        for drop_last in (False, True):
            got = normal_gof_tests(NormalizedIncrements(z, 1.0, m + 1),
                                   drop_last=drop_last)
            for key, outcome in reference_gof(z, drop_last).items():
                _same_outcome(got[key], outcome)

    def test_errors(self):
        s = self._walk(40, 1)
        qv = estimate_qv(s)
        cases = [
            (lambda: estimate_qv(grid_series([0.0, 1.0])),
             "need at least 3 observations on the grid"),
            (lambda: estimate_qv(TickSeries(np.array([0.0, 1.0, 2.5]),
                                            np.zeros(3))),
             "observations are not on a regular grid"),
            (lambda: select_increment(qv, 0.0), "c must be positive"),
            (lambda: select_increment(qv, -2.0), "c must be positive"),
            (lambda: select_increment(QvPath(np.array([1.0])), 2.0),
             "degenerate quadratic variation"),
            (lambda: select_increment(QvPath(np.array([1.0, 1.0])), 2.0),
             "degenerate quadratic variation"),
            (lambda: time_change_increments(s, qv, 0.0),
             "increment must be positive"),
            (lambda: time_change_increments(s, qv, qv.total() / 2.0),
             "fewer than 2 full QV increments available"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=message):
                call()


class TestStudyRefusesBadInput:
    @pytest.mark.parametrize("c_values", [[-1.0, 0.0], [20.0, 0.0],
                                          [math.nan], [math.inf, 20.0]])
    def test_bad_c_before_simulating(self, c_values, monkeypatch):
        def paths(cfg):
            raise AssertionError("simulated before checking c")

        monkeypatch.setattr(harness, "_qv_paths", paths)
        cfg = harness.StudyConfig(process=ProcessSpec("bm"), n_paths=3)
        with pytest.raises(ValueError, match="c values must be finite and "
                                             "positive"):
            harness.run_qv_study(cfg, c_values)

    @pytest.mark.parametrize("spacing, n_points, message", [
        (0.0, 50, "qv_spacing must be finite and positive, got 0.0"),
        (-0.004, 50, "qv_spacing must be finite and positive, got -0.004"),
        (math.nan, 50, "qv_spacing must be finite and positive, got nan"),
        (math.inf, 50, "qv_spacing must be finite and positive, got inf"),
        (1e308, 50, "the qv grid's end qv_spacing * qv_n_points overflows"),
        (0.004, 1, "need qv_n_points >= 2, got 1"),
        (0.004, 0, "need qv_n_points >= 2, got 0"),
        (0.004, -3, "need qv_n_points >= 2, got -3")],
        ids=["0.0-50", "-0.004-50", "nan-50", "inf-50", "1e+308-50", "0.004-1",
             "0.004-0", "0.004--3"])
    def test_bad_grid(self, spacing, n_points, message):
        """Refused when the config is built, before anything is simulated."""
        with pytest.raises(ValueError) as info:
            harness.StudyConfig(process=ProcessSpec("bm"), n_paths=3,
                                qv_spacing=spacing, qv_n_points=n_points)
        assert str(info.value) == message
