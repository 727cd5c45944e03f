import math

import numpy as np
import pytest

from clmtree.qv import (
    estimate_qv,
    normal_gof_tests,
    select_increment,
    time_change_increments,
)
from clmtree.series import TickSeries


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

