import math

import numpy as np
import pytest

from clmtree.calibrate import (
    WINDOW_BLOCK_VALUES,
    _bridge_touches,
    _brownian_increments,
    _grid_block,
    _mean_window_for_n_crossings,
    delta_closed_form,
    delta_mc,
    delta_ou,
    ou_mean_crossing_duration,
)
from clmtree.harness import render_report
from clmtree.simulate import ProcessSpec

from oracle_calibration import (
    feller_delta_exact,
    feller_grid_reference,
    feller_mean_window,
)

FELLER = ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0)


class TestClosedForm:
    def test_bm_exact(self):
        d = delta_closed_form(ProcessSpec("bm"), 1250, 5.0)
        assert math.isclose(d, math.sqrt(0.004), rel_tol=1e-15)

    def test_drift_nine_digits(self):
        d = delta_closed_form(ProcessSpec("bm_drift", alpha=1.0), 1250, 5.0)
        assert abs(d - 0.06328774784) < 5e-10

    def test_drift_second_paper_value(self):
        d = delta_closed_form(ProcessSpec("bm_drift", alpha=1.5), 1250, 5.0)
        assert abs(d - 0.06334057822) < 5e-10

    def test_drift_small_alpha_limit(self):
        d = delta_closed_form(ProcessSpec("bm_drift", alpha=1e-6), 1250, 5.0)
        assert math.isclose(d, math.sqrt(0.004), rel_tol=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            delta_closed_form(ProcessSpec("bm"), 0, 5.0)
        with pytest.raises(ValueError):
            delta_closed_form(ProcessSpec("ou", alpha=1.0, sigma=1.0), 10, 5.0)


class TestDeltaOu:
    def test_solver_meets_its_target_tolerance(self):
        d = delta_ou(8.0, 1.0, 1250, 5.0)
        achieved = ou_mean_crossing_duration(8.0, 1.0, d)
        assert abs(achieved - 0.004) <= 2e-4 * 0.004

    def test_small_alpha_approaches_bm(self):
        d = delta_ou(1e-3, 1.0, 1250, 5.0)
        assert abs(d / math.sqrt(0.004) - 1.0) < 0.01

    def test_sigma_scaling(self):
        # scaling sigma at fixed alpha scales the whole solution linearly,
        # so the calibrated crossing size doubles
        d1 = delta_ou(8.0, 1.0, 1250, 5.0)
        d2 = delta_ou(8.0, 2.0, 1250, 5.0)
        assert math.isclose(d2, 2 * d1, rel_tol=1e-3)


class TestDeltaMc:
    def test_generic_bm_route_tracks_square_root_law(self):
        # single resolution; the bridge correction removes the grid's
        # missed crossings, so what remains is Monte Carlo noise
        res = delta_mc(ProcessSpec("bm"), 1250, 5.0, step_exponents=(4,),
                       n_paths=200, seed=3)
        assert abs(res.delta / math.sqrt(0.004) - 1.0) < 0.12
        assert res.achieved_ci_half is not None
        assert abs(res.achieved_mean_window - 5.0) <= 0.02 * 5.0

    def test_feller_structure_fast(self, feller_coarse):
        # the levels share their Brownian paths; the coarser grids (Milstein
        # error, frozen bridge variance) still approach from below
        res = feller_coarse
        assert set(res.deltas_by_step) == {2, 3, 4}
        assert res.deltas_by_step[2] < res.deltas_by_step[3] \
            < res.deltas_by_step[4] < res.delta
        assert res.fit_slope is not None and res.fit_slope < 0
        assert abs(res.achieved_mean_window - 1.2) <= 0.03 * 1.2

    def test_extrapolated_delta_is_a_python_float(self, feller_coarse):
        assert type(feller_coarse.delta) is float
        assert "np.float64" not in render_report(feller_coarse, "text")

    def test_two_steps_refuse_extrapolation(self):
        res = delta_mc(ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0),
                       200, 0.8, step_exponents=(2, 3), n_paths=80, seed=5)
        assert res.fit_slope is None
        assert any("3 step sizes" in w for w in res.warnings)
        assert res.delta == res.deltas_by_step[3]

    def test_odd_feller_path_count_refused(self):
        # Feller paths come in antithetic pairs
        with pytest.raises(ValueError, match="even"):
            delta_mc(FELLER, 200, 0.8, step_exponents=(2,), n_paths=81, seed=5)

    def test_unfinished_windows_raise_instead_of_censoring(self):
        with pytest.raises(RuntimeError, match="unfinished"):
            _mean_window_for_n_crossings(ProcessSpec("bm"), 0.1, 1e-3, 20, 1,
                                         1000, t_max=0.5)

    def test_window_ending_past_t_max_raises(self):
        # every window of 50 crossings ends within the first block, which
        # runs to t = 5; some end after t_max
        with pytest.raises(RuntimeError, match="unfinished"):
            _mean_window_for_n_crossings(ProcessSpec("bm"), 0.1, 1e-3, 20, 1,
                                         50, t_max=0.3)

    def test_refined_increments_keep_the_coarse_path(self):
        # a finer grid splits each coarse increment: same Brownian path,
        # with increments of the finer variance
        def increments(decades, n_roots):
            rngs = [np.random.default_rng([9, 1, j])
                    for j in range(decades + 1)]
            return _brownian_increments(rngs, n_roots, 400, 1e-2)

        coarse, fine = increments(0, 50), increments(2, 50)
        assert fine.shape == (5000, 400)
        np.testing.assert_allclose(fine.reshape(50, 100, 400).sum(axis=1),
                                   coarse, rtol=0, atol=1e-12)
        assert abs(fine.std() / math.sqrt(1e-4) - 1.0) < 0.01
        lag1 = np.mean(fine[1:] * fine[:-1]) / 1e-4
        assert abs(lag1) < 0.01


class TestFellerOracle:
    """The exact (step-free) Feller window of ``oracle_calibration``."""

    def test_exact_delta_at_c07_parameters(self):
        d = feller_delta_exact(6.0, 0.2, 1.0, 1250, 5.0)
        assert abs(d - 0.027990) < 1e-6
        assert 0.0279 <= d <= 0.0284  # the paper's band

    def test_delta_mc_agrees_with_oracle(self, feller_coarse):
        # the exact mean window at the finest-step delta lies inside the
        # Monte Carlo confidence interval around the window it achieved
        res = feller_coarse
        d = res.deltas_by_step[4]
        exact = feller_mean_window(6.0, 0.2, 1.0, d, 300)
        assert abs(exact - res.achieved_mean_window) <= res.achieved_ci_half


class TestContinuousMonitoringEvidence:
    """Bridge-corrected windows at h = 1e-4 over 3000 paths.

    Evidence for the OU reference of acceptance criterion 7: the BM
    control reproduces its exact window n * delta**2, and OU(8, 1) at
    ``delta_ou``'s delta (the stationary-walk mean-duration criterion)
    gives t0 as well.  Run with ``-s`` to see the numbers.
    """

    def _window(self, spec, delta):
        w, se = _mean_window_for_n_crossings(spec, delta, 1e-4, 3000,
                                             20091127, 1250, 100.0)
        print(f"\n{spec.kind} delta={delta!r}: window {w:.4f} +- {se:.4f}")
        return w, se

    def test_bm_control(self):
        w, se = self._window(ProcessSpec("bm"), math.sqrt(0.004))
        assert abs(w - 5.0) <= 3 * se

    def test_ou_at_delta_ou(self):
        d = delta_ou(8.0, 1.0, 1250, 5.0)
        w, se = self._window(ProcessSpec("ou", alpha=8.0, sigma=1.0), d)
        assert abs(w - 5.0) <= 3 * se


@pytest.mark.parametrize("spec, delta, seed, root_step, pinned", [
    (ProcessSpec("bm"), 0.05, 11, None,
     (0.745344326646103, 0.0045690306524277255)),
    (ProcessSpec("ou", alpha=8.0, sigma=1.0), 0.063, 12, None,
     (1.17985740799073, 0.011297639562047272)),
    (FELLER, 0.028, 13, 1e-3, (1.2192955239336283, 0.03540584761025976)),
], ids=["bm", "ou", "feller"])
def test_mean_window_is_pinned(spec, delta, seed, root_step, pinned):
    # 30 paths of 300 crossings at step 1e-4, a few blocks each; the Feller
    # case refines root increments of 1e-3 and runs antithetic pairs.  A
    # rework of the pass that keeps every draw and decision keeps these
    # bits
    w, se = _mean_window_for_n_crossings(spec, delta, 1e-4, 30, seed, 300,
                                         30.0, root_step)
    assert (repr(w), repr(se)) == tuple(map(repr, pinned))


def test_feller_grid_block_keeps_stationary_mean():
    # Milstein grid paths from stationary Gamma starts: the time-0 and
    # time-1 cross-sections share the stationary mean mu
    rng = np.random.default_rng(5)
    step, n_paths = 1e-3, 400
    a = 2.0 * FELLER.kappa * FELLER.mu / FELLER.sigma**2
    x0 = rng.gamma(shape=a, scale=FELLER.sigma**2 / (2.0 * FELLER.kappa),
                   size=n_paths)
    g = rng.standard_normal((1000, n_paths)) * math.sqrt(step)
    paths = _grid_block(FELLER, x0, g, step, np.random.default_rng(6))
    assert paths.shape == (1000, n_paths) and np.all(paths > 0.0)
    assert abs(x0.mean() - 0.2) < 0.02
    assert abs(paths[-1].mean() - 0.2) < 0.02


class TestFellerGridBlock:
    """``_grid_block``'s Feller stepper against the per-step reference of
    ``oracle_calibration``: the same values and the same redraws."""

    @staticmethod
    def _both(spec, x, g, step):
        ref_rng, rng = np.random.default_rng(6), np.random.default_rng(6)
        with np.errstate(invalid="ignore"):  # sqrt of a negative start
            ref = feller_grid_reference(spec, x, g, step, ref_rng)
        out = _grid_block(spec, x, g, step, rng)
        assert np.array_equal(out, ref, equal_nan=True)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return ref, rng

    @pytest.mark.parametrize("spec, n_paths", [
        pytest.param(FELLER, 40, id="40"),
        pytest.param(FELLER, 500, id="500"),
        # sigma != 1 shows a dropped or misplaced sigma factor
        pytest.param(ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=0.7), 40,
                     id="sigma0.7-40"),
    ])
    def test_matches_per_step_reference(self, spec, n_paths):
        # one calibration block of stationary starts at step 1e-4
        step = 1e-4
        rng = np.random.default_rng(n_paths)
        a = 2.0 * spec.kappa * spec.mu / spec.sigma**2
        x0 = rng.gamma(shape=a, scale=spec.sigma**2 / (2.0 * spec.kappa),
                       size=n_paths)
        g = rng.standard_normal((WINDOW_BLOCK_VALUES // n_paths, n_paths)) \
            * math.sqrt(step)
        self._both(spec, x0, g, step)

    def test_writes_into_the_given_buffer(self):
        rng = np.random.default_rng(8)
        x0 = rng.gamma(2.4, 1.0 / 12.0, size=40)
        g = rng.standard_normal((200, 40)) * 1e-2
        grid = np.empty((201, 40))
        grid[0] = x0
        out = _grid_block(FELLER, grid[0], g, 1e-4, rng, out=grid[1:])
        assert out.base is grid
        assert np.array_equal(
            grid[1:], _grid_block(FELLER, x0, g, 1e-4, rng))

    def test_redraws_match_per_step_reference(self):
        # 2 kappa mu / sigma**2 = 1.  A step from x lands at
        # (sqrt(x) + sigma g / 2)**2 + (kappa mu - sigma**2 / 4 - kappa x) h,
        # which is > 0 for x < 0.05 (so starts near 0 never redraw) and <= 0
        # for x > 0.05 and g = -2 sqrt(x) / sigma: such increments are set
        # at row 0 and at row 100.  A negative start gives a NaN path.
        spec = ProcessSpec("feller", kappa=5.0, mu=0.1, sigma=1.0)
        step = 1e-2
        rng = np.random.default_rng(7)
        x0 = rng.gamma(1.0, 0.1, size=40)
        x0[:3] = [1e-8, 2e-8, 5e-9]
        x0[3:6] = [0.3, 0.5, 0.8]
        x0[6] = -1e-3
        g = rng.standard_normal((300, 40)) * math.sqrt(step)
        g[0, 3:6] = -2.0 * np.sqrt(x0[3:6]) / spec.sigma
        ref, _ = self._both(spec, x0, g, step)
        high = np.flatnonzero(ref[99] > 0.1)[:3]
        assert high.size
        g[100, high] = -2.0 * np.sqrt(ref[99, high]) / spec.sigma
        ref, rng = self._both(spec, x0, g, step)
        assert np.all(ref[:, 6] != ref[:, 6])
        assert rng.bit_generator.state \
            != np.random.default_rng(6).bit_generator.state


class TestBridgeTouchesOnColumnSubsets:
    """The open windows of a pass go through ``_bridge_touches`` as a
    column subset; a fancy-indexed subset is F-ordered, and its touches
    must be those of the same columns in the full call."""

    COLS = np.array([0, 3, 4, 9, 10, 17, 30, 31, 38])

    @staticmethod
    def _inputs(spec, x0, step, delta, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((500, x0.size)) * math.sqrt(step)
        grid = np.concatenate([x0[None, :], _grid_block(spec, x0, g, step,
                                                        rng)])
        cells = np.floor(grid / delta)
        e = rng.standard_exponential((2, 500, x0.size))
        return grid[:-1], grid[1:], cells[:-1], cells[1:], e[0], e[1]

    def _check(self, spec, inputs, step, delta):
        work = np.empty((6, inputs[0].size))  # larger than the subset needs
        lo, hi = _bridge_touches(spec, *inputs, step, delta, work)
        sub = [v[:, self.COLS] for v in inputs]
        assert all(v.flags.f_contiguous and not v.flags.c_contiguous
                   for v in sub)
        lo_s, hi_s = _bridge_touches(spec, *sub, step, delta, work)
        assert np.array_equal(lo_s, lo[:, self.COLS])
        assert np.array_equal(hi_s, hi[:, self.COLS])
        return lo, hi

    def test_feller(self):
        rng = np.random.default_rng(1)
        x0 = rng.gamma(2.4, 1.0 / 12.0, size=40)
        lo, hi = self._check(FELLER, self._inputs(FELLER, x0, 1e-3, 0.028, 2),
                             1e-3, 0.028)
        assert lo[:, self.COLS].any() and hi[:, self.COLS].any()

    def test_bm_with_steps_near_both_lines(self):
        # delta of one step's standard deviation: many steps are within
        # reach of both lines of their cell, so the two-sided term is used
        spec, step, delta = ProcessSpec("bm"), 1e-4, 0.01
        inputs = self._inputs(spec, np.zeros(40), step, delta, 3)
        prev, nxt, c_prev, c_nxt = inputs[:4]
        lo_line = np.minimum(c_prev, c_nxt) * delta
        hi_line = (np.maximum(c_prev, c_nxt) + 1.0) * delta
        q_sum = ((prev - lo_line) * (nxt - lo_line)
                 + (hi_line - prev) * (hi_line - nxt)) * 2.0 / step
        assert (q_sum[:, self.COLS] < 30.0).sum() > 1000
        lo, hi = self._check(spec, inputs, step, delta)
        assert (lo & hi)[:, self.COLS].any()
