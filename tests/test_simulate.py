import math

import numpy as np
import pytest
from scipy.special import erfi

from clmtree.series import TickSeries
from clmtree.simulate import (
    CrossingChain,
    ProcessSpec,
    expected_crossing_time,
    extract_crossings,
    fgn,
    hitting_prob,
    ou_stationary_lattice_law,
    simulate_crossings_batch,
    simulate_fbm_path,
    simulate_feller_crossings,
    simulate_markov_crossings,
)

OU = ProcessSpec("ou", alpha=8.0, sigma=1.0)
FELLER = ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0)


class TestProcessSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec("ou", alpha=-1.0)
        with pytest.raises(ValueError):
            ProcessSpec("feller", kappa=1.0, mu=0.1, sigma=1.0)
        with pytest.raises(ValueError):
            ProcessSpec("fbm", hurst=1.2)
        with pytest.raises(ValueError):
            ProcessSpec("weird")


class TestHittingProb:
    def test_bm_is_half_everywhere(self):
        for x in (-3.0, 0.0, 7.5):
            assert hitting_prob(ProcessSpec("bm"), x, 0.1) == 0.5

    def test_drift_closed_form(self):
        p = hitting_prob(ProcessSpec("bm_drift", alpha=1.0), 0.0, 0.0633)
        assert math.isclose(p, 0.5316, abs_tol=5e-5)

    def test_ou_symmetry(self):
        d = 0.063015
        assert math.isclose(hitting_prob(OU, 0.0, d), 0.5, abs_tol=1e-12)
        for x in (0.3, 0.75):
            assert math.isclose(hitting_prob(OU, x, d) + hitting_prob(OU, -x, d),
                                1.0, abs_tol=1e-10)

    def test_quadrature_matches_erfi_closed_form(self):
        # OU scale integrals have an erfi closed form: agreement to 1e-9
        c = OU.alpha / OU.sigma**2
        d = 0.063015

        def scale(t):
            return math.sqrt(math.pi) / (2 * math.sqrt(c)) * erfi(math.sqrt(c) * t)

        for x in (0.0, 0.25, 0.8, 1.5):
            closed = (scale(x) - scale(x - d)) / (scale(x + d) - scale(x - d))
            assert math.isclose(hitting_prob(OU, x, d), closed, abs_tol=1e-9)

    def test_feller_boundary_violation(self):
        with pytest.raises(ValueError, match="boundary"):
            hitting_prob(FELLER, 0.02, 0.03)

    def test_small_scale_limit_half(self):
        # p -> 1/2 as the crossing size shrinks, at a fixed interior point
        for spec, x in ((OU, 0.5), (FELLER, 0.3)):
            gaps = [abs(hitting_prob(spec, x, d) - 0.5)
                    for d in (1e-2, 1e-3, 1e-4)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 2e-3


class TestExpectedCrossingTime:
    def test_bm_square_law(self):
        w = expected_crossing_time(ProcessSpec("bm"), 1.3, 0.2)
        assert math.isclose(w, 0.04, rel_tol=1e-12)

    def test_drift_zero_limit(self):
        w = expected_crossing_time(ProcessSpec("bm_drift", alpha=1e-7), 0.0, 0.2)
        assert math.isclose(w, 0.04, rel_tol=1e-6)

    def test_drift_closed_form_value(self):
        a, d = 1.0, 0.0633
        e = math.exp(2 * a * d)
        w = expected_crossing_time(ProcessSpec("bm_drift", alpha=a), 5.0, d)
        assert math.isclose(w, d * (e - 1) / (a * (e + 1)), rel_tol=1e-12)

    def test_ou_against_independent_quadrature(self):
        # Green-function value recomputed via erfi + dense Simpson
        from scipy.integrate import simpson

        d = 0.063015
        c = OU.alpha / OU.sigma**2

        def scale(t):
            return math.sqrt(math.pi) / (2 * math.sqrt(c)) * erfi(math.sqrt(c) * t)

        for x0 in (0.0, 0.5):
            p = (scale(x0) - scale(x0 - d)) / (scale(x0 + d) - scale(x0 - d))
            y1 = np.linspace(x0, x0 + d, 4001)
            up = simpson((scale(x0 + d) - np.vectorize(scale)(y1))
                         * 2.0 * np.exp(-c * y1**2), x=y1)
            y2 = np.linspace(x0 - d, x0, 4001)
            dn = simpson((np.vectorize(scale)(y2) - scale(x0 - d))
                         * 2.0 * np.exp(-c * y2**2), x=y2)
            ref = p * up + (1 - p) * dn
            mine = expected_crossing_time(OU, x0, d)
            assert math.isclose(mine, ref, rel_tol=1e-7)


class TestOuLattice:
    def test_detailed_balance_and_symmetry(self):
        d = 0.063015
        sites, pi = ou_stationary_lattice_law(8.0, 1.0, d)
        p = np.array([hitting_prob(OU, float(x), d) for x in sites])
        residual = pi[:-1] * p[:-1] - pi[1:] * (1 - p[1:])
        assert np.max(np.abs(residual[1:-1])) < 1e-12
        assert np.allclose(pi, pi[::-1], rtol=1e-9)
        assert math.isclose(pi.sum(), 1.0, rel_tol=1e-12)

    def test_truncation_too_small(self):
        with pytest.raises(ValueError, match="truncation"):
            ou_stationary_lattice_law(8.0, 1.0, 0.063015, truncation_sds=2.0)

    def test_ergodic_occupation(self):
        d = 0.063015
        sites, pi = ou_stationary_lattice_law(8.0, 1.0, d)
        paths = simulate_crossings_batch(OU, d, 250_000, 4, 17)
        visits = np.concatenate([p[1:] for p in paths])
        idx = np.round(visits / d).astype(int) + (sites.size - 1) // 2
        occ = np.bincount(idx, minlength=sites.size) / visits.size
        assert 0.5 * np.abs(occ - pi).sum() < 0.02


class TestChains:
    def test_steps_are_exactly_one_delta(self):
        chain = simulate_markov_crossings(ProcessSpec("bm"), 0.1, 500, seed=1)
        steps = np.round(np.diff(chain.values) / 0.1).astype(int)
        assert set(np.unique(steps)) <= {-1, 1}

    def test_determinism_and_batch_equivalence(self):
        for spec, d in ((ProcessSpec("bm"), 0.1), (OU, 0.063015)):
            a = simulate_markov_crossings(spec, d, 300, start="stationary"
                                          if spec.kind == "ou" else 0.0, seed=5)
            b = simulate_markov_crossings(spec, d, 300, start="stationary"
                                          if spec.kind == "ou" else 0.0, seed=5)
            assert np.array_equal(a.values, b.values)
            batch = simulate_crossings_batch(spec, d, 300, 3, 5)
            assert np.array_equal(batch[0], a.values)

    def test_bm_up_fraction(self):
        chain = simulate_markov_crossings(ProcessSpec("bm"), 0.1, 4000, seed=2)
        up = np.mean(np.diff(chain.values) > 0)
        assert abs(up - 0.5) < 0.025

    def test_drift_up_fraction_matches_hitting_prob(self):
        spec = ProcessSpec("bm_drift", alpha=1.0)
        d = 0.0633
        p = hitting_prob(spec, 0.0, d)
        chain = simulate_markov_crossings(spec, d, 20000, seed=3)
        up = np.mean(np.diff(chain.values) > 0)
        assert abs(up - p) < 0.01


class TestFeller:
    def test_forced_up_from_lowest_site(self):
        from clmtree.simulate import _FellerLattice

        lat = _FellerLattice(FELLER, 0.028163)
        assert lat.p_up[1] == 1.0
        table = lat.table(30)
        assert np.all((table[2:] > 0) & (table[2:] < 1))

    def test_chain_stays_positive_and_hits_mean(self):
        chain = simulate_feller_crossings(6.0, 0.2, 1.0, 0.028163, 20000, seed=4)
        assert chain.values.min() >= 0.028163 - 1e-12
        assert abs(chain.values.mean() - 0.2) < 0.08

    def test_milstein_stationary_mean(self):
        from clmtree.simulate import milstein_feller_path

        rng = np.random.default_rng(5)
        paths = milstein_feller_path(FELLER, 1.0, 1e-3, rng, n_paths=400)
        # stationary start: the time-0 and time-1 cross-sections share mean mu
        assert abs(paths[:, 0].mean() - 0.2) < 0.02
        assert abs(paths[:, -1].mean() - 0.2) < 0.02

    def test_determinism(self):
        a = simulate_feller_crossings(6.0, 0.2, 1.0, 0.028163, 100, seed=6)
        b = simulate_feller_crossings(6.0, 0.2, 1.0, 0.028163, 100, seed=6)
        assert np.array_equal(a.values, b.values)

    def test_first_hit_matches_scalar_milstein_reference(self):
        """The first hit steps with the shared Milstein stepper and draws one
        normal per try, so it lands where the scalar scheme written out
        step by step does."""
        from clmtree.simulate import _feller_first_hit

        delta, dt = 0.028163, 1e-4
        a = 2.0 * FELLER.kappa * FELLER.mu / FELLER.sigma**2
        b = FELLER.sigma**2 / (2.0 * FELLER.kappa)

        def reference(rng):
            x = rng.gamma(shape=a, scale=b)
            cell = math.floor(x / delta)
            while True:
                while True:
                    g = rng.standard_normal() * math.sqrt(dt)
                    x_new = (x + FELLER.kappa * (FELLER.mu - x) * dt
                             + FELLER.sigma * math.sqrt(x) * g
                             + FELLER.sigma**2 * (g * g - dt) / 4.0)
                    if x_new > 0.0:
                        break
                new_cell = math.floor(x_new / delta)
                if new_cell != cell:
                    hit = cell + 1 if new_cell > cell else cell
                    if hit >= 1:
                        return hit
                    cell = new_cell
                x = x_new

        for seed in range(20):
            got = _feller_first_hit(FELLER, delta, np.random.default_rng(seed), dt)
            assert got == reference(np.random.default_rng(seed))


class TestFbm:
    def test_half_hurst_has_uncorrelated_increments(self):
        rng = np.random.default_rng(7)
        x = fgn(128, 0.5, 1.0, rng, size=4000)
        lag1 = np.mean(x[:, :-1] * x[:, 1:])
        assert abs(lag1) < 0.02

    def test_lag1_autocovariance(self):
        rng = np.random.default_rng(8)
        x = fgn(128, 0.7, 1.0, rng, size=4000)
        lag1 = np.mean(x[:, :-1] * x[:, 1:])
        assert abs(lag1 - (2 ** 0.4 - 1)) < 0.02

    def test_increment_covariance_matches_fgn_law(self):
        # entrywise agreement of the sample covariance within 4 MC standard
        # errors, n = 64 increments
        rng = np.random.default_rng(9)
        n, reps = 64, 100_000
        x = fgn(n, 0.7, 1.0, rng, size=reps)
        emp = x.T @ x / reps
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        h2 = 1.4
        want = 0.5 * ((lags + 1) ** h2 - 2 * lags**h2 + np.abs(lags - 1) ** h2)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / reps)
        assert np.all(np.abs(emp - want) < 4.0 * se + 1e-12)

    def test_self_similar_rescale(self):
        ts = simulate_fbm_path(0.7, 1.0 / 250.0, 60_000, 1e-4, seed=10)
        # Var X(t) = sigma2 * t^{2H}: check the terminal cross-section scale
        t_end = ts.times[-1]
        assert ts.values[-1] ** 2 < 25 * (1.0 / 250.0) * t_end**1.4

    def test_cached_eigenvalues_are_read_only(self):
        from clmtree.simulate import _fgn_sqrt_eigenvalues

        first = _fgn_sqrt_eigenvalues(100, 0.7)
        value = float(first[0])
        with pytest.raises(ValueError):
            first[0] = -99.0
        again = _fgn_sqrt_eigenvalues(100, 0.7)
        assert again is first and again[0] == value

    def test_determinism(self):
        a = simulate_fbm_path(0.7, 1.0, 500, 1e-3, seed=11)
        b = simulate_fbm_path(0.7, 1.0, 500, 1e-3, seed=11)
        assert np.array_equal(a.values, b.values)


class TestExtractCrossings:
    def test_identity_on_lattice_paths(self):
        vals = np.array([0.0, 1, 2, 1, 2, 3, 4])
        s = TickSeries(times=np.arange(7.0), values=vals)
        chain = extract_crossings(s.path(), 1.0, 0.0)
        assert np.array_equal(chain.values, vals)
        assert np.allclose(chain.durations, 1.0)

    def test_level0_agrees_with_tree(self):
        from clmtree.tree import build_tree

        rng = np.random.default_rng(12)
        vals = np.cumsum(rng.standard_normal(2000)) * 0.05
        s = TickSeries(times=np.arange(2000.0), values=vals)
        chain = extract_crossings(s.path(), 0.1, 0.0)
        tree = build_tree(s.path(), 0.1, 0.0)
        assert np.allclose(chain.values,
                           tree.origin + tree.hit_index[0] * 0.1)

    def test_mean_duration_near_square_law_on_fine_bm(self):
        # grid fine relative to the crossing size, so the first-passage
        # overshoot bias stays inside the band
        rng = np.random.default_rng(13)
        dt = 1e-6
        d = 0.05
        durs = []
        for i in range(10):
            inc = rng.standard_normal(750_000) * math.sqrt(dt)
            s = TickSeries(times=dt * np.arange(750_001),
                           values=np.r_[0, np.cumsum(inc)])
            durs.append(extract_crossings(s.path(), d, 0.0).durations.mean())
        assert abs(np.mean(durs) - d * d) < 0.06 * d * d

    def test_no_crossings_error(self):
        s = TickSeries(times=np.array([0.0, 1.0]), values=np.array([0.2, 0.3]))
        with pytest.raises(ValueError, match="no crossings"):
            extract_crossings(s.path(), 1.0, 0.0)


def test_chain_exports_canonical_ticks(tmp_path):
    from clmtree.series import load_ticks, save_ticks

    chain = simulate_markov_crossings(ProcessSpec("bm"), 0.25, 64, seed=21)
    path = str(tmp_path / "chain.csv")
    save_ticks(chain.as_series(), path)
    back = load_ticks(path)
    assert np.array_equal(back.values, chain.values)


def test_chain_validation():
    with pytest.raises(ValueError, match="size delta"):
        CrossingChain(values=np.array([0.0, 0.1, 0.3]), delta=0.1)
