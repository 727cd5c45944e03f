import math

import numpy as np
import pytest
from scipy.special import erfi

from clmtree.series import TickSeries
from clmtree.simulate import (
    DIFFUSIONS,
    PROCESS_PARAMS,
    ProcessSpec,
    _scale_odds,
    _stationary_law,
    _walk_table,
    expected_crossing_time,
    fgn,
    hitting_prob,
    mean_crossing_times,
    simulate_crossings_batch,
    simulate_fbm_path,
)
from clmtree.tree import lattice_events

import oracle_calibration as oracle

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

    def test_params_follow_the_kind_table(self):
        specs = [ProcessSpec("bm"), ProcessSpec("bm_drift", alpha=1.0), OU,
                 FELLER, ProcessSpec("fbm", hurst=0.7, sigma2=2.0)]
        assert [s.kind for s in specs] == list(PROCESS_PARAMS)
        assert [s.kind for s in specs if s.is_diffusion] == list(DIFFUSIONS)
        assert FELLER.params == {"kappa": 6.0, "mu": 0.2, "sigma": 1.0}
        for spec in specs:
            assert tuple(spec.params) == PROCESS_PARAMS[spec.kind]

    @pytest.mark.parametrize("kind, unread", [
        ("bm", {"alpha": 1.0}), ("bm", {"sigma": 3.0}),
        ("bm_drift", {"alpha": 1.0, "sigma": 2.0}),
        ("ou", {"alpha": 8.0, "sigma": 1.0, "mu": 0.2}),
        ("feller", {"kappa": 6.0, "mu": 0.2, "sigma": 1.0, "hurst": 0.7}),
        ("fbm", {"hurst": 0.7, "alpha": 1.0}),
    ], ids=["bm-alpha", "bm-sigma", "drift-sigma", "ou-mu", "feller-hurst",
            "fbm-alpha"])
    def test_unread_parameters_are_refused(self, kind, unread):
        # a parameter the kind does not read may only keep its default
        *read, (name, value) = unread.items()
        ProcessSpec(kind, **dict(read))
        with pytest.raises(ValueError, match=f"{kind} does not read {name}"):
            ProcessSpec(kind, **unread)


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


@pytest.mark.parametrize("alpha", [1e-10, 1e-6, 1.0])
def test_drift_formulas_match_high_precision(alpha):
    # the closed forms are differences of exp(2 alpha delta) terms, which
    # cancel at small alpha in doubles but not at 40 digits
    mpmath = pytest.importorskip("mpmath")
    spec, d = ProcessSpec("bm_drift", alpha=alpha), math.sqrt(0.004)
    with mpmath.workdps(40):
        a, e = mpmath.mpf(alpha), mpmath.exp(2 * alpha * mpmath.mpf(d))
        p = float((e - 1) / (e - 1 / e))
        w = float(d * (e - 1) / (a * (e + 1)))
    assert math.isclose(hitting_prob(spec, 0.0, d), p, rel_tol=3e-16)
    assert math.isclose(expected_crossing_time(spec, 0.0, d), w, rel_tol=3e-16)


@pytest.mark.parametrize("alpha", [-4000.0, -400.0, -20.0])
def test_drift_against_the_step_does_not_overflow(alpha):
    # -2 alpha delta = 800 overflows exp; the odds are e**-800, 0 in doubles
    spec, d = ProcessSpec("bm_drift", alpha=alpha), 0.1
    p = hitting_prob(spec, 0.0, d)
    assert 0.0 <= p < 0.5
    mpmath = pytest.importorskip("mpmath")
    # the logistic of the double -2 alpha delta: 0.1's own rounding error
    # moves e**-80 by 4e-15 relative
    with mpmath.workdps(40):
        exact = float(1 / (1 + mpmath.exp(mpmath.mpf(-2.0 * alpha * d))))
    assert math.isclose(p, exact, rel_tol=3e-16)


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


# walk tables at the benchmark's and the goldens' crossing sizes, and at
# the near-BM alpha of TestDeltaOu, whose table has 7,071 sites
RULE_CASES = [
    (ProcessSpec("ou", alpha=10.0, sigma=1.0), 0.062945),
    (ProcessSpec("ou", alpha=8.0, sigma=1.0), 0.063015),
    (ProcessSpec("ou", alpha=1e-3, sigma=1.0), math.sqrt(0.004)),
    (ProcessSpec("feller", kappa=8.0, mu=0.2, sigma=1.0), 0.028330),
    (ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0), 0.027990),
    (ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0), 0.028163),
]


class TestQuadratureRule:
    """The Gauss-Legendre rule against the nested adaptive quadrature of
    ``oracle_calibration``, which shares no code with it."""

    @staticmethod
    def _interior_sites(spec, delta):
        lo, p_up = _walk_table(spec, delta)
        return ((lo + np.arange(p_up.size)) * delta)[1:-1], p_up[1:-1]

    @pytest.mark.parametrize("spec,delta", RULE_CASES)
    def test_walk_table_odds(self, spec, delta):
        sites, p_up = self._interior_sites(spec, delta)
        ref = [oracle.hitting_prob(spec, float(x), delta) for x in sites]
        assert np.max(np.abs(p_up - ref)) <= 1e-14

    @pytest.mark.parametrize("spec,delta", RULE_CASES)
    def test_crossing_times(self, spec, delta):
        sites, _ = self._interior_sites(spec, delta)
        times = mean_crossing_times(spec, sites, delta)
        ref = np.array([oracle.expected_crossing_time(spec, float(x), delta)
                        for x in sites])
        # quad places its nodes at absolute positions, which costs the
        # reference about one ulp of x per delta: 4.5e-13 at |x| = 224 in
        # the alpha = 1e-3 table, where a 40-digit evaluation put the rule
        # within 1e-15
        rtol = 1e-13 + 2.0 * np.spacing(np.abs(sites)) / delta
        assert np.all(np.abs(times / ref - 1.0) <= rtol)

    @pytest.mark.parametrize("spec,delta", [RULE_CASES[0], RULE_CASES[3]])
    def test_scalar_entry_points_are_a_batch_of_one(self, spec, delta):
        sites, p_up = self._interior_sites(spec, delta)
        times = mean_crossing_times(spec, sites, delta)
        for x, p, w in zip(sites.tolist(), p_up, times):
            assert hitting_prob(spec, x, delta) == p
            assert expected_crossing_time(spec, x, delta) == w

    @pytest.mark.parametrize("spec,delta", RULE_CASES[3:])
    def test_feller_first_hit_cells(self, spec, delta):
        lo, p_up = _walk_table(spec, delta)
        i = np.repeat(np.arange(1, lo + p_up.size - 1), 3)
        x = (i + np.tile([0.01, 0.5, 0.97], i.size // 3)) * delta
        odds = _scale_odds(spec, i * delta, x, (i + 1) * delta)
        ref = [oracle.scale_odds(spec, float(a) * delta, float(b),
                                 float(a + 1) * delta) for a, b in zip(i, x)]
        assert np.max(np.abs(odds - ref)) <= 1e-14


def _ou_stationary_lattice_law(delta):
    lo, p_up = _walk_table(OU, delta)
    return (lo + np.arange(p_up.size)) * delta, _stationary_law(p_up)


class TestOuLattice:
    def test_detailed_balance_and_symmetry(self):
        d = 0.063015
        sites, pi = _ou_stationary_lattice_law(d)
        p = np.array([hitting_prob(OU, float(x), d) for x in sites])
        residual = pi[:-1] * p[:-1] - pi[1:] * (1 - p[1:])
        assert np.max(np.abs(residual[1:-1])) < 1e-12
        assert np.allclose(pi, pi[::-1], rtol=1e-9)
        assert math.isclose(pi.sum(), 1.0, rel_tol=1e-12)

    def test_truncation_too_small(self):
        # a hand-made table whose inner up-step odds fall from 0.99 to
        # 0.01: on 25 inner sites its ends keep 2e-9 of the mass, on 41
        # they keep 5e-14
        def table(n_inner):
            return np.r_[1.0, np.linspace(0.99, 0.01, n_inner), 0.0]

        with pytest.raises(ValueError, match="truncation too small"):
            _stationary_law(table(25))
        pi = _stationary_law(table(41))
        assert pi[0] + pi[-1] < 1e-13
        assert math.isclose(pi.sum(), 1.0, rel_tol=1e-12)

    def test_point_start_outside_the_table_raises(self):
        d = 0.063015  # the table ends 40 sites below 0
        chain = simulate_crossings_batch(OU, d, 1, 1, 1, start=-40 * d)[0]
        assert np.allclose(chain / d, [-40, -39])  # forced inward
        with pytest.raises(ValueError, match="outside the walk table"):
            simulate_crossings_batch(OU, d, 2, 1, 1, start=-41 * d)
        with pytest.raises(ValueError, match="outside the walk table"):
            simulate_crossings_batch(FELLER, 0.028163, 2, 1, 1, start=0.0)

    def test_ergodic_occupation(self):
        d = 0.063015
        sites, pi = _ou_stationary_lattice_law(d)
        paths = simulate_crossings_batch(OU, d, 250_000, 4, 17)
        visits = np.concatenate([p[1:] for p in paths])
        idx = np.round(visits / d).astype(int) + (sites.size - 1) // 2
        occ = np.bincount(idx, minlength=sites.size) / visits.size
        assert 0.5 * np.abs(occ - pi).sum() < 0.02


class TestChains:
    def test_steps_are_exactly_one_delta(self):
        chain = simulate_crossings_batch(ProcessSpec("bm"), 0.1, 500, 1, 1,
                                         start=0.0)[0]
        steps = np.round(np.diff(chain) / 0.1).astype(int)
        assert set(np.unique(steps)) <= {-1, 1}

    def test_determinism_and_batch_equivalence(self):
        for spec, d in ((ProcessSpec("bm"), 0.1), (OU, 0.063015)):
            start = "stationary" if spec.kind == "ou" else 0.0
            a = simulate_crossings_batch(spec, d, 300, 1, 5, start=start)[0]
            b = simulate_crossings_batch(spec, d, 300, 1, 5, start=start)[0]
            assert np.array_equal(a, b)
            batch = simulate_crossings_batch(spec, d, 300, 3, 5)
            assert np.array_equal(batch[0], a)

    def test_bm_up_fraction(self):
        chain = simulate_crossings_batch(ProcessSpec("bm"), 0.1, 4000, 1, 2,
                                         start=0.0)[0]
        up = np.mean(np.diff(chain) > 0)
        assert abs(up - 0.5) < 0.025

    def test_drift_up_fraction_matches_hitting_prob(self):
        spec = ProcessSpec("bm_drift", alpha=1.0)
        d = 0.0633
        p = hitting_prob(spec, 0.0, d)
        chain = simulate_crossings_batch(spec, d, 20000, 1, 3, start=0.0)[0]
        up = np.mean(np.diff(chain) > 0)
        assert abs(up - p) < 0.01


class TestFeller:
    def test_forced_up_from_lowest_site(self):
        from clmtree.simulate import _walk_table

        lo, p_up = _walk_table(FELLER, 0.028163)
        assert lo == 1 and p_up[0] == 1.0 and p_up[-1] == 0.0
        assert np.all((p_up[1:-1] > 0) & (p_up[1:-1] < 1))
        with pytest.raises(ValueError):
            p_up[1] = 0.5  # the cached table is shared

    def test_chain_stays_positive_and_hits_mean(self):
        chain = simulate_crossings_batch(FELLER, 0.028163, 20000, 1, 4,
                                         start="stationary")[0]
        assert chain.min() >= 0.028163 - 1e-12
        assert abs(chain.mean() - 0.2) < 0.08

    def test_determinism(self):
        a = simulate_crossings_batch(FELLER, 0.028163, 100, 1, 6,
                                     start="stationary")[0]
        b = simulate_crossings_batch(FELLER, 0.028163, 100, 1, 6,
                                     start="stationary")[0]
        assert np.array_equal(a, b)

    def test_stationary_start_is_the_batch_default(self):
        chain = simulate_crossings_batch(FELLER, 0.028163, 100, 1, 6,
                                         start="stationary")[0]
        batch = simulate_crossings_batch(FELLER, 0.028163, 100, 2, 6)
        assert np.array_equal(batch[0], chain)

    @pytest.mark.parametrize("kappa,delta", [(8.0, 0.02833), (6.0, 0.02799)])
    def test_first_hit_matches_oracle_start_law(self, kappa, delta):
        """Sampled first hits of the stationary start follow the law the
        calibration oracle integrates (chi-square over 20k draws)."""
        from scipy import stats

        from clmtree.simulate import _feller_first_hit, _walk_table
        from oracle_calibration import _start_law

        spec = ProcessSpec("feller", kappa=kappa, mu=0.2, sigma=1.0)
        lo, p_up = _walk_table(spec, delta)
        top = lo + p_up.size - 1
        law = _start_law(spec, delta, top)
        rng = np.random.default_rng(20091127)
        n = 20_000
        hits = [_feller_first_hit(spec, delta, top, rng) for _ in range(n)]
        observed = np.bincount(hits, minlength=top + 1)
        expected = n * law / law.sum()
        keep = expected >= 5.0
        pvalue = stats.chisquare(
            np.r_[observed[keep], observed[~keep].sum()],
            np.r_[expected[keep], expected[~keep].sum()]).pvalue
        assert pvalue > 0.01

    def test_draw_above_the_table_raises(self):
        from clmtree.simulate import _feller_first_hit

        with pytest.raises(ValueError, match="top walk site"):
            _feller_first_hit(FELLER, 0.028163, 1, np.random.default_rng(0))


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

    def test_half_spectrum_transform_matches_full_fft(self):
        """fgn transforms the half spectrum 0 .. m/2 of a Hermitian vector.
        The full vector, rebuilt from the same draws in the same order,
        gives the same noise through a complex FFT, and both consume the
        same stream."""
        from clmtree.simulate import _fgn_sqrt_eigenvalues

        n, hurst, sigma2, size = 1000, 0.7, 0.3, 3
        got_rng = np.random.default_rng(21)
        got = fgn(n, hurst, sigma2, got_rng, size=size)
        half = _fgn_sqrt_eigenvalues(n, hurst)
        m = 2 * (half.size - 1)
        rng = np.random.default_rng(21)
        ends = rng.standard_normal((size, 2))
        inner = rng.standard_normal((size, m // 2 - 1, 2)) / math.sqrt(2.0)
        z = np.empty((size, m), dtype=np.complex128)
        z[:, 0], z[:, m // 2] = ends[:, 0], ends[:, 1]
        z[:, 1 : m // 2] = inner[:, :, 0] + 1j * inner[:, :, 1]
        z[:, m // 2 + 1 :] = np.conj(z[:, 1 : m // 2][:, ::-1])
        sqrt_eig = np.r_[half, half[-2:0:-1]]
        want = np.fft.fft(sqrt_eig * z, axis=1).real / math.sqrt(m)
        want = math.sqrt(sigma2) * want[:, :n]
        assert got.shape == (size, n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert got_rng.bit_generator.state == rng.bit_generator.state

    @staticmethod
    def _reference_fgn(n, hurst, sigma2, rng, size):
        """fgn's arithmetic with a fresh array for every step: the half
        spectrum from one (size, m/2 - 1, 2) draw, weighted, transformed,
        then scaled by 1/sqrt(m) and sqrt(sigma2)."""
        from scipy import fft

        from clmtree.simulate import _fgn_sqrt_eigenvalues

        sqrt_eig = _fgn_sqrt_eigenvalues(n, hurst)
        half = sqrt_eig.size - 1
        m = 2 * half
        z = np.empty((size, half + 1), dtype=np.complex128)
        ends = rng.standard_normal((size, 2))
        inner = rng.standard_normal((size, half - 1, 2)) / math.sqrt(2.0)
        z[:, 0] = ends[:, 0]
        z[:, half] = ends[:, 1]
        z[:, 1:half] = inner.view(np.complex128)[:, :, 0]
        x = fft.hfft(sqrt_eig[None, :] * z, m, axis=1) / math.sqrt(m)
        return math.sqrt(sigma2) * x[:, :n]

    @pytest.mark.parametrize("n, hurst, sigma2, size, seed", [
        (1, 0.7, 1.0, 1, 2), (7, 0.5, 1.0, 2, 1), (500, 0.3, 2.0, 5, 4),
        (1000, 0.7, 0.3, 3, 21), (100_000, 0.7, 1.0 / 250.0, 1, 33),
        (4096, 0.9, 0.5, 2, 8)])
    def test_in_place_steps_give_the_same_bits(self, n, hurst, sigma2,
                                               size, seed):
        """The in-place draws and scalings of fgn, and the cumulation of
        simulate_fbm_path into its own buffer, give exactly the numbers of
        the step-by-step arithmetic."""
        got = fgn(n, hurst, sigma2, np.random.default_rng(seed), size=size)
        want = self._reference_fgn(n, hurst, sigma2,
                                   np.random.default_rng(seed), size)
        assert got.shape == want.shape == (size, n)
        assert np.array_equal(got, want)
        path = simulate_fbm_path(hurst, sigma2, n, 1e-3, seed=[seed, 1])
        inc = self._reference_fgn(n, hurst, sigma2,
                                  np.random.default_rng([seed, 1]), 1)[0]
        want_values = np.concatenate([[0.0], np.cumsum(inc)]) * 1e-3**hurst
        assert np.array_equal(path.values, want_values)

    @pytest.mark.parametrize("size", [1, 3])
    def test_consumes_the_stream_of_one_draw(self, size):
        """Drawing row by row into the spectrum buffer leaves the
        generator where one (size, ...) draw leaves it."""
        got_rng, want_rng = (np.random.default_rng(5) for _ in range(2))
        fgn(3000, 0.7, 1.0, got_rng, size=size)
        self._reference_fgn(3000, 0.7, 1.0, want_rng, size)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_determinism(self):
        a = simulate_fbm_path(0.7, 1.0, 500, 1e-3, seed=11)
        b = simulate_fbm_path(0.7, 1.0, 500, 1e-3, seed=11)
        assert np.array_equal(a.values, b.values)


class TestExtractCrossings:
    """Level-0 crossings of a sample path, from ``tree.lattice_events``."""

    def test_identity_on_lattice_paths(self):
        vals = np.array([0.0, 1, 2, 1, 2, 3, 4])
        times, k = lattice_events(np.arange(7.0), vals, 1.0, 0.0)
        assert np.array_equal(k, vals)
        assert np.allclose(np.diff(times), 1.0)

    def test_mean_duration_near_square_law_on_fine_bm(self):
        # grid fine relative to the crossing size, so the first-passage
        # overshoot bias stays inside the band
        rng = np.random.default_rng(13)
        dt = 1e-6
        d = 0.05
        durs = []
        for i in range(10):
            inc = rng.standard_normal(750_000) * math.sqrt(dt)
            times, _ = lattice_events(dt * np.arange(750_001),
                                      np.r_[0, np.cumsum(inc)], d, 0.0)
            durs.append(np.diff(times).mean())
        assert abs(np.mean(durs) - d * d) < 0.06 * d * d


def test_chain_exports_canonical_ticks(tmp_path):
    from clmtree.series import load_ticks, save_ticks

    chain = simulate_crossings_batch(ProcessSpec("bm"), 0.25, 64, 1, 21,
                                     start=0.0)[0]
    path = str(tmp_path / "chain.csv")
    save_ticks(TickSeries(times=np.arange(chain.size, dtype=np.float64),
                          values=chain), path)
    back = load_ticks(path)
    assert np.array_equal(back.values, chain)
