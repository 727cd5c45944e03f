import itertools

import numpy as np
import pytest

from clmtree.harness import (
    StudyConfig,
    _origin,
    _study_hits,
    tree_for_series,
)
from clmtree.outcomes import Segments
from clmtree.series import TickSeries, log_transform
from clmtree.simulate import (
    ProcessSpec,
    simulate_crossings_batch,
    simulate_fbm_path,
)
from clmtree.tree import (
    SNAP_MAX,
    SNAP_TOL,
    TreeError,
    build_levels,
    build_tree,
    export_tree,
    lattice_events,
    level0_hits,
    level_stats,
    multiple_crossing_shares,
    select_base_scale,
)
from oracle_scan import reference_lattice_events
from oracle_tree import brute_level_hits, brute_tree, reference_levels


def walk_series(values):
    values = np.asarray(values, dtype=float)
    return TickSeries(times=np.arange(values.size, dtype=float), values=values)


SEVEN = walk_series([0, 1, 2, 1, 2, 3, 4])


class TestBaseScale:
    def test_median_of_three(self):
        s = walk_series(np.cumsum([0, 1, -1, 3]))
        assert select_base_scale(s) == 1.0

    def test_even_length_mean_of_central(self):
        s = walk_series(np.cumsum([0, 2, -4]))
        assert select_base_scale(s) == 3.0

    def test_recovers_lattice_step(self):
        rng = np.random.default_rng(0)
        h = 0.0625  # binary-exact spacing: recovery is exact
        s = walk_series(h * np.cumsum(rng.choice([-1, 1], size=400)))
        assert select_base_scale(s) == h
        h2 = 0.037  # inexact spacing: recovery to float round-off
        s2 = walk_series(h2 * np.cumsum(rng.choice([-1, 1], size=400)))
        assert abs(select_base_scale(s2) - h2) < 1e-15

    def test_zero_median_falls_back(self):
        s = walk_series([0.0, 0.0, 0.0, 0.0, 5.0])
        assert select_base_scale(s) == 5.0

    def test_all_zero_increments(self):
        s = walk_series([1.0, 1.0, 1.0])
        with pytest.raises(TreeError):
            select_base_scale(s)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_zero_count_gives_the_median(self, n):
        """With z of n increments 0 the median is 0 once z > n // 2, the
        smallest positive increment at z = n // 2 for odd n, and half of
        it (the mean of 0 and it) at z = n / 2: exactly ``np.median``, or
        its fallback to the smallest positive increment when it is 0."""
        rng = np.random.default_rng(n)
        for zeros in range(n):
            inc = rng.exponential(0.3, n) * rng.choice([-1.0, 1.0], n)
            inc[rng.permutation(n)[:zeros]] = 0.0
            series = walk_series(np.r_[0.0, np.cumsum(inc)])
            steps = np.abs(series.increments())
            want = float(np.median(steps)) or float(steps[steps > 0].min())
            assert select_base_scale(series) == want, (n, zeros)


class TestBuildTree:
    def test_seven_point_example(self):
        t = build_tree(SEVEN, 1.0, 0.0)
        assert t.n_crossings(0) == 6
        assert t.counts[1].tolist() == [2, 4]
        assert t.excursions[1].tolist() == [1]
        assert t.counts[2].tolist() == [2]
        assert t.excursions[2].tolist() == []
        assert t.max_level == 2

    def test_monotone_path_all_direct(self):
        t = build_tree(walk_series([0, 1, 2, 3, 4]), 1.0, 0.0)
        for level in range(1, t.max_level + 1):
            assert np.all(t.counts[level] == 2)
            assert t.excursions[level].size == 0

    def test_jump_segment_generates_interpolated_crossings(self):
        s = TickSeries(times=np.array([0.0, 1.0]), values=np.array([0.0, 3.5]))
        times, hits = lattice_events(s.times, s.values, 1.0, 0.0)
        assert hits.tolist() == [0, 1, 2, 3]
        assert np.allclose(times, [0.0, 1 / 3.5, 2 / 3.5, 3 / 3.5])

    def test_errors(self):
        flat = TickSeries(times=np.array([0.0, 1.0]),
                          values=np.array([0.3, 0.4]))
        with pytest.raises(TreeError, match="never hits"):
            build_tree(flat, 1.0, 0.6)
        with pytest.raises(TreeError, match="fewer than 2"):
            build_tree(walk_series([0, 1]), 1.0, 0.0)

    def test_touch_counts_as_hit(self):
        # local maximum exactly on a lattice point
        s = walk_series([0.5, 1.0, 0.5, 0.0])
        t_hits, hits = lattice_events(s.times, s.values, 1.0, 0.0)
        assert hits.tolist() == [1, 0]

    def test_snapping_of_near_lattice_values(self):
        eps = 2.0 ** -45
        s = walk_series([0.0, 1.0 - eps, 0.0 + eps, 1.0])
        _, hits = lattice_events(s.times, s.values, 1.0, 0.0)
        assert hits.tolist() == [0, 1, 0, 1]


class TestSnapFarFromZero:
    """The rounding error of ``(value - origin) / delta`` grows with the
    magnitudes of the value and the origin, not with the line index, so a
    value on a line next to a far origin must still snap onto it."""

    def test_pip_prices_around_the_anchor(self):
        # prices written to the pip, lattice anchored on 106.96 as the
        # latticed policy does (a whole number of deltas)
        k = 10695 + np.array([0, 1, 0, -1, -2, -1, 0, 1, 2, 3, 2, 1, 0])
        prices = np.array([float(f"{p:.2f}") for p in k * 0.01])
        _, hits = lattice_events(np.arange(k.size, dtype=float), prices,
                                 0.01, 10696 * 0.01)
        assert hits.tolist() == [-1, 0, -1, -2, -3, -2, -1, 0, 1, 2, 1, 0, -1]

    @pytest.mark.parametrize("delta", [0.1, 0.037, 3.3e-7])
    def test_integer_walk_2_pow_40_units_out(self, delta):
        walk = np.array([0, 1, 0, -1, 0, 1, 2, 1, 0])
        k = 2**40 + 3
        _, hits = lattice_events(np.arange(walk.size, dtype=float),
                                 (k + walk) * delta, delta, k * delta)
        assert hits.tolist() == walk.tolist()


def _shifted_walks(check):
    """Run ``check(walk, k, delta, series, shift)`` on integer walks with
    steps in {-1, 0, +1} (flat segments and repeated touches), scaled by
    delta and shifted k lattice units out, |k| up to 2**40.  The walk may
    start on any line or half a unit off the first one, which moves its
    hit times by ``shift``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    far = st.sampled_from([2**30, 2**40, -(2**40)])

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(
        steps=st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=200),
        start=st.integers(-4, 4),
        k=st.one_of(far, st.integers(-(2**40), 2**40)),
        delta=st.sampled_from([1.0, 0.0625, 0.1, 0.037, 0.01, 3.3e-7]),
        lead=st.sampled_from([0.0, 0.5, -0.5]))
    def run(steps, start, k, delta, lead):
        walk = start + np.cumsum(np.r_[0, steps])
        units = (k + walk).astype(np.float64)
        if lead:  # a first point half a unit off the walk's first line
            units = np.r_[k + start + lead, units]
        series = TickSeries(times=np.arange(units.size, dtype=float),
                            values=units * delta)
        check(walk, k, delta, series, 1.0 if lead else 0.0)

    run()


def _assert_oracle_tree(t, ref, shift):
    assert t.max_level == len(ref) - 1
    for level, r in enumerate(ref):
        assert np.array_equal(t.hit_times[level], np.asarray(r["times"]) + shift)
        assert np.array_equal(t.hit_index[level] * 2**level, r["values"])
        if level >= 1:
            assert np.array_equal(t.counts[level], r["counts"])
            assert np.array_equal(t.excursions[level], r["excursions"])


def test_tree_matches_oracle_on_shifted_lattices():
    """Property: ``build_tree`` at the origin k * delta gives the oracle's
    tree of the walk at every level."""
    def check(walk, k, delta, series, shift):
        ref = brute_tree(walk)
        if not ref or len(ref[0]["times"]) < 3:
            with pytest.raises(TreeError):
                build_tree(series, delta, k * delta)
            return
        _assert_oracle_tree(build_tree(series, delta, k * delta),
                            ref, shift)

    _shifted_walks(check)


def test_single_scan_tree_matches_oracle_on_shifted_lattices():
    """Property: the latticed tree of ``tree_for_series``, built from the
    0-anchored scan's hits shifted by their median line m, has its origin
    at m * delta and is the oracle's tree of the walk on the lattice
    anchored at m, and the tree a second scan at that origin gives."""
    def check(walk, k, delta, series, shift):
        cfg = StudyConfig(delta=delta)
        lines = [v for _, v in brute_level_hits(k + walk, 1)]
        m = round(float(np.median(lines[1:]))) if len(lines) >= 2 else 0
        ref = brute_tree(k + walk - m) if len(lines) >= 2 else []
        if not ref or len(ref[0]["times"]) < 3:
            with pytest.raises(TreeError):
                tree_for_series(cfg, series, delta)
            return
        t = tree_for_series(cfg, series, delta)
        assert t.origin == build_tree(series, delta, None).origin == m * delta
        _assert_oracle_tree(t, ref, shift)
        _assert_same_tree(t, build_tree(series, delta, t.origin), ulps=0)

    _shifted_walks(check)


def _assert_same_tree(t, u, ulps, atol=0.0):
    assert (t.max_level, t.delta, t.origin) == (u.max_level, u.delta, u.origin)
    for level in range(t.max_level + 1):
        assert np.array_equal(t.hit_index[level], u.hit_index[level])
        assert np.array_equal(t.excursions[level], u.excursions[level])
        if level >= 1:
            assert np.array_equal(t.counts[level], u.counts[level])
            assert np.array_equal(t.prev_rank[level], u.prev_rank[level])
        a, b = t.hit_times[level], u.hit_times[level]
        assert np.all(np.abs(a - b)
                      <= ulps * np.spacing(np.maximum(abs(a), abs(b))) + atol)


def _chain(spec, delta, seed):
    values = simulate_crossings_batch(spec, delta, 3000, 1, [seed, 0])[0]
    return TickSeries(times=np.arange(values.size, dtype=float), values=values)


def _pip_log_prices():
    """Log prices of a +-1/0-pip walk from 1.1300 at exponential tick
    gaps, the shape of FX data: no value lies on the lattice."""
    rng = np.random.default_rng(41)
    pips = 11_300 + np.cumsum(rng.choice([-1, 0, 0, 1], 20_000))
    return log_transform(TickSeries(
        times=np.cumsum(rng.exponential(1.0, pips.size)), values=pips / 1e4))


SINGLE_SCAN_PATHS = {
    "ou": (lambda: _chain(ProcessSpec("ou", alpha=8.0, sigma=1.0), 0.063015, 31),
           0.063015),
    "feller": (lambda: _chain(ProcessSpec("feller", kappa=8.0, mu=0.2, sigma=1.0),
                              0.02833, 32), 0.02833),
    "fbm": (lambda: simulate_fbm_path(0.7, 1.0 / 250.0, 100_000, 1e-5,
                                      seed=[33, 0]), 0.0010176),
    "pip": (_pip_log_prices, None),  # delta from select_base_scale
}


@pytest.mark.parametrize("kind", sorted(SINGLE_SCAN_PATHS))
def test_single_scan_tree_equals_rescan(kind):
    """The latticed tree ``build_tree`` makes from one scan at 0 is the
    tree a second scan at its origin m * delta gives: the same lattice
    indices, counts and excursions at every level.  Hit times agree within
    4 ulps plus the scan's offset error: the scan divides ``values``
    rather than ``values - origin``.  Off the lattice, that moves a hit's
    fraction of its segment by a few ulps of |values / delta| (about 1,400
    on the pip series), so pip hit times may also differ by 4 such ulps of
    the longest segment's duration."""
    make, delta = SINGLE_SCAN_PATHS[kind]
    series = make()
    delta = delta or select_base_scale(series)
    t = build_tree(series, delta, None)
    rescan = build_tree(series, delta, t.origin)
    assert t.max_level >= 3
    atol = 0.0
    if kind == "pip":
        atol = (4 * np.finfo(float).eps * np.max(np.abs(series.values)) / delta
                * np.max(np.diff(series.times)))
    _assert_same_tree(t, rescan, ulps=4, atol=atol)


def _assert_levels_match_the_frozen_loop(t):
    """Every level above 0 of ``t`` against the frozen level loop run on
    its level-0 hits: the same arrays, dtypes included."""
    ref = reference_levels(t.hit_times[0], t.hit_index[0])
    assert t.max_level == len(ref[0]) - 1
    for mine, want in zip((t.hit_times, t.hit_index, t.prev_rank, t.counts,
                           t.excursions), ref):
        for level in range(1, t.max_level + 1):
            assert mine[level].dtype == want[level].dtype
            assert np.array_equal(mine[level], want[level])
    assert t.excursions[0].dtype == np.int8 and t.excursions[0].size == 0


def test_levels_match_the_frozen_loop_on_walks():
    """Property: on +-1/0 walks (flat segments, re-touches, starts off the
    lattice) at any origin, every coarser level is the frozen loop's."""
    def check(walk, k, delta, series, shift):
        for origin in (k * delta, None):
            try:
                t = build_tree(series, delta, origin)
            except TreeError:
                continue
            _assert_levels_match_the_frozen_loop(t)

    _shifted_walks(check)


@pytest.mark.parametrize("kind", sorted(SINGLE_SCAN_PATHS))
def test_levels_match_the_frozen_loop_on_paths(kind):
    """OU and Feller chains, an fBm path and pip log prices, at the
    latticed origin and at the first value."""
    make, delta = SINGLE_SCAN_PATHS[kind]
    series = make()
    delta = delta or select_base_scale(series)
    for origin in (None, float(series.values[0])):
        _assert_levels_match_the_frozen_loop(build_tree(series, delta, origin))


def test_levels_match_the_frozen_loop_on_bm_chains():
    spec = ProcessSpec("bm")
    for seed in range(5):
        _assert_levels_match_the_frozen_loop(
            build_tree(_chain(spec, 0.0632455532, seed), 0.0632455532))


def _segment(seg, j):
    return seg.values[seg.starts[j]:seg.starts[j] + seg.lengths[j]]


def _assert_batch_matches_each_walk(walks):
    """Every level ``build_levels`` yields for the walks' hits together,
    split back per walk, is the frozen loop's level of that walk alone
    (dtypes included) and the brute-force oracle's.  A walk is present at
    a level while its tree reaches it, in the order of the walks."""
    walks = [np.asarray(w, dtype=np.int64) for w in walks]
    refs = [reference_levels(np.arange(w.size, dtype=float), w) for w in walks]
    brute = [brute_tree(w) for w in walks]
    levels = list(build_levels(Segments.of(walks)))
    assert len(levels) == max(len(r[0]) - 1 for r in refs)
    present, starts = list(range(len(walks))), np.cumsum(
        [0] + [w.size for w in walks])
    for l, (rank, hit_index, counts, excursions) in enumerate(levels, start=1):
        now = [i for i in present if len(refs[i][0]) > l]
        assert len(counts) == len(excursions) == len(now)
        assert counts.values.dtype == np.int64
        assert excursions.values.dtype == np.int8
        hit_lengths = counts.lengths + 1
        k_starts = np.cumsum(hit_lengths) - hit_lengths
        assert hit_index.size == rank.size == hit_lengths.sum()
        for j, i in enumerate(now):
            _, k, ref_rank, z, exc = (x[l] for x in refs[i])
            hits = slice(k_starts[j], k_starts[j] + hit_lengths[j])
            for got, want in ((hit_index[hits], k),
                              (rank[hits] - starts[present.index(i)], ref_rank),
                              (_segment(counts, j), z),
                              (_segment(excursions, j), exc)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert _segment(counts, j).tolist() == brute[i][l]["counts"]
            assert _segment(excursions, j).tolist() == brute[i][l]["excursions"]
        present, starts = now, k_starts


def test_batched_levels_match_each_walk():
    """Property: on lists of +-1 walks of unequal length, from one
    crossing to a few hundred, every level of every walk is its own."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    walk = st.builds(lambda start, steps: start + np.cumsum(np.r_[0, steps]),
                     st.integers(-5, 5),
                     st.lists(st.sampled_from([-1, 1]), min_size=1,
                              max_size=300))

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(st.lists(walk, min_size=1, max_size=8))
    def run(walks):
        _assert_batch_matches_each_walk(walks)

    run()


def test_batched_levels_with_shallow_and_flat_trees():
    """Walks of one and two crossings (no level 1), a monotone walk (no
    excursions at any level), one that ends at level 1 and two that go
    deeper, in one batch."""
    rng = np.random.default_rng(7)
    deep = [np.cumsum(np.r_[3, rng.choice([-1, 1], n)]) for n in (400, 90)]
    walks = [[0, 1], deep[0], [1, 0, -1], np.arange(-3, 6), [0, 1, 0, 1, 2],
             [5, 4], deep[1], [2, 3, 2, 1, 0, 1, 2, 3, 4]]
    _assert_batch_matches_each_walk(walks)
    walks = [np.asarray(w, dtype=np.int64) for w in walks]
    depth = [len(brute_tree(w)) - 1 for w in walks]
    assert depth[:6] == [0, depth[1], 0, 2, 1, 0] and depth[1] >= 3
    levels = list(build_levels(Segments.of(walks)))
    assert [len(counts) for _, _, counts, _ in levels[:2]] == [5, 4]
    assert levels[0][3].lengths[1] == 0  # the monotone walk's excursions


@pytest.mark.parametrize("policy", ["zero", "first", "latticed"])
def test_chain_sites_equal_the_scan(policy):
    """A study takes a chain's hits from its values rounded to sites and
    shifted by the policy; they are the hits of the scan that
    ``build_tree`` makes on the lattice of that policy.  Short chains
    have medians halfway between two lines, which round half to even."""
    specs = {"bm": (ProcessSpec("bm"), 0.0632455532),
             "ou": (ProcessSpec("ou", alpha=10.0, sigma=1.0), 0.062945),
             "feller": (ProcessSpec("feller", kappa=8.0, mu=0.2, sigma=1.0),
                        0.02833)}
    for (spec, delta), n in itertools.product(specs.values(), (700, 10)):
        cfg = StudyConfig(process=spec, n_paths=4, n_crossings=n,
                          delta=delta, seed=5, delta0_policy=policy)
        hits = _study_hits(cfg)
        assert len(hits) == cfg.n_paths
        for i in range(cfg.n_paths):
            values = simulate_crossings_batch(spec, delta, n, 1, [cfg.seed, i])[0]
            series = TickSeries(times=np.arange(values.size, dtype=float),
                                values=values)
            hit_t, hit_k, _ = level0_hits(series, delta, _origin(cfg, series))
            assert np.array_equal(hit_t, series.times)
            got = _segment(hits, i)
            assert got.dtype == hit_k.dtype and np.array_equal(got, hit_k)


class TestLevelStats:
    def test_seven_point_level1(self):
        t = build_tree(SEVEN, 1.0, 0.0)
        st = level_stats(t, 1)
        assert st["n_z"] == 2 and st["n_v"] == 1
        assert st["mean_duration_prev_level"] == 1.0  # unit-time crossings

    def test_out_of_range(self):
        t = build_tree(SEVEN, 1.0, 0.0)
        with pytest.raises(TreeError):
            level_stats(t, t.max_level + 1)

    def test_mean_duration_arithmetic(self):
        # counts and a known span pin the temporal-scale column: n equal
        # crossings over total time T have mean duration T/n
        n, total = 320, 640.0
        vals = np.arange(n + 1) % 2
        s = TickSeries(times=np.linspace(0.0, total, n + 1), values=vals.astype(float))
        t = build_tree(s, 1.0, 0.0)
        st = level_stats(t, 1) if t.max_level >= 1 else None
        assert np.isclose(np.mean(t.durations(0)), total / n)


@pytest.fixture(scope="module")
def trees():
    rng = np.random.default_rng(99)
    out = []
    for _ in range(25):
        n = int(rng.integers(50, 400))
        vals = np.cumsum(np.r_[0, rng.choice([-1, 1], n)]).astype(float)
        s = walk_series(vals)
        out.append((vals, build_tree(s, 1.0, 0.0)))
    return out


class TestInvariants:

    def test_parity_and_floor(self, trees):
        for _, t in trees:
            for level in range(1, t.max_level + 1):
                z = t.counts[level]
                assert np.all(z >= 2) and np.all(z % 2 == 0)

    def test_counting_identity(self, trees):
        for _, t in trees:
            for level in range(1, t.max_level + 1):
                consumed = t.prev_rank[level][-1] - t.prev_rank[level][0]
                assert t.counts[level].sum() == consumed

    def test_nesting(self, trees):
        for _, t in trees:
            for level in range(1, t.max_level + 1):
                lo = t.hit_times[level][:-1]
                hi = t.hit_times[level][1:]
                prev = t.hit_times[level - 1]
                # every fine crossing ends inside exactly one coarse one or
                # in the discarded head/tail
                inside = (prev[1:][None, :] > lo[:, None]) & \
                         (prev[1:][None, :] <= hi[:, None])
                assert np.all(inside.sum(axis=0) <= 1)

    def test_excursion_grammar(self, trees):
        for _, t in trees:
            for level in range(1, t.max_level + 1):
                orient = np.sign(np.diff(t.hit_index[level - 1]))
                parents = t.prev_rank[level]
                parent_orient = np.sign(np.diff(t.hit_index[level]))
                for k in range(len(parents) - 1):
                    subs = orient[parents[k]: parents[k + 1]]
                    pairs = subs.reshape(-1, 2)
                    assert np.all(pairs[:-1, 0] != pairs[:-1, 1])
                    assert pairs[-1, 0] == pairs[-1, 1] == parent_orient[k]

    def test_lattice_start_values(self, trees):
        for _, t in trees:
            for level in range(t.max_level + 1):
                size = 2**level
                assert np.all(t.hit_index[level] * size % size == 0)

    def test_oracle_equivalence(self, trees):
        for vals, t in trees:
            ref = brute_tree(vals)
            assert t.max_level == len(ref) - 1
            for level, r in enumerate(ref):
                size = 2**level
                assert np.array_equal(t.hit_times[level],
                                      np.asarray(r["times"], dtype=float))
                assert np.array_equal(t.hit_index[level] * size,
                                      np.asarray(r["values"]))
                assert np.array_equal(t.orientations(level), r["orientations"])
                if level >= 1:
                    assert np.array_equal(t.counts[level], r["counts"])
                    assert np.array_equal(t.excursions[level], r["excursions"])

    def test_time_reparameterisation_invariance(self, trees):
        for vals, t in trees:
            warped_times = np.expm1(np.arange(vals.size) / vals.size * 3.0)
            s = TickSeries(times=warped_times, values=vals)
            t2 = build_tree(s, 1.0, 0.0)
            assert t2.max_level == t.max_level
            for level in range(1, t.max_level + 1):
                assert np.array_equal(t2.counts[level], t.counts[level])
                assert np.array_equal(t2.excursions[level], t.excursions[level])


def test_export_format(tmp_path):
    t = build_tree(SEVEN, 1.0, 0.0)
    files = export_tree(t, str(tmp_path))
    assert len(files) == t.max_level + 1
    lines = (tmp_path / "level_1.csv").read_text().strip().split("\n")
    assert lines[0] == "k,start_time,end_time,start_value,orientation,subcrossings"
    assert len(lines) == 1 + t.n_crossings(1)
    first = lines[1].split(",")
    assert first[0] == "1" and first[5] == "2"


def test_multiple_crossing_shares_on_jump_data():
    s = TickSeries(times=np.array([0.0, 1.0, 2.0]),
                   values=np.array([0.0, 3.5, 0.2]))
    t = build_tree(s, 1.0, 0.0)
    shares = multiple_crossing_shares(t, s)
    assert shares[0]["ge2_pct"] == 100.0  # every crossing shares a segment


def test_origin_shift_changes_lattice():
    t = build_tree(SEVEN, 1.0, 0.5)
    # lattice 0.5 + Z: init at 0.5, then first passages to 1.5, 2.5, 3.5
    # (the 2 -> 1 -> 2 excursion re-touches 1.5 without a new passage)
    assert t.n_crossings(0) == 3
    vals = t.origin + t.delta * t.hit_index[0][:-1]
    assert all(abs((v - 0.5) % 1.0) < 1e-12 for v in vals)


def _level_by_level_shares(tree, series):
    """The diagnostic with one segment lookup and one ``np.unique`` per
    level, to check the single lookup against."""
    out = []
    for level in range(tree.max_level + 1):
        end_times = tree.hit_times[level][1:]
        if end_times.size == 0:
            out.append({"level": level, "ge2_pct": 0.0, "ge4_pct": 0.0})
            continue
        seg = np.searchsorted(series.times, end_times, side="right") - 1
        _, inverse, per_seg = np.unique(seg, return_inverse=True,
                                        return_counts=True)
        crowd = per_seg[inverse]
        out.append({"level": level,
                    "ge2_pct": 100.0 * float(np.mean(crowd >= 2)),
                    "ge4_pct": 100.0 * float(np.mean(crowd >= 4))})
    return out


@pytest.mark.parametrize("kind", sorted(SINGLE_SCAN_PATHS))
def test_multiple_crossing_shares_equal_level_by_level(kind):
    make, delta = SINGLE_SCAN_PATHS[kind]
    series = make()
    delta = delta or select_base_scale(series)
    for size in (delta, 4.0 * delta):  # 4 delta: several hits per segment
        tree = build_tree(series, size, None)
        assert (multiple_crossing_shares(tree, series)
                == _level_by_level_shares(tree, series))


def test_multiple_crossing_shares_on_jumps_equal_level_by_level():
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.choice([-5.5, -1.0, 0.0, 0.5, 1.0, 3.25], 3000))
    series = TickSeries(times=np.cumsum(rng.exponential(1.0, values.size)),
                        values=values)
    tree = build_tree(series, 0.75, None)
    shares = multiple_crossing_shares(tree, series)
    assert shares == _level_by_level_shares(tree, series)
    assert shares[0]["ge4_pct"] > 0.0


def test_multiple_crossing_shares_when_a_hit_rounds_past_its_tick():
    """A hit at the end of the segment from -1 to 0.6 ulp(1) would be
    placed at -1 + fl(1 + 0.6 ulp(1)) = ulp(1), past the next tick at
    0.9 ulp(1), before the next segment's hits.  It is taken at its
    segment's end, so no duration is negative, the segments in which
    crossings end come in order, and they are grouped as ``np.unique``
    groups them."""
    times = np.array([-1.0, 0.6 * 2.0**-52, 0.9 * 2.0**-52, 1.0, 2.0, 3.0])
    series = TickSeries(times=times,
                        values=np.array([0.0, 1.0, 3.0, 0.5, 3.5, 0.2]))
    tree = build_tree(series, 1.0, 0.0)
    assert tree.hit_times[0][1] == times[1]
    for level in range(tree.max_level + 1):
        assert np.all(tree.durations(level) >= 0.0)
    where = np.searchsorted(times, tree.hit_times[0], side="right") - 1
    assert np.all(np.diff(where) >= 0)
    assert (multiple_crossing_shares(tree, series)
            == _level_by_level_shares(tree, series))


def test_hit_times_are_taken_no_later_than_their_segment_end():
    """Ticks at -1, 0.6 ulp(1) and 0.9 ulp(1) with values 0, 1 and 3: the
    hit on line 1 is the second tick itself, before the hits on lines 2
    and 3 of the next segment."""
    times = np.array([-1.0, 0.6 * 2.0**-52, 0.9 * 2.0**-52])
    hit_t, hit_k = lattice_events(times, np.array([0.0, 1.0, 3.0]), 1.0, 0.0)
    assert hit_k.tolist() == [0, 1, 2, 3]
    assert hit_t[:2].tolist() == times[:2].tolist()
    assert hit_t[3] == times[2]
    assert np.all(np.diff(hit_t) >= 0.0)


def test_hit_times_never_decrease():
    """Property: on tick times that cross 0 within a few ulps of 1, or sit
    far from it (so that ``t1 - t0`` rounds), with values on lines,
    between them and jumping over several, the hit times never decrease
    and stay within the ticks' span."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tick = st.one_of(st.sampled_from([-2.0, -1.0, 1.0, 3.0, -1e9, 1e9]),
                     st.floats(-4.0 * 2.0**-52, 4.0 * 2.0**-52),
                     st.floats(-10.0, 10.0),
                     st.floats(1e9 - 1.0, 1e9 + 1.0))

    @hypothesis.settings(max_examples=400)
    @hypothesis.given(
        ticks=st.lists(tick, min_size=2, max_size=40, unique=True),
        steps=st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0]),
                       min_size=39, max_size=39),
        delta=st.sampled_from([1.0, 0.1, 0.037]),
        origin=st.sampled_from([0.0, 0.05, -3.0]))
    def run(ticks, steps, delta, origin):
        times = np.unique(np.array(ticks) + 0.0)  # -0.0 and 0.0 are one
        if times.size < 2:
            return
        values = np.cumsum(np.r_[0.0, steps[:times.size - 1]]) * delta
        hit_t, _ = lattice_events(times, values, delta, origin)
        assert np.all(np.diff(hit_t) >= 0.0)
        assert np.all((hit_t >= times[0]) & (hit_t <= times[-1]))

    run()


def _same_events(times, values, delta, origin):
    got = lattice_events(times, values, delta, origin)
    want = reference_lattice_events(times, values, delta, origin)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


# crossing sizes from 1e-300 to 1e290: values from about 1e-300 to 1e302
EXTREME_DELTAS = [1.0, 0.0625, 0.1, 0.037, 3.3e-7, 1e-300, 2.5e290]


def test_lattice_events_on_lines_match_both_oracles():
    """Property: on +-1/0 walks (chains, flat segments, repeated touches)
    whose values lie on the lines of an origin up to 2**40 units out, or
    up to 8 ulps off them, the scan gives the brute-force oracle's hits
    and exactly the frozen vectorised scan's arrays."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(
        steps=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=150),
        start=st.integers(-4, 4),
        k=st.one_of(st.sampled_from([0, 2**30, 2**40, -(2**40)]),
                    st.integers(-(2**40), 2**40)),
        delta=st.sampled_from(EXTREME_DELTAS),
        ulps=st.lists(st.integers(-8, 8), min_size=151, max_size=151))
    def run(steps, start, k, delta, ulps):
        walk = start + np.cumsum(np.r_[0, steps])
        values = (k + walk).astype(np.float64) * delta
        values += np.asarray(ulps[:values.size]) * np.spacing(values)
        times = np.arange(values.size, dtype=np.float64)
        hit_t, hit_k = _same_events(times, values, delta, k * delta)
        want = brute_level_hits(walk, 1)
        assert hit_t.tolist() == [float(t) for t, _ in want]
        assert hit_k.tolist() == [v for _, v in want]

    run()


def test_lattice_events_match_the_frozen_scan():
    """Property: on any path (jumps over several lines, values on lines,
    within the snap tolerance of them or anywhere between, flat segments,
    uneven tick times, origins far out and crossing sizes from 1e-300 to
    1e290) the scan returns exactly the frozen vectorised scan's arrays."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    step = st.one_of(
        st.sampled_from([-1.0, 0.0, 1.0, -3.0, 7.0, 0.5]),
        st.floats(-7.5, 7.5, allow_nan=False),
        st.sampled_from([SNAP_TOL, -SNAP_TOL, 2 * SNAP_TOL, SNAP_MAX]))

    @hypothesis.settings(max_examples=400)
    @hypothesis.given(
        steps=st.lists(step, min_size=1, max_size=120),
        start=st.floats(-4.0, 4.0, allow_nan=False),
        k=st.one_of(st.sampled_from([0, 2**20, -(2**40)]),
                    st.integers(-(2**40), 2**40)),
        shift=st.sampled_from([0.0, 0.25, 1e-3, 0.5]),
        delta=st.sampled_from(EXTREME_DELTAS),
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=121, max_size=121),
        t_start=st.sampled_from([0.0, 1e9, -5.0]))
    def run(steps, start, k, shift, delta, gaps, t_start):
        units = start + np.cumsum(np.r_[0.0, steps])
        values = (k + units) * delta
        times = t_start + np.cumsum(np.r_[0.0, gaps[:values.size - 1]])
        _same_events(times, values, delta, (k + shift) * delta)

    run()


@pytest.mark.parametrize("kind", sorted(SINGLE_SCAN_PATHS))
def test_lattice_events_match_the_frozen_scan_on_paths(kind):
    """Chains (every value on a line), an fBm path and pip log prices at
    the origin 0 and at the latticed one."""
    make, delta = SINGLE_SCAN_PATHS[kind]
    series = make()
    delta = delta or select_base_scale(series)
    for origin in (0.0, build_tree(series, delta, None).origin,
                   float(series.values[0])):
        _same_events(series.times, series.values, delta, origin)
