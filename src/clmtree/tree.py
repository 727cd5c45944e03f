"""Crossing tree of a piecewise-linear path over nested lattices.

Level-l crossings are first passages of size ``delta * 2**l`` over the
lattice ``origin + delta * 2**l * Z``.  ``lattice_events`` walks the
interpolated path once, in blocks of ``SCAN_BLOCK`` segments, to
enumerate every level-0 lattice hit.  One segmented builder,
``build_levels``, derives each coarser level from the finer one by
subsampling and first-passage reduction, for many paths at once;
``build_tree`` is a batch of one.  Without an origin the lattice is
centred on the path's median crossing line m of that one scan: hits found
on ``delta * Z`` serve the origin ``m * delta`` once shifted by m.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .outcomes import Segments, spans
from .series import TickSeries

logger = logging.getLogger(__name__)

# Points this close to a lattice line snap onto it, so inputs that land
# exactly on lattice points are recognised despite float round-trip error:
# SNAP_TOL relative to the line index, but at most SNAP_MAX of a unit, so
# that a line index beyond 2**39 does not snap every half unit, plus
# SNAP_ULPS rounding units of the origin, which ``values - origin``
# inherits when the origin is far from 0.
SNAP_TOL = 2.0 ** -40
SNAP_MAX = 2.0 ** -8
SNAP_ULPS = 64

MAX_LEVELS = 62
SCAN_BLOCK = 2 ** 16  # segments per block of the scan and of base-scale choice


class TreeError(ValueError):
    pass


def lattice_events(times, values, delta: float, origin: float):
    """First-passage hit times and integer lattice indices of the path.

    Returns ``(hit_times, hit_index)`` where ``hit_index`` are integers k
    such that the path value at the hit is ``origin + k * delta``.  The
    first entry is the initialising hit; consecutive entries differ by
    exactly +-1.  A touch of a lattice line counts as a hit; hits inside a
    data segment are placed at the exact linear-interpolation times.

    The path is scanned in blocks of ``SCAN_BLOCK`` segments that share
    their boundary value, so temporaries stay a block long.  A block's
    first hit is dropped when it repeats the last hit line kept so far.
    A later block that starts on a line starts on the last hit line (the
    path reached that line at a hit), so its start hit is always dropped.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if delta <= 0:
        raise TreeError("crossing size must be positive")
    parts, last = [], None
    for s in range(0, max(values.size - 1, 1), SCAN_BLOCK):
        block = slice(s, s + SCAN_BLOCK + 1)
        hit_t, hit_k = _scan_block(times[block], values[block], delta, origin)
        if hit_k.size and hit_k[0] == last:
            hit_t, hit_k = hit_t[1:], hit_k[1:]
        if hit_k.size:
            last = hit_k[-1]
        parts.append((hit_t, hit_k))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _scan_block(times, values, delta: float, origin: float):
    """``lattice_events`` of a path short enough to scan at once."""
    u = np.subtract(values, origin)
    u /= delta
    far = SNAP_ULPS * np.finfo(np.float64).eps * abs(origin) / delta
    fl = np.round(u)  # the distance to the nearest line, then floor(u)
    np.subtract(u, fl, out=fl)
    np.abs(fl, out=fl)
    # Only values within SNAP_MAX + far of a line can snap, so only they
    # take the test; their distance is within the bound that the cap of
    # |r| at SNAP_MAX / SNAP_TOL sets, so the cap is left out.
    near = np.flatnonzero(fl <= SNAP_MAX + far)
    r = np.round(u[near])
    snap = fl[near] <= SNAP_TOL * np.maximum(np.abs(r), 1.0) + far
    u[near[snap]] = r[snap]
    np.floor(u, out=fl)

    # A segment from a to b holds the lines in (a, b] going up and in
    # [b, a) going down: floor(b) - floor(a) hits, moved by one where a
    # down segment starts or ends on a line.  Of the segments that keep
    # their floor, only a down one ending on a line holds a hit.
    seg = np.flatnonzero((fl[1:] != fl[:-1])
                         | ((u[1:] == fl[1:]) & (u[1:] < u[:-1])))
    nxt = seg + 1
    a, b, fa, fb = u[seg], u[nxt], fl[seg], fl[nxt]
    counts = fb - fa
    down = b < a
    counts += down & (a == fa)
    counts -= down & (b == fb)
    hit = np.flatnonzero(counts != 0)
    if hit.size < seg.size:
        seg, nxt, counts, a, b, fa = (x[hit] for x in (seg, nxt, counts, a, b, fa))
    up = counts > 0
    counts = np.abs(counts).astype(np.int64)
    pos = np.where(up, fa + 1.0, np.ceil(a) - 1.0)  # each segment's first hit
    span = b - a
    t0 = times[seg]
    dt = times[nxt] - t0
    hit_t = t0 + (pos - a) / span * dt
    # t0 + dt can round past the segment's end, so hits are capped there
    np.minimum(hit_t, times[nxt], out=hit_t)
    hit_k = pos.astype(np.int64)
    multi = np.flatnonzero(counts > 1)
    if multi.size:  # the further hits of segments that hold several
        extra = counts[multi] - 1
        parent = np.repeat(multi, extra)
        offsets = np.arange(1, extra.sum() + 1) - np.repeat(
            np.cumsum(extra) - extra, extra)
        pos = pos[parent] + np.where(up[parent], 1.0, -1.0) * offsets
        more_t = t0[parent] + (pos - a[parent]) / span[parent] * dt[parent]
        np.minimum(more_t, times[nxt[parent]], out=more_t)
        hit_t = np.insert(hit_t, parent + 1, more_t)
        hit_k = np.insert(hit_k, parent + 1, pos.astype(np.int64))

    if u[0] == np.round(u[0]):  # path starts on the lattice
        hit_t = np.concatenate([[times[0]], hit_t])
        hit_k = np.concatenate([[np.int64(round(u[0]))], hit_k])

    # A repeated touch of the current line is not a new passage.
    again = np.flatnonzero(hit_k[1:] == hit_k[:-1]) + 1
    if again.size:
        hit_t, hit_k = np.delete(hit_t, again), np.delete(hit_k, again)
    return hit_t, hit_k


@dataclass(frozen=True)
class CrossingTree:
    """Per-level first-passage decomposition of one path.

    ``counts[l]`` (l >= 1) holds the subcrossing counts of the complete
    level-l crossings, ``excursions[l]`` the pooled excursion indicators
    (0 = up-down, 1 = down-up) formed by the level-(l-1) subcrossing pairs
    inside complete level-l crossings; ``excursions[0]`` is always empty.
    Immutable and shareable once built.
    """

    delta: float
    origin: float
    hit_times: tuple  # per level: hit times, hit_times[l][0] initialises
    hit_index: tuple  # per level: integer positions in units of delta * 2**l
    prev_rank: tuple  # per level >=1: index of each hit within level l-1 hits
    counts: tuple  # per level >=1: subcrossing counts (None at level 0)
    excursions: tuple  # per level: pooled excursion bits
    max_level: int

    def n_crossings(self, level: int) -> int:
        self._check_level(level)
        return int(self.hit_index[level].size - 1)

    def orientations(self, level: int) -> np.ndarray:
        self._check_level(level)
        return np.diff(self.hit_index[level]).astype(np.int64)

    def durations(self, level: int) -> np.ndarray:
        self._check_level(level)
        return np.diff(self.hit_times[level])

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise TreeError(f"level {level} out of range [0, {self.max_level}]")


def level0_hits(series: TickSeries, delta: float, origin: float | None):
    """``(hit_times, hit_index, origin)`` of the level-0 lattice hits.

    ``origin=None`` centres the lattice on the series: the median line m
    of a scan anchored at 0, whose hits shifted by m serve the origin
    ``m * delta`` (their times up to rounding in the last bits).  A whole
    m keeps every level-0 crossing of exact-chain inputs, and a location
    tight to about one crossing size keeps the coarse levels' power
    against mean-reverting alternatives.
    """
    hit_t, hit_k = lattice_events(series.times, series.values, delta,
                                  0.0 if origin is None else origin)
    if hit_k.size == 0:
        raise TreeError("path never hits the lattice")
    if hit_k.size < 3:
        raise TreeError("fewer than 2 level-0 crossings")
    if origin is None:
        m = round(float(np.median(hit_k[1:])))
        hit_k, origin = hit_k - m, m * delta
    return hit_t, hit_k, origin


def build_levels(hits: Segments):
    """Level 1, 2, ... of many paths' trees, from each path's level-0 hit
    lines as one nonempty segment of ``hits``.  Yields per level each
    hit's index among the finer level's hits, the hit lines, and the
    subcrossing counts and excursion bits, one segment per tree that
    reaches the level.

    Hits move by +-1, so every other hit of a tree is on an even line.  A
    coarser hit is a tree's first even hit or an even hit off the line of
    the hit two before it; its coarser line is half its line.  Between two
    coarser hits the even hits lie on one line, so the finer pair ending
    at each other even hit is an excursion, down-up when its middle hit
    lies below.  A tree with fewer than 2 coarser hits ends.
    """
    k, starts = hits.values, hits.starts
    del hits  # a finer level is freed once the coarser one is built
    for _ in range(MAX_LEVELS):
        even = (k & 1) == 0
        coarse = even.copy()
        coarse[2:] &= k[2:] != k[:-2]
        stops = np.append(starts[1:], k.size)
        first = starts + (k[starts] & 1)  # each tree's first even hit
        coarse[first[first < stops]] = True
        rank = np.flatnonzero(coarse)
        begin = np.searchsorted(rank, starts)  # each tree's first coarser hit
        n = np.searchsorted(rank, stops) - begin
        deep = n >= 2
        if not deep.any():  # no complete crossing at the coarser level
            return
        has, last = n > 0, begin + n - 1
        tail = rank[last[has]] + 1  # the hits after a last coarser hit
        even ^= coarse
        even[spans(tail, stops[has] - tail)] = False
        end = np.flatnonzero(even)  # the hits that end an excursion pair
        bits = (k[end - 1] < k[end]).view(np.int8)
        lo, hi = rank[begin[deep]], rank[last[deep]]
        if lo.size < np.count_nonzero(has):  # trees that end at this level
            rank = np.delete(rank, begin[n == 1])
        n = n[deep]
        ends = np.cumsum(n)
        k, starts = k[rank] >> 1, ends - n
        del even, coarse, end  # not held while the caller reads the level
        counts = np.delete(rank[1:] - rank[:-1], ends[:-1] - 1)
        yield rank, k, Segments(counts, n - 1), Segments(bits, (hi - lo) // 2 - n + 1)


def build_tree(
    series: TickSeries, delta: float, origin: float | None = None
) -> CrossingTree:
    """Construct the crossing tree of the linearly interpolated series.

    Level-0 crossings start from the first hit of ``origin + delta * Z``
    (that hit initialises the position and is not itself a crossing);
    incomplete trailing crossings are discarded at every level.
    ``origin=None`` centres the lattice on the series (``level0_hits``);
    the coarser levels are ``build_levels``' of this one path.
    """
    hit_t, hit_k, origin = level0_hits(series, delta, origin)
    levels = [(hit_t, hit_k, None, None, np.zeros(0, dtype=np.int8))]
    for rank, k, z, exc in build_levels(Segments(hit_k, [hit_k.size])):
        levels.append((levels[-1][0][rank], k, rank, z.values, exc.values))
    t, k, rank, z, exc = map(tuple, zip(*levels))
    return CrossingTree(
        delta=float(delta), origin=float(origin), hit_times=t, hit_index=k,
        prev_rank=rank, counts=z, excursions=exc, max_level=len(levels) - 1)


def select_base_scale(series: TickSeries) -> float:
    """Median absolute increment; recovers the step size of lattice data.

    Even-length medians average the two central order statistics.  A zero
    median falls back to the smallest positive increment (with a warning);
    all-zero increments are an error.  The number of zero increments
    fixes the median whenever it reaches half of them, so no selection
    runs then.  Zeros and the smallest positive increment are counted in
    blocks of ``SCAN_BLOCK`` increments; only the median route forms them
    all at once.
    """
    n, zeros, low = len(series) - 1, 0, []
    for s in range(0, n, SCAN_BLOCK):
        inc = np.diff(series.values[s:s + SCAN_BLOCK + 1])
        np.abs(inc, out=inc)
        zeros += np.count_nonzero(inc == 0.0)
        # nonnegative doubles order as their bit patterns, and the pattern
        # of zero less one wraps round to the largest
        low.append((inc.view(np.uint64) - np.uint64(1)).min())
    if zeros == n:
        raise TreeError("all increments are zero; no crossing scale exists")
    half = n // 2  # the upper central order statistic
    if zeros < half:
        inc = series.increments()
        return float(np.median(np.abs(inc, out=inc)))
    smallest = float((min(low) + np.uint64(1)).view(np.float64))
    if zeros == half:  # the upper central statistic is the smallest positive
        return smallest if n % 2 else smallest / 2.0  # mean of 0 and it
    logger.warning(
        "median absolute increment is 0; using smallest positive %g", smallest
    )
    return smallest


def level_stats(tree: CrossingTree, level: int) -> dict:
    """Counts available to the tests at one level plus the temporal scale."""
    tree._check_level(level)
    out = {
        "level": level,
        "n_z": tree.counts[level].size if level >= 1 else None,
        "n_v": int(tree.excursions[level].size),
        "mean_duration_prev_level": None,
    }
    if level >= 1:
        out["mean_duration_prev_level"] = float(np.mean(tree.durations(level - 1)))
    return out


def multiple_crossing_shares(tree: CrossingTree, series: TickSeries) -> list[dict]:
    """Per level: share of crossings arising as >=2 / >=4 crossings inside a
    single data segment (the small-delta continuity diagnostic).

    The data segment of each level-0 hit is looked up once; a coarser
    hit is a finer one (``prev_rank``) and keeps its segment.  Hit times
    never decrease, so the segments in which a level's crossings end come
    in order and hold each segment's crossings in one run.
    """
    out = []
    where = np.searchsorted(series.times, tree.hit_times[0], side="right") - 1
    for level in range(tree.max_level + 1):
        if level:
            where = where[tree.prev_rank[level]]
        seg = where[1:]
        if seg.size == 0:
            out.append({"level": level, "ge2_pct": 0.0, "ge4_pct": 0.0})
            continue
        bounds = np.flatnonzero(seg[1:] != seg[:-1]) + 1
        runs = np.diff(bounds, prepend=0, append=seg.size)
        out.append(
            {
                "level": level,
                "ge2_pct": 100.0 * (int(runs[runs >= 2].sum()) / seg.size),
                "ge4_pct": 100.0 * (int(runs[runs >= 4].sum()) / seg.size),
            }
        )
    return out


def export_tree(tree: CrossingTree, out_dir: str) -> list[str]:
    """One CSV per level: k, start_time, end_time, start_value, orientation
    and (for levels >= 1) the subcrossing count."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for level in range(tree.max_level + 1):
        fname = os.path.join(out_dir, f"level_{level}.csv")
        with open(fname, "w", encoding="utf-8", newline="\n") as fh:
            cols = "k,start_time,end_time,start_value,orientation"
            fh.write(cols + (",subcrossings\n" if level >= 1 else "\n"))
            t = tree.hit_times[level].tolist()
            k = tree.hit_index[level].tolist()
            z = tree.counts[level].tolist() if level >= 1 else None
            size = tree.delta * (2.0 ** level)
            for i in range(len(k) - 1):
                row = (
                    f"{i + 1},{t[i]!r},{t[i + 1]!r},"
                    f"{tree.origin + float(k[i]) * size!r},{k[i + 1] - k[i]}"
                )
                fh.write(row + (f",{z[i]}\n" if level >= 1 else "\n"))
        written.append(fname)
    return written
