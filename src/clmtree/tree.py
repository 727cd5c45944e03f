"""Crossing tree of a piecewise-linear path over nested lattices.

Level-l crossings are first passages of size ``delta * 2**l`` over the
lattice ``origin + delta * 2**l * Z``.  ``build_tree`` walks the
interpolated path once to enumerate every level-0 lattice hit
(``lattice_events``), then derives each coarser level from the finer one
by subsampling and first-passage reduction.  Without an origin it centres
the lattice on the path's median crossing line m of that one scan:
hits found on ``delta * Z`` serve the origin ``m * delta`` once shifted
by m.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

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


class TreeError(ValueError):
    pass


def lattice_events(times, values, delta: float, origin: float):
    """First-passage hit times and integer lattice indices of the path.

    Returns ``(hit_times, hit_index)`` where ``hit_index`` are integers k
    such that the path value at the hit is ``origin + k * delta``.  The
    first entry is the initialising hit; consecutive entries differ by
    exactly +-1.  A touch of a lattice line counts as a hit; hits inside a
    data segment are placed at the exact linear-interpolation times.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if delta <= 0:
        raise TreeError("crossing size must be positive")
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
    hit_k = pos.astype(np.int64)
    multi = np.flatnonzero(counts > 1)
    if multi.size:  # the further hits of segments that hold several
        extra = counts[multi] - 1
        parent = np.repeat(multi, extra)
        offsets = np.arange(1, extra.sum() + 1) - np.repeat(
            np.cumsum(extra) - extra, extra)
        pos = pos[parent] + np.where(up[parent], 1.0, -1.0) * offsets
        more_t = t0[parent] + (pos - a[parent]) / span[parent] * dt[parent]
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


def build_tree(
    series: TickSeries, delta: float, origin: float | None = None
) -> CrossingTree:
    """Construct the crossing tree of the linearly interpolated series.

    Level-0 crossings start from the first hit of ``origin + delta * Z``
    (that hit initialises the position and is not itself a crossing);
    incomplete trailing crossings are discarded at every level.

    ``origin=None`` centres the lattice on the series: the median of the
    crossing values of a scan anchored at 0, snapped to the nearest
    multiple m of delta.  Snapping keeps every level-0 crossing of
    exact-chain inputs (a fractional offset would merge the chain's
    one-step excursions into single passages), and a location estimate
    tight to within about one crossing size is what preserves the power
    of the coarse levels against mean-reverting alternatives.  The tree
    is built from that scan's hits shifted by m; its hit times are those
    of a scan at ``m * delta`` up to rounding in the last bits.
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

    all_t = [hit_t]
    all_k = [hit_k]
    all_rank = [None]
    all_counts = [None]
    all_exc = [np.zeros(0, dtype=np.int8)]

    # Hits move by +-1, so every other hit is on an even line, starting
    # with the first or the second.  A coarser hit is an even hit whose
    # halved line differs from the even hit's before it (the first even
    # hit always is one).  Between two coarser hits the even hits lie on
    # the same line, so the finer pair starting at each even hit whose
    # successor is not a coarser hit is an excursion, down-up when its
    # second hit lies below its first.
    level = 0
    while level < MAX_LEVELS:
        prev_t, prev_k = all_t[level], all_k[level]
        parity = int(prev_k[0]) & 1
        half = prev_k[parity::2] >> 1
        keep = np.empty(half.size, dtype=bool)
        keep[:1] = True
        np.not_equal(half[1:], half[:-1], out=keep[1:])
        sel = np.flatnonzero(keep)
        if sel.size < 2:  # no complete crossing at the coarser level
            break
        level += 1
        rank = 2 * sel + parity
        all_t.append(prev_t[rank])
        all_k.append(half[sel])
        all_rank.append(rank)
        all_counts.append(rank[1:] - rank[:-1])
        start = 2 * np.flatnonzero(~keep[1:sel[-1] + 1]) + parity
        all_exc.append((prev_k[start + 1] < prev_k[start]).view(np.int8))

    return CrossingTree(
        delta=float(delta),
        origin=float(origin),
        hit_times=tuple(all_t),
        hit_index=tuple(all_k),
        prev_rank=tuple(all_rank),
        counts=tuple(all_counts),
        excursions=tuple(all_exc),
        max_level=level,
    )


def select_base_scale(series: TickSeries) -> float:
    """Median absolute increment; recovers the step size of lattice data.

    Even-length medians average the two central order statistics.  A zero
    median falls back to the smallest positive increment (with a warning);
    all-zero increments are an error.  The number of zero increments
    fixes the median whenever it reaches half of them, so no selection
    runs then.
    """
    inc = np.abs(series.increments())
    zeros = np.count_nonzero(inc == 0.0)
    if zeros == inc.size:
        raise TreeError("all increments are zero; no crossing scale exists")
    half = inc.size // 2  # the upper central order statistic
    if zeros < half:
        return float(np.median(inc))
    # nonnegative doubles order as their bit patterns, and the pattern of
    # zero less one wraps round to the largest
    bits = inc.view(np.uint64) - np.uint64(1)
    smallest = float((bits.min() + np.uint64(1)).view(np.float64))
    if zeros == half:  # the upper central statistic is the smallest positive
        return smallest if inc.size % 2 else smallest / 2.0  # mean of 0 and it
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
    hit is a finer one (``prev_rank``) and keeps its segment.  Sorted,
    the segments in which a level's crossings end hold each segment's
    crossings in one run.  They come in order unless a hit time rounds
    past the next tick, and a stable sort of a sorted array is one pass.
    """
    out = []
    where = np.searchsorted(series.times, tree.hit_times[0], side="right") - 1
    for level in range(tree.max_level + 1):
        if level:
            where = where[tree.prev_rank[level]]
        seg = np.sort(where[1:], kind="stable")
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
