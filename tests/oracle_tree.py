"""Brute-force crossing-tree scanner for integer-lattice walk paths.

Deliberately naive and independent of the package's vectorised builder:
walks the path point by point per level, tracking the last first-passage
value directly from the definitions.
"""

import numpy as np


def brute_level_hits(values, size):
    """(time_index, value) of every first passage over the lattice of the
    given spacing, starting from the first lattice visit."""
    hits = []
    pos = None
    for t, x in enumerate(values):
        if pos is None:
            if x % size == 0:
                pos = x
                hits.append((t, x))
        elif abs(x - pos) == size:
            pos = x
            hits.append((t, x))
    return hits


def brute_tree(values):
    """All levels of the crossing tree of an integer +-1 walk.

    Returns a list of per-level dicts with hit times/values, orientations,
    subcrossing counts and pooled excursion bits (parent-level indexing:
    excursions at level l pair the level-(l-1) subcrossings).
    """
    values = [int(v) for v in values]
    levels = []
    size = 1
    while True:
        hits = brute_level_hits(values, size)
        if len(hits) < 2:
            break
        levels.append(hits)
        size *= 2

    out = []
    for l, hits in enumerate(levels):
        times = [t for t, _ in hits]
        vals = [v for _, v in hits]
        orient = [int(np.sign(b - a)) for a, b in zip(vals, vals[1:])]
        counts = None
        excursions = []
        if l >= 1:
            prev_times = [t for t, _ in levels[l - 1]]
            prev_vals = [v for _, v in levels[l - 1]]
            prev_orient = [int(np.sign(b - a))
                           for a, b in zip(prev_vals, prev_vals[1:])]
            counts = []
            for k in range(1, len(hits)):
                t_lo, t_hi = times[k - 1], times[k]
                inside = [j for j in range(1, len(prev_times))
                          if t_lo < prev_times[j] <= t_hi]
                counts.append(len(inside))
                subs = [prev_orient[j - 1] for j in inside]
                assert len(subs) % 2 == 0 and len(subs) >= 2
                for a, b in zip(subs[:-2:2], subs[1:-1:2]):
                    assert a != b, "non-final pair must be an excursion"
                    excursions.append(1 if a < 0 else 0)
                assert subs[-2] == subs[-1] == orient[k - 1], \
                    "final pair must be direct with the parent orientation"
        out.append({
            "times": times,
            "values": vals,
            "orientations": orient,
            "counts": counts,
            "excursions": excursions,
        })
    return out


def reference_levels(hit_t, hit_k, max_levels=62):
    """Frozen reference copy of ``build_tree``'s level loop as it stood
    before the excursion pairs were read off the even hits: the coarser
    levels of the level-0 hits, as (hit_times, hit_index, prev_rank,
    counts, excursions) lists with level 0 first."""
    all_t = [hit_t]
    all_k = [hit_k]
    all_rank = [None]
    all_counts = [None]
    all_exc = [np.zeros(0, dtype=np.int8)]

    level = 0
    while level < max_levels:
        prev_t, prev_k = all_t[level], all_k[level]
        even = np.flatnonzero(prev_k % 2 == 0)
        if even.size == 0:
            break
        k_sel = prev_k[even] // 2
        keep = np.concatenate([[True], k_sel[1:] != k_sel[:-1]])
        rank = even[keep]
        k_new = k_sel[keep]
        if k_new.size < 2:
            break
        level += 1
        all_t.append(prev_t[rank])
        all_k.append(k_new)
        all_rank.append(rank)
        z = np.diff(rank)
        all_counts.append(z)
        all_exc.append(reference_excursion_bits(prev_k, rank, z))
    return all_t, all_k, all_rank, all_counts, all_exc


def reference_excursion_bits(prev_k, rank, z):
    """Pooled excursion indicators from the subcrossing orientation pairs."""
    orient = np.sign(np.diff(prev_k)).astype(np.int8)
    n_exc = (z - 2) // 2
    total = int(n_exc.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int8)
    parent = np.repeat(np.arange(n_exc.size), n_exc)
    within = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(n_exc)[:-1]]), n_exc
    )
    first_idx = rank[:-1][parent] + 2 * within
    return (orient[first_idx] < 0).astype(np.int8)
