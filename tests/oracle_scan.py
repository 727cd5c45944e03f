"""Frozen reference copy of the vectorised lattice scan.

``tree.lattice_events`` as it stood before its passes were fused: every
value takes the full snap test, crossings are counted from floor and
ceiling differences, and each hit is expanded with ``np.repeat``.  Hit
times are taken no later than their segment's end, as the scan takes
them.  The package's scan must return ``==`` arrays on every input.
"""

import numpy as np

from clmtree.tree import SNAP_MAX, SNAP_TOL, SNAP_ULPS, TreeError


def reference_lattice_events(times, values, delta, origin):
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if delta <= 0:
        raise TreeError("crossing size must be positive")
    u = (values - origin) / delta
    r = np.round(u)
    far = SNAP_ULPS * np.finfo(np.float64).eps * abs(origin) / delta
    cap = SNAP_MAX / SNAP_TOL
    snap = np.abs(u - r) <= SNAP_TOL * np.clip(np.abs(r), 1.0, cap) + far
    np.copyto(u, r, where=snap)
    fl, ce = np.floor(u), np.ceil(u)

    up = u[1:] > u[:-1]
    counts = np.where(up, fl[1:] - fl[:-1], ce[:-1] - ce[1:]).astype(np.int64)
    seg = np.flatnonzero(counts)
    counts, up, a = counts[seg], up[seg], u[seg]
    first = np.where(up, fl[seg] + 1.0, ce[seg] - 1.0)
    step = np.where(up, 1.0, -1.0)
    offsets = np.arange(int(counts.sum())) - np.repeat(
        np.cumsum(counts) - counts, counts)
    pos = np.repeat(first, counts) + np.repeat(step, counts) * offsets
    frac = (pos - np.repeat(a, counts)) / np.repeat(u[seg + 1] - a, counts)
    t0 = times[seg]
    t1 = times[seg + 1]
    hit_t = np.minimum(np.repeat(t0, counts)
                       + frac * np.repeat(t1 - t0, counts),
                       np.repeat(t1, counts))
    hit_k = np.round(pos).astype(np.int64)

    if u[0] == np.round(u[0]):  # path starts on the lattice
        hit_t = np.concatenate([[times[0]], hit_t])
        hit_k = np.concatenate([[np.int64(round(u[0]))], hit_k])

    if hit_k.size == 0:
        return hit_t, hit_k
    keep = np.concatenate([[True], hit_k[1:] != hit_k[:-1]])
    return hit_t[keep], hit_k[keep]
