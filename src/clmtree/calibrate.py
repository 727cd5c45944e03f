"""Crossing-scale calibration: choose delta so a process averages a target
number of level-0 crossings per time window."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .simulate import (
    ProcessSpec,
    _gamma_shape_scale,
    _grid_block,
    _stationary_law,
    _walk_table,
    expected_crossing_time,
    hitting_prob,  # unused here; bench/tracing.py patches this name
    mean_crossing_times,
)

logger = logging.getLogger(__name__)

# stopping pairs of the crossing-scale secant: |log(mean window / target)|
# accepted, and the width on log(delta) of the bracket or of the next step
MC_WINDOW_REL_TOL = 1e-4  # Monte Carlo windows, per step size
MC_DELTA_REL_TOL = 1e-6
EXACT_WINDOW_REL_TOL = 1e-15  # exact windows: a few ulps above rounding
EXACT_DELTA_REL_TOL = 1e-15
SECANT_STEPS = 30  # window evaluations per solve beyond the first
MC_MAX_WINDOW_FACTOR = 20.0  # hard cap on simulated time, in units of t0
WINDOW_BLOCK_VALUES = 100_000  # grid values per simulated block
TOUCH_EXPONENT_MAX = 30.0  # bridge touch probabilities below e**-30 drop
# the upper-touch filter of _bridge_touches: its slack on the exponent, and
# the floor on q_lo below which a step always takes the exact arithmetic
TOUCH_BOUND_MARGIN = 1e-6
TOUCH_Q_LO_MIN = 1e-6


@dataclass(frozen=True)
class CalibrationResult:
    kind: str
    n_crossings: int
    t0: float
    delta: float
    params: dict = field(default_factory=dict)
    deltas_by_step: dict | None = None  # step exponent m -> delta_m
    fit_intercept: float | None = None
    fit_slope: float | None = None
    fit_rms: float | None = None
    achieved_mean_window: float | None = None
    achieved_ci_half: float | None = None
    warnings: tuple = ()


def _solve_log_window(mean_window, target, guess, window_tol, delta_tol,
                      gain=2.0):
    """The crossing size delta at which the mean window matches ``target``.

    ``mean_window(delta)`` returns a tuple whose first entry is the mean
    window, increasing in delta.  A secant runs on f = log(window /
    target) against x = log(delta) from ``guess``, with the slope ``gain``
    = df/dx (about 2, since a window grows like delta**2) re-estimated by
    each step and clamped to [1, 4].  The signs of f bracket the root, and
    a step that leaves the bracket bisects it instead: a Monte Carlo
    window is a noisy staircase in delta.  The solve stops when the best
    |f| is within ``window_tol``, or the bracket or the next step is
    within ``delta_tol`` on x.  Returns (delta, mean_window(delta), gain)
    at the best point, with the last slope for a caller that solves a
    nearby equation next.
    """
    lo, hi = -math.inf, math.inf  # log-delta bracket of the root
    x = math.log(guess)
    out = mean_window(guess)
    f = math.log(out[0] / target)
    best = (abs(f), x, *out)
    for _ in range(SECANT_STEPS):
        if f < 0.0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
        if best[0] <= window_tol or min(hi - lo, abs(f) / gain) <= delta_tol:
            return math.exp(best[1]), best[2:], gain
        x_new = x - f / gain
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        out = mean_window(math.exp(x_new))
        f_new = math.log(out[0] / target)
        if f_new != f:
            gain = min(max((f_new - f) / (x_new - x), 1.0), 4.0)
        x, f = x_new, f_new
        best = min(best, (abs(f), x, *out))
    raise RuntimeError(f"no crossing scale within {SECANT_STEPS} secant "
                       f"steps: delta {math.exp(x)!r} gives log(window / "
                       f"target) {f!r}")


def mean_crossing_duration(spec: ProcessSpec, delta: float) -> float:
    """Exact mean crossing duration: from 0 for BM and drift, and averaged
    over the stationary law of the crossing walk for OU."""
    if spec.kind != "ou":
        return expected_crossing_time(spec, 0.0, delta)
    lo, p_up = _walk_table(spec, delta)
    sites = (lo + np.arange(p_up.size)) * delta
    return float(np.dot(_stationary_law(p_up),
                        mean_crossing_times(spec, sites, delta)))


def _check_target(n_crossings: int, t0: float) -> None:
    if n_crossings < 1 or not (math.isfinite(t0) and t0 > 0):
        raise ValueError("need n_crossings >= 1 and a finite, positive t0, "
                         f"got {n_crossings} and {t0!r}")


def delta_exact(spec: ProcessSpec, n_crossings: int, t0: float) -> float:
    """delta at which the exact mean crossing duration is t0/n: sqrt(t0/n)
    for BM, and for drift and OU the root of ``mean_crossing_duration`` by
    ``_solve_log_window`` to the exact tolerances.  Feller takes
    ``delta_mc``."""
    if spec.kind not in ("bm", "bm_drift", "ou"):
        raise ValueError(f"no exact calibration for {spec.kind!r}")
    _check_target(n_crossings, t0)
    target = t0 / n_crossings
    if spec.alpha == 0.0:  # BM, or drift 0
        return math.sqrt(target)
    return _solve_log_window(
        lambda d: (mean_crossing_duration(spec, d),), target,
        _delta_scale_guess(spec, n_crossings, t0),
        EXACT_WINDOW_REL_TOL, EXACT_DELTA_REL_TOL)[0]


def delta_ou(alpha: float, sigma: float, n_crossings: int, t0: float) -> float:
    """``delta_exact`` for OU(alpha, sigma)."""
    return delta_exact(ProcessSpec("ou", alpha=alpha, sigma=sigma),
                       n_crossings, t0)


# ---------------------------------------------------------------------------
# Monte Carlo calibration on simulated fine paths
# ---------------------------------------------------------------------------

def _brownian_increments(rngs, n_roots, n_cols, root_step, out=None):
    """Brownian increments over ``n_roots`` root steps, refined by decades,
    written into ``out`` (a new array if None) and returned.

    ``rngs[0]`` draws the root increments; each further generator splits
    every increment of the decade above into ten with their conditional
    law given the sum.  Grids that share the seed and the root step thus
    sample the same Brownian path at every resolution.  Each decade is
    formed in place as (g / 10 + z) - mean(z), the order of the whole-array
    expression, so every value keeps its bits; the last one is formed in
    ``out``, whose row axis splits into tens as a view at any column
    stride.
    """
    g = rngs[0].standard_normal((n_roots, n_cols))
    if len(rngs) == 1:
        return np.multiply(g, math.sqrt(root_step), out=out)
    g *= math.sqrt(root_step)
    h = root_step
    for rng in rngs[1:]:
        h /= 10.0
        z = rng.standard_normal((g.shape[0], 10, n_cols))
        z *= math.sqrt(h)
        last = rng is rngs[-1] and out is not None
        nxt = out.reshape(z.shape) if last else np.empty_like(z)
        np.divide(g[:, None, :], 10.0, out=nxt)
        nxt += z
        nxt -= z.mean(axis=1)[:, None, :]
        g = nxt.reshape(-1, n_cols)
    return g if out is None else out


def _exp_neg(q):
    """exp(-q) for q >= 0, flushed to ~1e-304 instead of subnormal values,
    which numpy evaluates a hundred times slower."""
    return np.exp(-np.minimum(q, 700.0))


def _bridge_exponents(spec, a, b, ca, cb, step, delta, out):
    """The touch exponents of the bridges from ``a`` to ``b`` (flat arrays,
    in cells ``ca`` and ``cb``), into the rows of ``out``, which it returns:
    the line below both ends, the line above, q_lo, q_hi, a scratch row,
    and 2 / v."""
    lo_line, hi_line, q_lo, q_hi, tmp, two_over_var = out
    if spec.kind == "feller":
        np.divide(2.0 / (spec.sigma**2 * step), a, out=two_over_var)
    else:  # sigma is 1 for BM and drift
        two_over_var.fill(2.0 / (spec.sigma**2 * step))
    np.minimum(ca, cb, out=lo_line)
    lo_line *= delta
    np.maximum(ca, cb, out=hi_line)
    hi_line += 1.0
    hi_line *= delta
    np.subtract(a, lo_line, out=q_lo)
    np.subtract(b, lo_line, out=tmp)
    q_lo *= tmp
    q_lo *= two_over_var
    np.subtract(hi_line, a, out=q_hi)
    np.subtract(hi_line, b, out=tmp)
    q_hi *= tmp
    q_hi *= two_over_var
    if spec.kind == "feller":
        q_lo[lo_line <= 0.0] = np.inf
    return out


def _bridge_touches(spec, prev, nxt, c_prev, c_nxt, e_lo, e_hi, step, delta,
                    work):
    """Whether the Brownian bridge between consecutive grid values touches
    the nearest lattice line below both ends (lo) and above both (hi).

    A bridge from a to b with variance v touches the line l below both
    ends with probability exp(-q_lo), q_lo = 2 (a - l)(b - l) / v, and the
    line above likewise.  It touches both with the leading image terms of
    the two-sided exit law; the maximum and minimum of a bridge are
    negatively associated, so that probability never exceeds
    exp(-q_lo - q_hi).  The exponential variate ``e_lo`` decides the lower
    touch (q_lo < e_lo) and ``e_hi`` the upper touch given the lower one,
    so the joint law is kept.  Probabilities below
    exp(-TOUCH_EXPONENT_MAX) are dropped: there the lower touch does not
    happen and the upper one is decided by its marginal alone.  v is
    sigma**2 * x * step for Feller (x at the step start; line 0 is never
    touched) and sigma**2 * step otherwise.

    The exact arithmetic runs only where it can decide an upper touch.  A
    step near the lower line (q_lo < TOUCH_EXPONENT_MAX) touches above if
    exp(-e_hi) < r, with r = p_both / p_lo after a lower touch and r =
    (p_hi - p_both) / (1 - p_lo) otherwise, where p = exp(-q), p_hi is
    floored at exp(-700) and p_both is clipped to [0, min(p_lo, p_hi)].
    So r <= p_hi / p_lo after a lower touch, and r <= p_hi / (1 - p_lo) <=
    p_hi (1 + 1 / q_lo) otherwise.  An upper touch thus needs e_hi + d >
    min(q_hi, 700), with d = q_lo after a lower touch (and q_lo <
    min(e_lo, TOUCH_EXPONENT_MAX) there) and d = log(1 + 1 / q_lo) < 1 /
    q_lo otherwise.  The filter takes d = max(min(e_lo,
    TOUCH_EXPONENT_MAX), 1 / max(q_lo, TOUCH_Q_LO_MIN)), which covers both
    cases, plus TOUCH_BOUND_MARGIN; only the near steps that pass it take
    the exact arithmetic.  The others keep hi = q_hi < e_hi, which is
    False for them since d >= 0.  No decision moves: the rounding of the
    exponentials, quotients and sums is a few ulps of 700, about 1e-13, far
    below the margin, and without a lower touch 1 / q_lo also exceeds
    log(1 + 1 / q_lo) by more than 5e-4.  The floor on q_lo keeps d finite:
    a step that ends on or just beside the lower line, where 1 - p_lo loses
    its relative accuracy, gets d >= 1 / TOUCH_Q_LO_MIN and always takes
    the exact arithmetic.

    The inputs may have any shape and memory layout; lo and hi come back
    C-ordered in the shape of ``prev``.  The per-step intermediates go
    into ``work``, a scratch array of at least (6, prev.size) that a pass
    reuses for every block.
    """
    shape = prev.shape
    a, b, ca, cb, el, eh = map(np.ravel, (prev, nxt, c_prev, c_nxt, e_lo,
                                          e_hi))
    # the lines and 2 / v are recomputed for the few steps that need them,
    # so their rows are free once the exponents are formed
    _, _, q_lo, q_hi, tmp, d = _bridge_exponents(spec, a, b, ca, cb, step,
                                                 delta, work[:, :a.size])
    hi = q_hi < eh  # the far steps' decision, and False where filtered
    np.minimum(el, TOUCH_EXPONENT_MAX, out=tmp)
    lo = q_lo < tmp  # only near steps touch below
    np.maximum(q_lo, TOUCH_Q_LO_MIN, out=d)
    np.divide(1.0, d, out=d)
    np.maximum(d, tmp, out=d)
    d += eh
    d += TOUCH_BOUND_MARGIN
    np.minimum(q_hi, 700.0, out=q_hi)  # p_hi's floor, so p_hi keeps its bits
    cand = np.flatnonzero(q_hi < d)
    cand = cand[q_lo[cand] < TOUCH_EXPONENT_MAX]
    if cand.size:
        q_lo_n, q_hi_n = q_lo[cand], q_hi[cand]
        p_lo, p_hi = np.exp(-q_lo_n), _exp_neg(q_hi_n)
        p_both = np.zeros(cand.size)
        both = np.flatnonzero(q_lo_n + q_hi_n < TOUCH_EXPONENT_MAX)
        if both.size:
            idx = cand[both]
            a_b, b_b = a[idx], b[idx]
            l, u, _, _, _, s = _bridge_exponents(
                spec, a_b, b_b, ca[idx], cb[idx], step, delta,
                np.empty((6, idx.size)))
            w = u - l
            p_both[both] = np.clip(
                _exp_neg(s * w * (w - (b_b - a_b)))
                + _exp_neg(s * w * (w + (b_b - a_b)))
                - _exp_neg(s * (a_b - l + w) * (b_b - l + w))
                - _exp_neg(s * (u - a_b + w) * (u - b_b + w)),
                0.0, np.minimum(p_lo[both], p_hi[both]))
        lo_n = lo[cand]
        with np.errstate(divide="ignore", invalid="ignore"):
            hi[cand] = np.exp(-eh[cand]) < np.where(
                lo_n, p_both / p_lo, (p_hi - p_both) / (1.0 - p_lo))
    return lo.reshape(shape), hi.reshape(shape)


def _count_touches(cols, prev, nxt, c_prev, c_nxt, lo, hi, t_block, step,
                   delta, need, events, pos, t_first, t_done):
    """Carry the open windows ``cols`` through one block of steps from time
    ``t_block``: the grid values ``prev`` to ``nxt`` in cells ``c_prev`` to
    ``c_nxt``, with the bridge touches ``lo`` and ``hi``, one column per
    open window.

    The steps that touch a line are taken path by path in time order.  Each
    passes a run of consecutive lines, and a re-touch of the line hit last
    (``pos``) is not a new passage.  ``events`` counts the passages; the
    time of event 1 goes into ``t_first`` and that of event ``need`` into
    ``t_done``.  The per-touch arrays are local, so they are freed before
    the pass draws its next block.
    """
    col, k = np.nonzero(((c_prev != c_nxt) | lo | hi).T)
    if col.size == 0:
        return
    flat = k * cols.size + col
    a, b = prev.ravel()[flat], nxt.ravel()[flat]
    ca, cb = c_prev.ravel()[flat], c_nxt.ravel()[flat]
    lo_k, hi_k = lo.ravel()[flat], hi.ravel()[flat]
    path = cols[col]
    rising = b >= a
    first = np.where(rising, ca + 1 - lo_k, ca + hi_k)
    last = np.where(rising, cb + hi_k, cb + 1 - lo_k)
    count = (np.abs(cb - ca) + lo_k + hi_k).astype(np.int64)
    run_start = np.r_[True, path[1:] != path[:-1]]
    pos_before = np.where(run_start, pos[path], np.r_[0, last[:-1]])
    new = count - (first == pos_before)
    csum = np.cumsum(new)
    starts = np.flatnonzero(run_start)
    base = (csum - new)[starts][np.cumsum(run_start) - 1]
    events_before = events[path]
    cum = events_before + csum - base

    for target, times in ((1, t_first), (need, t_done)):
        hit = np.flatnonzero((events_before < target) & (cum >= target))
        hit = hit[np.unique(path[hit], return_index=True)[1]]
        # the target's place among the lines of its step, travel order
        rank = target - cum[hit] + count[hit] - 1
        line = np.where(rising[hit], first[hit] + rank,
                        first[hit] - rank) * delta
        span = b[hit] - a[hit]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(span != 0.0, (line - a[hit]) / span, 0.5)
        times[path[hit]] = t_block + (k[hit] + np.clip(frac, 0.0, 1.0)) \
            * step
    ends = np.r_[starts[1:] - 1, path.size - 1]
    events[path[ends]] = cum[ends]
    pos[path[ends]] = last[ends]


def _mean_window_for_n_crossings(
    spec: ProcessSpec, delta: float, step: float, n_paths: int, seed: int,
    n_crossings: int, t_max: float, root_step: float | None = None,
) -> tuple[float, float]:
    """Mean time from the first lattice hit to the n-th crossing after it,
    under continuous monitoring.

    Paths start from the stationary law (Gamma for Feller, Gaussian for
    OU, 0 for BM) and move on a grid of the given step through
    ``simulate._grid_block`` (Milstein for Feller, exact Gaussian
    transitions otherwise).  Between grid points
    the path is a Brownian bridge, and the lines it touches and leaves
    there (``_bridge_touches``) count as crossings (Broadie, Glasserman &
    Kou 1997; Glasserman 2004, section 6.4), so the estimate carries no
    discrete-monitoring bias to first order.  Within a step the lines are
    passed in order: a rising step visits its lower touch first and its
    upper touch last, a falling step the reverse; hit times are
    interpolated linearly and clipped to the step.

    The Brownian increments refine those of ``root_step`` (default: the
    step itself) by decades, so calls with the same seed and root step
    but finer steps follow the same Brownian paths, starts included; only
    the bridge touches are drawn afresh per step size.  Feller paths come in
    antithetic pairs: Brownian increments g and -g with the lower and
    upper bridge variates swapped, and Gamma starts from U and 1 - U, so
    ``n_paths`` must be even and the standard error is taken from the
    pair means.  (Pairing gains nothing for BM and OU, whose partner is
    the mirror image with the same window, so their paths are
    independent.)  Every window runs to completion: a window still open
    at time ``t_max``, or ending after it, raises RuntimeError instead of
    being truncated.  The grid is simulated in blocks of steps, into one
    buffer whose first row carries the last values of the block before,
    and a block's increments and bridge variates are drawn into buffers
    that the pass reuses, so memory stays bounded.  Every path is drawn for and stepped through
    each block, so the random streams do not depend on when windows end;
    but finished paths are no longer counted: only the open windows go
    through the bridge touches and the count, and crossings are counted
    only on the steps that touch a line.  Returns (mean, se).
    """
    if not spec.is_diffusion:
        raise ValueError(f"no grid-path sampler for {spec.kind!r}")
    if n_paths < 2 or (spec.kind == "feller" and n_paths % 2):
        raise ValueError("need n_paths >= 2, and even for feller (antithetic "
                         "pairs)")
    root_step = step if root_step is None else root_step
    decades = round(math.log10(root_step / step))
    if decades < 0 or not math.isclose(root_step, step * 10**decades):
        raise ValueError("root_step must be step times a power of 10")
    antithetic = spec.kind == "feller"
    n_draw = n_paths // 2 if antithetic else n_paths
    start_rng = np.random.default_rng([seed, 0])
    gauss_rngs = [np.random.default_rng([seed, 1, j])
                  for j in range(decades + 1)]
    bridge_rng = np.random.default_rng([seed, 2, decades])
    redraw_rng = np.random.default_rng([seed, 3, decades])
    roots = max(1, WINDOW_BLOCK_VALUES // (n_paths * 10**decades))
    block = roots * 10**decades
    grid = np.empty((block + 1, n_paths))  # row 0: the block before's last
    cells = np.empty((block + 1, n_paths))  # floor(grid / delta)
    work = np.empty((6, block * n_paths))  # _bridge_touches' scratch
    gauss = np.empty((block, n_paths))  # increments, then the partners' -g
    e = np.empty((block, 2 * n_draw))  # bridge variates, lower then upper
    if spec.kind == "feller":
        a, b = _gamma_shape_scale(spec)
        u0 = start_rng.random(n_draw)
        grid[0] = special.gammaincinv(a, np.concatenate([u0, 1.0 - u0])) * b
    elif spec.kind == "ou":
        grid[0] = start_rng.standard_normal(n_paths) * spec.sigma \
            / math.sqrt(2 * spec.alpha)
    else:
        grid[0] = 0.0
    np.floor(grid[0] / delta, out=cells[0])

    events = np.zeros(n_paths, dtype=np.int64)  # first-passage hits so far
    pos = np.full(n_paths, -np.inf)  # index of the line hit last
    t_first = np.full(n_paths, np.nan)
    t_done = np.full(n_paths, np.nan)
    need = n_crossings + 1  # event 1 initialises; event `need` is crossing n
    t_start = 0.0
    while t_start < t_max:
        cols = np.flatnonzero(np.isnan(t_done))  # the windows still open
        if cols.size == 0:
            break
        _brownian_increments(gauss_rngs, roots, n_draw, root_step,
                             out=gauss[:, :n_draw])
        bridge_rng.standard_exponential(out=e.reshape(block, 2, n_draw))
        if antithetic:  # the partner steps by -g
            np.negative(gauss[:, :n_draw], out=gauss[:, n_draw:])
        _grid_block(spec, grid[0], gauss, step, redraw_rng, out=grid[1:])
        np.divide(grid[1:], delta, out=cells[1:])
        np.floor(cells[1:], out=cells[1:])
        # C-ordered copies of the open columns (a fancy-indexed column
        # subset is F-ordered).  Path j takes its lower-touch variates
        # from column j of e and its upper ones from column j + n_draw,
        # cyclically, so an antithetic partner's upper touch mirrors the
        # lower one
        e_lo = e.take(cols, axis=1)
        e_hi = e.take((cols + n_draw) % e.shape[1], axis=1)
        if cols.size == n_paths:
            x, c = grid, cells
        else:
            x, c = grid.take(cols, axis=1), cells.take(cols, axis=1)
        prev, nxt, c_prev, c_nxt = x[:-1], x[1:], c[:-1], c[1:]
        lo, hi = _bridge_touches(spec, prev, nxt, c_prev, c_nxt, e_lo, e_hi,
                                 step, delta, work)

        _count_touches(cols, prev, nxt, c_prev, c_nxt, lo, hi, t_start, step,
                       delta, need, events, pos, t_first, t_done)
        grid[0], cells[0] = grid[-1], cells[-1]
        t_start += block * step

    late = np.count_nonzero(~(t_done <= t_max))
    if late:
        raise RuntimeError(
            f"{late} of {n_paths} windows unfinished at t_max={t_max}")
    windows = t_done - t_first
    units = 0.5 * (windows[:n_draw] + windows[n_draw:]) if antithetic \
        else windows
    return float(windows.mean()), float(units.std(ddof=1)
                                        / math.sqrt(units.size))


def delta_mc(
    spec: ProcessSpec,
    n_crossings: int,
    t0: float,
    step_exponents=(3, 4, 5),
    n_paths: int = 1000,
    seed: int = 0,
) -> CalibrationResult:
    """Trial-and-error calibration on simulated paths.

    At each step size 10**-m, delta is found by ``_solve_log_window`` to
    the Monte Carlo tolerances, re-simulating the same common-random-number
    paths until the continuously monitored, uncensored mean window of
    ``_mean_window_for_n_crossings`` matches t0 to a relative
    MC_WINDOW_REL_TOL (or the bracket closes to MC_DELTA_REL_TOL).  Each
    step size starts from the delta and the secant slope of the one
    before.  All step sizes refine the Brownian paths of the coarsest one,
    so the per-step deltas differ by discretisation error rather than by
    independent noise.  For Feller, that residual step-size dependence
    (Milstein error, the bridge's frozen variance) is removed by fitting
    log10(delta_{m+1} - delta_m) linearly in m and extrapolating the
    geometric tail to the zero-step limit; non-increasing or
    non-contracting per-step deltas refuse the fit and return the
    finest-step delta with a warning.  For other kinds a single resolution
    (the largest exponent) is used.  The achieved window at the finest
    step is reported with a 95% confidence interval (from antithetic pair
    means for Feller).  ``delta_exact``'s target checks, and an empty or
    repeated list of step exponents, refuse before anything is simulated.
    """
    _check_target(n_crossings, t0)
    if not step_exponents or len(set(step_exponents)) < len(step_exponents):
        raise ValueError(f"need distinct step exponents, got "
                         f"{tuple(step_exponents)}")
    t_max = MC_MAX_WINDOW_FACTOR * t0
    exps = sorted(step_exponents) if spec.kind == "feller" \
        else [max(step_exponents)]
    root_step = 10.0 ** -exps[0]
    deltas: dict[int, float] = {}
    delta = _delta_scale_guess(spec, n_crossings, t0)
    gain = 2.0
    for m in exps:
        def mean_window(d: float) -> tuple[float, float]:
            w, se = _mean_window_for_n_crossings(
                spec, d, 10.0 ** -m, n_paths, seed, n_crossings, t_max,
                root_step,
            )
            logger.debug("step 1e-%d: delta %r -> mean window %r +- %r",
                         m, d, w, se)
            return w, se

        delta, (mean_w, se), gain = _solve_log_window(
            mean_window, t0, delta, MC_WINDOW_REL_TOL, MC_DELTA_REL_TOL, gain)
        deltas[m] = delta

    warnings: list[str] = []
    fit = (None,) * 3
    if spec.kind == "feller":
        diffs = np.diff([deltas[m] for m in exps])
        if np.any(diffs <= 0):
            warnings.append("non-monotone per-step deltas; regression refused")
        elif diffs.size < 2:
            warnings.append("need at least 3 step sizes to extrapolate; "
                            "returning the finest-step delta")
        else:
            ms = np.asarray(exps[:-1], dtype=np.float64)
            logd = np.log10(diffs)
            slope, intercept = np.polyfit(ms, logd, 1)
            resid = logd - (slope * ms + intercept)
            fit = (float(intercept), float(slope),
                   float(np.sqrt(np.mean(resid**2))))
            ratio = 10.0 ** slope
            if ratio >= 1.0:
                warnings.append("non-contracting delta differences; "
                                "extrapolation refused")
            else:
                delta += float(10.0 ** (slope * exps[-1] + intercept)
                               / (1.0 - ratio))
    return CalibrationResult(
        kind=spec.kind, n_crossings=n_crossings, t0=t0,
        params=spec.params, delta=delta, deltas_by_step=deltas,
        fit_intercept=fit[0], fit_slope=fit[1], fit_rms=fit[2],
        achieved_mean_window=mean_w, achieved_ci_half=1.96 * se,
        warnings=tuple(warnings),
    )


def _delta_scale_guess(spec: ProcessSpec, n: int, t0: float) -> float:
    """Order-of-magnitude start: BM-like scaling with the local diffusion
    coefficient at the process centre (sigma, which is 1 for BM and drift)."""
    target = t0 / n
    if spec.kind == "feller":
        return math.sqrt(target * spec.sigma**2 * spec.mu)
    return spec.sigma * math.sqrt(target)
