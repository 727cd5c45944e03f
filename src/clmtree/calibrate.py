"""Crossing-scale calibration: choose delta so a process averages a target
number of level-0 crossings per time window."""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .simulate import (
    ProcessSpec,
    expected_crossing_time,
    hitting_prob,  # unused here; bench/tracing.py patches this name
    mean_crossing_times,
    ou_stationary_lattice_law,
)

logger = logging.getLogger(__name__)

DRIFT_REL_TOL = 1e-12
OU_TARGET_REL_TOL = 2e-4
MC_WINDOW_REL_TOL = 1e-4  # |log(mean window / t0)| accepted per step size
MC_DELTA_REL_TOL = 1e-6  # bracket width on log(delta) that also stops
MC_SECANT_STEPS = 30  # simulation passes per step size beyond the first
MC_MAX_WINDOW_FACTOR = 20.0  # hard cap on simulated time, in units of t0
WINDOW_BLOCK_VALUES = 100_000  # grid values per simulated block
TOUCH_EXPONENT_MAX = 30.0  # bridge touch probabilities below e**-30 drop


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


def delta_closed_form(spec: ProcessSpec, n_crossings: int, t0: float) -> float:
    """Exact delta for BM; monotone bracketing root solve for drift.

    Both cases equate the constant expected crossing duration to t0/n.
    """
    if n_crossings < 1 or t0 <= 0:
        raise ValueError("need n_crossings >= 1 and t0 > 0")
    target = t0 / n_crossings
    if spec.kind == "bm" or (spec.kind == "bm_drift" and spec.alpha == 0.0):
        return math.sqrt(target)
    if spec.kind != "bm_drift":
        raise ValueError("closed-form calibration covers bm and bm_drift only")

    mean_duration = functools.partial(expected_crossing_time, spec, 0.0)
    lo, hi = 0.5 * math.sqrt(target), 2.0 * math.sqrt(target)
    f_lo, f_hi = mean_duration(lo), mean_duration(hi)
    for _ in range(64):
        if f_lo < target < f_hi:
            break
        if f_lo >= target:
            lo *= 0.5
            f_lo = mean_duration(lo)
        if f_hi <= target:
            hi *= 2.0
            f_hi = mean_duration(hi)
    else:
        raise ValueError(f"root not bracketed in [{lo}, {hi}]")
    while (hi - lo) / hi > DRIFT_REL_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = mean_duration(mid)
        if not f_lo < f_mid < f_hi:
            raise AssertionError("mean crossing duration not increasing")
        if f_mid < target:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def ou_mean_crossing_duration(
    alpha: float, sigma: float, delta: float
) -> float:
    """Stationary-walk-weighted expected crossing duration of the OU chain."""
    spec = ProcessSpec("ou", alpha=alpha, sigma=sigma)
    sites, pi = ou_stationary_lattice_law(alpha, sigma, delta)
    return float(np.dot(pi, mean_crossing_times(spec, sites, delta)))


def delta_ou(
    alpha: float, sigma: float, n_crossings: int, t0: float,
    rel_tol: float = OU_TARGET_REL_TOL,
) -> float:
    """delta solving the stationary-lattice mean-duration equation by
    monotone bisection, to the given relative error on the target."""
    if alpha <= 0 or sigma <= 0:
        raise ValueError("need alpha > 0 and sigma > 0")
    target = t0 / n_crossings
    guess = sigma * math.sqrt(target)
    lo, hi = 0.7 * guess, 1.5 * guess
    f_lo = ou_mean_crossing_duration(alpha, sigma, lo)
    f_hi = ou_mean_crossing_duration(alpha, sigma, hi)
    for _ in range(32):
        if f_lo < target < f_hi:
            break
        if f_lo >= target:
            lo *= 0.7
            f_lo = ou_mean_crossing_duration(alpha, sigma, lo)
        if f_hi <= target:
            hi *= 1.5
            f_hi = ou_mean_crossing_duration(alpha, sigma, hi)
    else:
        raise ValueError("failed to bracket the OU mean-duration equation")
    mid, f_mid = 0.5 * (lo + hi), None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = ou_mean_crossing_duration(alpha, sigma, mid)
        if abs(f_mid - target) <= rel_tol * target:
            return mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("OU bisection did not reach the target tolerance")


# ---------------------------------------------------------------------------
# Monte Carlo calibration on simulated fine paths
# ---------------------------------------------------------------------------

def _brownian_increments(rngs, n_roots, n_cols, root_step):
    """Brownian increments over ``n_roots`` root steps, refined by decades.

    ``rngs[0]`` draws the root increments; each further generator splits
    every increment of the decade above into ten with their conditional
    law given the sum.  Grids that share the seed and the root step thus
    sample the same Brownian path at every resolution.
    """
    g = rngs[0].standard_normal((n_roots, n_cols)) * math.sqrt(root_step)
    h = root_step
    for rng in rngs[1:]:
        h /= 10.0
        z = rng.standard_normal((g.shape[0], 10, n_cols)) * math.sqrt(h)
        g = (g[:, None, :] / 10.0 + z - z.mean(axis=1, keepdims=True)) \
            .reshape(-1, n_cols)
    return g


def milstein_feller_step(spec: ProcessSpec, x, g, step: float):
    """One Milstein step of the Feller diffusion from ``x`` with Brownian
    increment ``g`` (variance ``step``); elementwise on arrays."""
    return (x + spec.kappa * (spec.mu - x) * step
            + spec.sigma * np.sqrt(x) * g
            + spec.sigma**2 * (g * g - step) / 4.0)


def _grid_block(spec, x, g, step, redraw, out=None):
    """Next ``len(g)`` grid values of every path from the values ``x``,
    written into ``out`` (a new array if None) and returned.

    ``g`` holds the Gaussian increments (variance ``step``), one row per
    step.  BM and OU are vectorised over time (OU through its exact AR(1)
    transition).  Feller takes ``milstein_feller_step`` row by row, in
    place in the output block and in that function's order of operations,
    so every value keeps its bits: the x-free term sigma**2 (g**2 - step) / 4
    is filled in for all rows at once.  The two x-dependent factors of a
    row are stacked in one (2, n) buffer w = [mu - x, sqrt(x)], scaled by
    [kappa, sigma] and then by [step, g_k] (a per-block (rows, 2, n)
    array); x and the noise term w[1] are added to the drift term w[0],
    and that to the row: seven ufunc calls a row.  A step that lands at or
    below 0 has its increment redrawn from ``redraw`` until it lands above
    0.  Positivity is checked once per block: after stepping through the
    block, the first row holding a value <= 0 has those values redrawn in
    index order from the row before it, exactly as a check after every
    step would, and the block is stepped again from the next row.  (A NaN,
    which only a negative or non-finite start gives, is never redrawn.)
    """
    if out is None:
        out = np.empty_like(g)
    if spec.kind in ("bm", "bm_drift"):
        drift = spec.alpha if spec.kind == "bm_drift" else 0.0
        np.cumsum(drift * step + g, axis=0, out=out)
        out += x
        return out
    if spec.kind == "ou":
        from scipy import signal  # slow to import, and needed only here

        rho = math.exp(-spec.alpha * step)
        sd = spec.sigma * math.sqrt((1 - rho * rho) / (2 * spec.alpha * step))
        out[...] = signal.lfilter([1.0], [1.0, -rho], sd * g, axis=0,
                                  zi=rho * x[None, :])[0]
        return out
    # the constants as arrays: a ufunc converts a Python float on every call
    mu = np.full(x.shape, spec.mu)
    scale = np.empty((2,) + x.shape)
    scale[0], scale[1] = spec.kappa, spec.sigma
    factors = np.empty((len(g), 2) + x.shape)
    factors[:, 0], factors[:, 1] = step, g
    w = np.empty((2,) + x.shape)
    head, noise = w
    # local names: seven global lookups a row add up over a block
    sub, sqrt, mul, add = np.subtract, np.sqrt, np.multiply, np.add
    sq = math.sqrt(step)
    start = 0
    while start < len(g):
        # the x-free term of every row still to step
        rows = out[start:]
        np.multiply(g[start:], g[start:], out=rows)
        rows -= step
        rows *= spec.sigma**2
        rows /= 4.0
        prev = x if start == 0 else out[start - 1]
        with np.errstate(invalid="ignore"):
            for row, f in zip(rows, factors[start:]):
                # x + kappa (mu - x) step + sigma sqrt(x) g, then the term
                sub(mu, prev, head)
                sqrt(prev, noise)
                mul(w, scale, w)
                mul(w, f, w)
                add(head, prev, head)
                add(head, noise, head)
                add(row, head, row)
                prev = row
        low = (rows <= 0.0).any(axis=1)
        if not low.any():
            break
        k = start + int(np.argmax(low))
        prev, row = (x if k == 0 else out[k - 1]), out[k]
        for i in np.flatnonzero(row <= 0.0):
            while row[i] <= 0.0:
                row[i] = milstein_feller_step(
                    spec, prev[i], redraw.standard_normal() * sq, step)
        start = k + 1
    return out


def _exp_neg(q):
    """exp(-q) for q >= 0, flushed to ~1e-304 instead of subnormal values,
    which numpy evaluates a hundred times slower."""
    return np.exp(-np.minimum(q, 700.0))


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

    The inputs may have any shape and memory layout; lo and hi come back
    C-ordered in the shape of ``prev``.  The per-step intermediates go
    into ``work``, a scratch array of at least (6, prev.size) that a pass
    reuses for every block.
    """
    shape = prev.shape
    a, b, ca, cb, el, eh = map(np.ravel, (prev, nxt, c_prev, c_nxt, e_lo,
                                          e_hi))
    n = a.size
    lo_line, hi_line, q_lo, q_hi, tmp, two_over_var = work[:, :n]
    if spec.kind == "feller":
        np.divide(2.0 / (spec.sigma**2 * step), a, out=two_over_var)
    else:
        two_over_var.fill(2.0 / ((spec.sigma**2 if spec.kind == "ou" else 1.0)
                                 * step))
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
    hi = q_hi < eh
    lo = np.zeros(n, dtype=bool)
    near = np.flatnonzero(q_lo < TOUCH_EXPONENT_MAX)
    if near.size:
        q_lo_n, q_hi_n = q_lo[near], q_hi[near]
        p_lo, p_hi = np.exp(-q_lo_n), _exp_neg(q_hi_n)
        p_both = np.zeros(near.size)
        both = np.flatnonzero(q_lo_n + q_hi_n < TOUCH_EXPONENT_MAX)
        if both.size:
            idx = near[both]
            a_b, b_b = a[idx], b[idx]
            l, u = lo_line[idx], hi_line[idx]
            s, w = two_over_var[idx], u - l
            p_both[both] = np.clip(
                _exp_neg(s * w * (w - (b_b - a_b)))
                + _exp_neg(s * w * (w + (b_b - a_b)))
                - _exp_neg(s * (a_b - l + w) * (b_b - l + w))
                - _exp_neg(s * (u - a_b + w) * (u - b_b + w)),
                0.0, np.minimum(p_lo[both], p_hi[both]))
        lo_n = q_lo_n < el[near]
        lo[near] = lo_n
        with np.errstate(divide="ignore", invalid="ignore"):
            hi[near] = np.exp(-eh[near]) < np.where(
                lo_n, p_both / p_lo, (p_hi - p_both) / (1.0 - p_lo))
    return lo.reshape(shape), hi.reshape(shape)


def _mean_window_for_n_crossings(
    spec: ProcessSpec, delta: float, step: float, n_paths: int, seed: int,
    n_crossings: int, t_max: float, root_step: float | None = None,
) -> tuple[float, float]:
    """Mean time from the first lattice hit to the n-th crossing after it,
    under continuous monitoring.

    Paths start from the stationary law (Gamma for Feller, Gaussian for
    OU, 0 for BM) and move on a grid of the given step (Milstein for
    Feller, exact Gaussian transitions otherwise).  Between grid points
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
    so memory stays bounded.  Every path is drawn for and stepped through
    each block, so the random streams do not depend on when windows end;
    but finished paths are no longer counted: only the open windows go
    through the bridge touches and the count, and crossings are counted
    only on the steps that touch a line.  Returns (mean, se).
    """
    if spec.kind not in ("bm", "bm_drift", "ou", "feller"):
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
    if spec.kind == "feller":
        a = 2.0 * spec.kappa * spec.mu / spec.sigma**2
        b = spec.sigma**2 / (2.0 * spec.kappa)
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
        g = _brownian_increments(gauss_rngs, roots, n_draw, root_step)
        e = bridge_rng.standard_exponential((block, 2, n_draw)) \
            .reshape(block, -1)
        if antithetic:  # the partner steps by -g
            g = np.concatenate([g, -g], axis=1)
        _grid_block(spec, grid[0], g, step, redraw_rng, out=grid[1:])
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

        # steps that touch a line, path by path in time order; each passes
        # a run of consecutive lines, and a re-touch of the line hit last
        # is not a new passage
        col, k = np.nonzero(((c_prev != c_nxt) | lo | hi).T)
        flat = k * cols.size + col
        a, b = prev.ravel()[flat], nxt.ravel()[flat]
        ca, cb = c_prev.ravel()[flat], c_nxt.ravel()[flat]
        lo_k, hi_k = lo.ravel()[flat], hi.ravel()[flat]
        grid[0], cells[0] = grid[-1], cells[-1]
        t_block = t_start
        t_start += block * step
        if col.size == 0:
            continue
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

    At each step size 10**-m, delta is found by a secant iteration on
    log(mean window) against log(delta), safeguarded by the bracket it
    builds, re-simulating the same common-random-number paths until the
    continuously monitored, uncensored mean window of
    ``_mean_window_for_n_crossings`` matches t0 to a relative
    MC_WINDOW_REL_TOL (or the bracket closes to MC_DELTA_REL_TOL).  All
    step sizes refine the Brownian paths of the coarsest one, so the
    per-step deltas differ by discretisation error rather than by
    independent noise.  For Feller, that residual step-size dependence
    (Milstein error, the bridge's frozen variance) is removed by fitting
    log10(delta_{m+1} - delta_m) linearly in m and extrapolating the
    geometric tail to the zero-step limit; non-increasing or
    non-contracting per-step deltas refuse the fit and return the
    finest-step delta with a warning.  For other kinds a single resolution
    (the largest exponent) is used.  The achieved window at the finest
    step is reported with a 95% confidence interval (from antithetic pair
    means for Feller).
    """
    warnings: list[str] = []
    t_max = MC_MAX_WINDOW_FACTOR * t0
    exps = sorted(step_exponents) if spec.kind == "feller" \
        else [max(step_exponents)]
    root_step = 10.0 ** -exps[0]
    gain = 2.0  # d log(window) / d log(delta); ~2 to first order

    def calibrate_at(m: int, guess: float) -> tuple[float, float, float]:
        nonlocal gain
        step = 10.0 ** -m

        def log_ratio(d: float) -> tuple[float, float, float]:
            w, se = _mean_window_for_n_crossings(
                spec, d, step, n_paths, seed, n_crossings, t_max, root_step,
            )
            logger.debug("step 1e-%d: delta %r -> mean window %r +- %r",
                         m, d, w, se)
            return math.log(w / t0), w, se

        lo, hi = -math.inf, math.inf  # log-delta bracket of the root
        x = math.log(guess)
        f, w, se = log_ratio(guess)
        best = (abs(f), x, w, se)
        for _ in range(MC_SECANT_STEPS):
            if f < 0.0:
                lo = max(lo, x)
            else:
                hi = min(hi, x)
            if best[0] <= MC_WINDOW_REL_TOL or hi - lo <= MC_DELTA_REL_TOL:
                return math.exp(best[1]), best[2], best[3]
            x_new = x - f / gain
            if not lo < x_new < hi:  # the window is a noisy staircase
                x_new = 0.5 * (lo + hi)
            f_new, w, se = log_ratio(math.exp(x_new))
            if f_new != f:
                gain = min(max((f_new - f) / (x_new - x), 1.0), 4.0)
            x, f = x_new, f_new
            best = min(best, (abs(f), x, w, se))
        raise RuntimeError(f"step 1e-{m}: calibration did not reach the "
                           f"target window within {MC_SECANT_STEPS} passes")

    if spec.kind == "feller":
        deltas: dict[int, float] = {}
        guess = _delta_scale_guess(spec, n_crossings, t0)
        for m in exps:
            deltas[m], mean_w, se = calibrate_at(m, guess)
            guess = deltas[m]
        diffs = np.diff([deltas[m] for m in exps])
        final = deltas[exps[-1]]
        fit = (None,) * 3
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
                final += float(10.0 ** (slope * exps[-1] + intercept)
                               / (1.0 - ratio))
        return CalibrationResult(
            kind=spec.kind, n_crossings=n_crossings, t0=t0,
            params=_spec_params(spec), delta=final,
            deltas_by_step=deltas, fit_intercept=fit[0], fit_slope=fit[1],
            fit_rms=fit[2], achieved_mean_window=mean_w,
            achieved_ci_half=1.96 * se, warnings=tuple(warnings),
        )

    # generic single-resolution route
    m = exps[0]
    delta, mean_w, se = calibrate_at(
        m, _delta_scale_guess(spec, n_crossings, t0))
    return CalibrationResult(
        kind=spec.kind, n_crossings=n_crossings, t0=t0,
        params=_spec_params(spec), delta=delta,
        deltas_by_step={m: delta}, achieved_mean_window=mean_w,
        achieved_ci_half=1.96 * se, warnings=tuple(warnings),
    )


def _spec_params(spec: ProcessSpec) -> dict:
    keys = {"bm": (), "bm_drift": ("alpha",), "ou": ("alpha", "sigma"),
            "feller": ("kappa", "mu", "sigma"), "fbm": ("hurst", "sigma2")}
    return {k: getattr(spec, k) for k in keys[spec.kind]}


def _delta_scale_guess(spec: ProcessSpec, n: int, t0: float) -> float:
    """Order-of-magnitude start: BM-like scaling with the local diffusion
    coefficient at the process centre."""
    target = t0 / n
    if spec.kind == "feller":
        return math.sqrt(target * spec.sigma**2 * spec.mu)
    if spec.kind == "ou":
        return spec.sigma * math.sqrt(target)
    return math.sqrt(target)
