"""Exact mean calibration window of the stationary Feller diffusion.

No time steps and no Monte Carlo: the window from the first lattice hit
to the n-th crossing after it is the sum of n crossing durations, so its
mean is the expected duration at each site weighted by the law of the
exact crossing walk, step by step.

* The walk starts from the first-hit law of the stationary Gamma start:
  a start inside cell [i*delta, (i+1)*delta) hits the upper line first
  with the scale-function odds (S(x) - S(lo)) / (S(hi) - S(lo)); a start
  below delta hits delta first, since 0 is never reached.
* The law is propagated with the walk's up-step probabilities
  (``hitting_prob``; forced up at site delta).
* Each step costs ``expected_crossing_time`` at interior sites; at site
  delta the lower boundary 0 is an entrance boundary, so the duration is
  the one-sided time to reach 2*delta.

Independent of ``clmtree.calibrate`` and of the Gauss-Legendre rule of
``clmtree.simulate``: the scale odds and crossing times here are nested
adaptive ``integrate.quad`` calls, one site at a time.

The other references here are ones that ``clmtree.calibrate`` and its
grid stepper in ``clmtree.simulate`` must reproduce bit for bit:

* ``feller_grid_reference``: the Feller grid stepped one
  ``milstein_feller_step`` call at a time, with a positivity check after
  every step (``simulate._grid_block``);
* ``bridge_touches_reference``: the bridge touches with the exact
  arithmetic on every step near a line (``calibrate._bridge_touches``);
* ``brownian_increments_reference``: the decade refinement through whole
  temporaries (``calibrate._brownian_increments``).
"""

import math

import numpy as np
from scipy import integrate, special

from clmtree.simulate import ProcessSpec, milstein_feller_step

START_TAIL = 1e-13  # stationary mass left above the truncated lattice
WALK_TAIL = 1e-10  # walk mass allowed to reach the top site
QUAD_ABS_TOL = 1e-12  # hitting probabilities (normalised integrand)
QUAD_REL_TOL = 1e-10
DURATION_REL_TOL = 1e-9  # expected crossing times


def _feller_consts(spec):
    a = 2.0 * spec.kappa * spec.mu / spec.sigma**2  # Gamma shape, scale power
    b = spec.sigma**2 / (2.0 * spec.kappa)  # Gamma scale
    c = 2.0 * spec.kappa / spec.sigma**2
    return a, b, c


def _log_sprime(u, a, c):
    return -a * math.log(u) + c * u


def _log_scale_density(spec):
    """log s'(u) up to an additive constant, and the squared diffusion,
    of an OU or Feller spec."""
    if spec.kind == "ou":
        a_over_s2 = spec.alpha / spec.sigma**2

        def log_sprime(u):
            return a_over_s2 * u * u

        def diff_sq(u):
            return spec.sigma**2
    else:
        a, _, c = _feller_consts(spec)

        def log_sprime(u):
            return -a * np.log(u) + c * u

        def diff_sq(u):
            return spec.sigma**2 * u
    return log_sprime, diff_sq


def scale_odds(spec, lo, x, hi):
    """(S(x) - S(lo)) / (S(hi) - S(lo)) for the scale function S of an OU
    or Feller spec: the probability that from x the process hits hi before
    lo.  Adaptive quadrature of the scale density, evaluated in log space
    and normalised by its maximum on [lo, hi]."""
    log_sprime, _ = _log_scale_density(spec)
    grid = np.linspace(lo, hi, 65)
    peak = float(np.max(log_sprime(grid)))

    def f(u):
        return math.exp(log_sprime(u) - peak)

    below, _ = integrate.quad(f, lo, x,
                              epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    above, _ = integrate.quad(f, x, hi,
                              epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    return below / (below + above)


def hitting_prob(spec, x, delta):
    """P(next lattice hit is x + delta | currently at x): the scale-function
    odds of x in [x - delta, x + delta]."""
    return scale_odds(spec, x - delta, x, x + delta)


def expected_crossing_time(spec, x, delta):
    """Expected first-passage time to x +- delta from x, via the speed
    measure (nested adaptive quadrature)."""
    log_sprime, diff_sq = _log_scale_density(spec)
    grid = np.linspace(x - delta, x + delta, 65)
    peak = float(np.max(log_sprime(grid)))

    def sprime(u):
        return math.exp(log_sprime(u) - peak)

    def scale_from_x(y):
        val, _ = integrate.quad(sprime, x, y, epsabs=0, epsrel=1e-11)
        return val

    def speed_density(y):
        return 2.0 / (diff_sq(y) * sprime(y))

    s_hi = scale_from_x(x + delta)
    s_lo = scale_from_x(x - delta)
    p = (0.0 - s_lo) / (s_hi - s_lo)

    up, _ = integrate.quad(lambda y: (s_hi - scale_from_x(y)) * speed_density(y),
                           x, x + delta, epsabs=0, epsrel=DURATION_REL_TOL)
    down, _ = integrate.quad(lambda y: (scale_from_x(y) - s_lo) * speed_density(y),
                             x - delta, x, epsabs=0, epsrel=DURATION_REL_TOL)
    return p * up + (1.0 - p) * down


def _start_law(spec, delta, top):
    """Law of the first lattice site hit from the stationary Gamma start,
    over sites 0..top (site 0 unused)."""
    a, b, c = _feller_consts(spec)

    def sf(x):
        return special.gammaincc(a, x / b)

    law = np.zeros(top + 1)
    law[1] = special.gammainc(a, delta / b)
    for i in range(1, top):
        lo, hi = i * delta, (i + 1) * delta
        peak = max(_log_sprime(lo, a, c), _log_sprime(hi, a, c))

        def sprime(u):
            return math.exp(_log_sprime(u, a, c) - peak)

        # int_cell f(x) P_up(x) dx = int_cell s'(u) (F(hi) - F(u)) du / S_cell
        s_cell, _ = integrate.quad(sprime, lo, hi, epsabs=0, epsrel=1e-12)
        up, _ = integrate.quad(lambda u: sprime(u) * (sf(u) - sf(hi)),
                               lo, hi, epsabs=1e-16, epsrel=1e-12)
        up /= s_cell
        law[i + 1] += up
        law[i] += sf(lo) - sf(hi) - up
    return law


def _entrance_duration(spec, delta):
    """E[time to reach 2*delta from delta] with 0 an entrance boundary:
    int_delta^2delta s'(z) int_0^z m(y) dy dz, m the speed density."""
    a, _, c = _feller_consts(spec)
    # int_0^z y^(a-1) e^(-c y) dy = Gamma(a) P(a, c z) / c^a
    scale = 2.0 / spec.sigma**2 * special.gamma(a) / c**a

    def integrand(z):
        return z**-a * math.exp(c * z) * special.gammainc(a, c * z)

    val, _ = integrate.quad(integrand, delta, 2.0 * delta,
                            epsabs=0, epsrel=1e-12)
    return scale * val


def feller_mean_window(kappa, mu, sigma, delta, n_crossings):
    """Exact mean time from the first lattice hit to the n-th crossing."""
    spec = ProcessSpec("feller", kappa=kappa, mu=mu, sigma=sigma)
    a, b, _ = _feller_consts(spec)
    top = int(math.ceil(special.gammainccinv(a, START_TAIL) * b / delta)) + 2
    law = _start_law(spec, delta, top)
    p_up = np.zeros(top + 1)
    p_up[1] = 1.0
    p_up[2:top] = [hitting_prob(spec, i * delta, delta) for i in range(2, top)]
    duration = np.zeros(top + 1)
    duration[1] = _entrance_duration(spec, delta)
    duration[2:top] = [expected_crossing_time(spec, i * delta, delta)
                       for i in range(2, top)]
    total = 0.0
    for _ in range(n_crossings):
        total += float(np.dot(law, duration))
        nxt = np.zeros_like(law)
        nxt[2:] += law[1:-1] * p_up[1:-1]
        nxt[1:-1] += law[2:] * (1.0 - p_up[2:])
        law = nxt
        if law[top - 1] + law[top] > WALK_TAIL:
            raise ValueError("walk reached the top of the truncated lattice")
    return total


def feller_delta_exact(kappa, mu, sigma, n_crossings, t0, rel_tol=1e-10):
    """delta whose exact mean window equals t0: secant iteration on
    log(window) against log(delta), started from the BM-like guess."""
    target = math.log(t0)
    x0 = 0.5 * math.log(t0 / n_crossings * sigma**2 * mu)
    f0 = math.log(feller_mean_window(kappa, mu, sigma, math.exp(x0),
                                     n_crossings)) - target
    x1 = x0 - f0 / 2.0  # window ~ delta^2 to first order
    for _ in range(30):
        f1 = math.log(feller_mean_window(kappa, mu, sigma, math.exp(x1),
                                         n_crossings)) - target
        if abs(f1) <= rel_tol:
            return math.exp(x1)
        x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
    raise RuntimeError("secant iteration did not converge")


def feller_grid_reference(spec, x, g, step, redraw):
    """Milstein grid values of every path, one row of ``g`` per step; a
    step that lands at or below 0 is redrawn at once from ``redraw``."""
    out = np.empty_like(g)
    sq = math.sqrt(step)
    for k in range(g.shape[0]):
        x_new = milstein_feller_step(spec, x, g[k], step)
        if not (x_new > 0.0).all():
            for i in np.flatnonzero(x_new <= 0.0):
                while x_new[i] <= 0.0:
                    x_new[i] = milstein_feller_step(
                        spec, x[i], redraw.standard_normal() * sq, step)
        out[k] = x = x_new
    return out


def brownian_increments_reference(rngs, n_roots, n_cols, root_step):
    """Root increments refined by decades, each formed as one expression."""
    g = rngs[0].standard_normal((n_roots, n_cols)) * math.sqrt(root_step)
    h = root_step
    for rng in rngs[1:]:
        h /= 10.0
        z = rng.standard_normal((g.shape[0], 10, n_cols)) * math.sqrt(h)
        g = (g[:, None, :] / 10.0 + z - z.mean(axis=1, keepdims=True)) \
            .reshape(-1, n_cols)
    return g


def _exp_neg(q):
    return np.exp(-np.minimum(q, 700.0))


def bridge_exponents_reference(spec, a, b, ca, cb, step, delta):
    """The lines below and above both ends of each bridge from ``a`` to
    ``b`` (flat arrays in cells ``ca`` and ``cb``), the touch exponents q_lo
    and q_hi, and 2 / v."""
    if spec.kind == "feller":
        two_over_var = 2.0 / (spec.sigma**2 * step) / a
    else:
        two_over_var = np.full(a.size, 2.0 / (spec.sigma**2 * step))
    lo_line = np.minimum(ca, cb) * delta
    hi_line = (np.maximum(ca, cb) + 1.0) * delta
    q_lo = (a - lo_line) * (b - lo_line) * two_over_var
    q_hi = (hi_line - a) * (hi_line - b) * two_over_var
    if spec.kind == "feller":
        q_lo[lo_line <= 0.0] = np.inf
    return lo_line, hi_line, q_lo, q_hi, two_over_var


def bridge_touches_reference(spec, prev, nxt, c_prev, c_nxt, e_lo, e_hi,
                             step, delta, touch_exponent_max=30.0):
    """Lower and upper bridge touches, deciding every step whose lower
    exponent q_lo is below ``touch_exponent_max`` with the exact arithmetic
    (the touch probabilities, the two-sided term and the conditional upper
    odds), and every other step by its upper marginal alone."""
    shape = prev.shape
    a, b, ca, cb, el, eh = (np.ravel(v) for v in (prev, nxt, c_prev, c_nxt,
                                                  e_lo, e_hi))
    lo_line, hi_line, q_lo, q_hi, two_over_var = bridge_exponents_reference(
        spec, a, b, ca, cb, step, delta)
    hi = q_hi < eh
    lo = np.zeros(a.size, dtype=bool)
    near = np.flatnonzero(q_lo < touch_exponent_max)
    if near.size:
        q_lo_n, q_hi_n = q_lo[near], q_hi[near]
        p_lo, p_hi = np.exp(-q_lo_n), _exp_neg(q_hi_n)
        p_both = np.zeros(near.size)
        both = np.flatnonzero(q_lo_n + q_hi_n < touch_exponent_max)
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
