"""Exact and approximate samplers for crossing chains and sample paths.

Diffusion crossing sequences are simulated exactly through the scale
function (lattice hitting probabilities) and, where needed, the speed
measure (expected crossing durations).  Fractional Brownian motion comes
from circulant embedding of the increment covariance; a generic extractor
turns any fine sample path into its level-0 crossing chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .series import InterpolatedPath, TickSeries
from .tree import lattice_events

QUAD_ABS_TOL = 1e-12  # hitting probabilities (normalised integrand)
QUAD_REL_TOL = 1e-10
DURATION_REL_TOL = 1e-9  # expected crossing times
OU_TRUNCATION_SDS = 10.0
MILSTEIN_MAX_STEPS = 10_000_000
FBM_MAX_EMBED = 2 ** 26


@dataclass(frozen=True)
class ProcessSpec:
    """A simulatable process and its parameters.

    kinds: "bm"; "bm_drift" (alpha); "ou" (alpha, sigma); "feller"
    (kappa, mu, sigma, with 2*kappa*mu/sigma**2 >= 1); "fbm" (hurst,
    sigma2).
    """

    kind: str
    alpha: float = 0.0
    sigma: float = 1.0
    kappa: float = 0.0
    mu: float = 0.0
    hurst: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bm", "bm_drift", "ou", "feller", "fbm"):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind == "ou" and not (self.alpha > 0 and self.sigma > 0):
            raise ValueError("ou needs alpha > 0 and sigma > 0")
        if self.kind == "feller":
            if not (self.kappa > 0 and self.mu > 0 and self.sigma > 0):
                raise ValueError("feller needs kappa, mu, sigma > 0")
            if 2 * self.kappa * self.mu / self.sigma**2 < 1.0:
                raise ValueError("feller needs 2*kappa*mu/sigma**2 >= 1")
        if self.kind == "fbm" and not 0 < self.hurst < 1:
            raise ValueError("fbm needs hurst in (0,1)")

    @property
    def is_diffusion(self) -> bool:
        return self.kind in ("bm", "bm_drift", "ou", "feller")


@dataclass(frozen=True)
class CrossingChain:
    """Consecutive lattice values differing by exactly +-delta.

    Chain-based samplers leave ``durations`` as None (the tree tests need
    only counts and orientations); path-based extraction fills them.
    """

    values: np.ndarray
    delta: float
    durations: np.ndarray | None = None
    start_law: str = "point"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        steps = np.abs(np.diff(v))
        if steps.size and not np.allclose(steps, self.delta, rtol=1e-9):
            raise ValueError("chain steps must all have size delta")

    def __len__(self) -> int:
        return int(self.values.size)

    def as_series(self) -> TickSeries:
        times = (np.arange(self.values.size, dtype=np.float64)
                 if self.durations is None
                 else np.concatenate([[0.0], np.cumsum(self.durations)]))
        return TickSeries(times=times, values=self.values, meta="crossing-chain")


# ---------------------------------------------------------------------------
# scale function / speed measure
# ---------------------------------------------------------------------------

def _log_scale_density(spec: ProcessSpec):
    """log s'(u) up to an additive constant, and the squared diffusion."""
    if spec.kind == "ou":
        a_over_s2 = spec.alpha / spec.sigma**2

        def log_sprime(u):
            return a_over_s2 * u * u

        def diff_sq(u):
            return spec.sigma**2
    elif spec.kind == "feller":
        a = 2.0 * spec.kappa * spec.mu / spec.sigma**2
        c = 2.0 * spec.kappa / spec.sigma**2

        def log_sprime(u):
            return -a * np.log(u) + c * u

        def diff_sq(u):
            return spec.sigma**2 * u
    else:
        raise ValueError(f"no generic scale density for {spec.kind!r}")
    return log_sprime, diff_sq


def _check_interior(spec: ProcessSpec, x: float, delta: float) -> None:
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spec.kind == "feller" and x - delta <= 0.0:
        raise ValueError("interval [x-delta, x+delta] touches the boundary 0")


def hitting_prob(spec: ProcessSpec, x: float, delta: float) -> float:
    """P(next lattice hit is x + delta | currently at x).

    Closed form from the scale function for BM and BM with drift; adaptive
    quadrature of the scale density (evaluated in log space and normalised
    by its maximum on the interval) for OU and Feller.
    """
    _check_interior(spec, x, delta)
    if spec.kind == "bm" or (spec.kind == "bm_drift" and spec.alpha == 0.0):
        return 0.5
    if spec.kind == "bm_drift":
        e = math.exp(2.0 * spec.alpha * delta)
        return (e - 1.0) / (e - math.exp(-2.0 * spec.alpha * delta))
    log_sprime, _ = _log_scale_density(spec)
    grid = np.linspace(x - delta, x + delta, 65)
    peak = float(np.max(log_sprime(grid)))

    def f(u):
        return math.exp(log_sprime(u) - peak)

    below, _ = integrate.quad(f, x - delta, x,
                              epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    above, _ = integrate.quad(f, x, x + delta,
                              epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL)
    return below / (below + above)


def expected_crossing_time(spec: ProcessSpec, x: float, delta: float) -> float:
    """Expected first-passage time to x +- delta from x, via the speed
    measure (nested adaptive quadrature); closed form for BM and drift."""
    _check_interior(spec, x, delta)
    if spec.kind == "bm" or (spec.kind == "bm_drift" and spec.alpha == 0.0):
        return delta * delta
    if spec.kind == "bm_drift":
        a = spec.alpha
        e = math.exp(2.0 * a * delta)
        return delta * (e - 1.0) / (a * (e + 1.0))

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


# ---------------------------------------------------------------------------
# exact crossing chains via the lattice walk
# ---------------------------------------------------------------------------

class _OuLattice:
    """Up-step probabilities of the OU crossing walk on a truncated lattice
    i*delta, |i| <= half_width, with reflecting ends."""

    def __init__(self, spec: ProcessSpec, delta: float,
                 truncation_sds: float = OU_TRUNCATION_SDS):
        sd = spec.sigma / math.sqrt(2.0 * spec.alpha)
        self.half_width = max(int(math.ceil(truncation_sds * sd / delta)), 2)
        self.delta = delta
        idx = np.arange(-self.half_width, self.half_width + 1)
        self.sites = idx * delta
        self.p_up = np.array(
            [hitting_prob(spec, float(s), delta) for s in self.sites]
        )
        self.p_up[0] = 1.0
        self.p_up[-1] = 0.0

    def stationary(self) -> np.ndarray:
        if getattr(self, "_pi", None) is not None:
            return self._pi
        # detailed balance: pi[i+1] = pi[i] * p[i] / (1 - p[i+1])
        logpi = np.zeros(self.sites.size)
        for i in range(self.sites.size - 1):
            logpi[i + 1] = (logpi[i] + math.log(self.p_up[i])
                            - math.log1p(-self.p_up[i + 1]))
        logpi -= logpi.max()
        pi = np.exp(logpi)
        pi /= pi.sum()
        if pi[0] + pi[-1] > 1e-10:
            raise ValueError("OU lattice truncation too small: boundary mass "
                             f"{pi[0] + pi[-1]:.2e}")
        object.__setattr__(self, "_pi", pi)
        return pi


def ou_stationary_lattice_law(
    alpha: float, sigma: float, delta: float,
    truncation_sds: float = OU_TRUNCATION_SDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary law of the OU crossing walk: (lattice sites, probabilities).

    Solves detailed balance on the truncated lattice; fails loudly when the
    truncation leaves visible mass at the ends.
    """
    spec = ProcessSpec("ou", alpha=alpha, sigma=sigma)
    lat = _OuLattice(spec, delta, truncation_sds)
    return lat.sites.copy(), lat.stationary()


class _FellerLattice:
    """Up-step probabilities of the Feller crossing walk on i*delta, i >= 1.

    The process never touches 0, so the walk is forced up from the lowest
    site.  The table grows on demand; growth is deterministic."""

    def __init__(self, spec: ProcessSpec, delta: float, initial_top: int = 8):
        self.spec = spec
        self.delta = delta
        self.p_up = [np.nan, 1.0]  # index 0 unused; forced up at delta
        self.extend_to(initial_top)

    def extend_to(self, top: int) -> None:
        for i in range(len(self.p_up), top + 1):
            self.p_up.append(
                hitting_prob(self.spec, i * self.delta, self.delta)
            )

    def table(self, top: int) -> np.ndarray:
        if top >= len(self.p_up):
            self.extend_to(top)
        return np.asarray(self.p_up)


def _walk_batch(start_idx: np.ndarray, uniforms: np.ndarray, table_fn) -> np.ndarray:
    """Nearest-neighbour walk for a batch of paths.

    ``table_fn(top)`` returns up-step probabilities indexed by lattice site,
    valid at least through ``top``.  Shape: (batch, steps+1).
    """
    batch, steps = uniforms.shape
    pos = np.empty((batch, steps + 1), dtype=np.int64)
    cur = start_idx.astype(np.int64).copy()
    pos[:, 0] = cur
    table = table_fn(int(cur.max()) + 2)
    for k in range(steps):
        top = int(cur.max()) + 1
        if top >= table.size:
            table = table_fn(top + 32)
        up = uniforms[:, k] < table[cur]
        cur = np.where(up, cur + 1, cur - 1)
        pos[:, k + 1] = cur
    return pos


def simulate_markov_crossings(
    spec: ProcessSpec,
    delta: float,
    n: int,
    start: float | str = 0.0,
    seed=0,
) -> CrossingChain:
    """n crossings of the exact lattice walk of a diffusion.

    ``start`` is a point mass (a value, snapped to the lattice) or
    "stationary" for the OU equilibrium lattice law.  Deterministic given
    the seed.
    """
    values = simulate_crossings_batch(spec, delta, n, 1, seed, start=start)[0]
    law = "stationary" if start == "stationary" else "point"
    return CrossingChain(values=values, delta=delta, start_law=law)


def simulate_crossings_batch(
    spec: ProcessSpec,
    delta: float,
    n: int,
    n_paths: int,
    seed,
    start: float | str | None = None,
    milstein_step: float = 1e-5,
) -> list[np.ndarray]:
    """Value sequences of ``n_paths`` independent crossing chains.

    Path i draws only from generator [seed, i], so results are identical
    whether paths are simulated one at a time or in a batch.
    """
    if not spec.is_diffusion:
        raise ValueError("crossing chains require a diffusion spec")
    rngs = [np.random.default_rng(_seed_key(seed) + [i]) for i in range(n_paths)]

    if spec.kind in ("bm", "bm_drift"):
        p = hitting_prob(spec, 0.0, delta)
        x0 = 0.0 if start is None or start == "stationary" else float(start)
        base = round(x0 / delta)
        out = []
        for rng in rngs:
            steps = np.where(rng.random(n) < p, 1, -1)
            idx = base + np.concatenate([[0], np.cumsum(steps)])
            out.append(idx * delta)
        return out

    if spec.kind == "ou":
        lat = _ou_lattice_cached(spec.alpha, spec.sigma, delta)
        if start is None or start == "stationary":
            pi = lat.stationary()
            cdf = np.cumsum(pi)
            starts = np.array(
                [int(np.searchsorted(cdf, rng.random())) for rng in rngs]
            )
        else:
            site = round(float(start) / delta) + lat.half_width
            starts = np.full(n_paths, site)
        uniforms = np.stack([rng.random(n) for rng in rngs])
        pos = _walk_batch(starts, uniforms, lambda top: lat.p_up)
        return [(row - lat.half_width) * delta for row in pos]

    # feller
    lat = _feller_lattice_cached(spec.kappa, spec.mu, spec.sigma, delta)
    if start is None:
        starts = np.array([
            _feller_first_hit(spec, delta, rng, milstein_step) for rng in rngs
        ])
    else:
        starts = np.full(n_paths, max(round(float(start) / delta), 1))
    uniforms = np.stack([rng.random(n) for rng in rngs])
    pos = _walk_batch(starts, uniforms, lat.table)
    return [row * delta for row in pos]


_LATTICE_CACHE: dict = {}


def _ou_lattice_cached(alpha, sigma, delta) -> "_OuLattice":
    key = ("ou", alpha, sigma, delta)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = _OuLattice(
            ProcessSpec("ou", alpha=alpha, sigma=sigma), delta
        )
    return _LATTICE_CACHE[key]


def _feller_lattice_cached(kappa, mu, sigma, delta) -> "_FellerLattice":
    key = ("feller", kappa, mu, sigma, delta)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = _FellerLattice(
            ProcessSpec("feller", kappa=kappa, mu=mu, sigma=sigma), delta
        )
    return _LATTICE_CACHE[key]


def _seed_key(seed) -> list:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    raise TypeError("seed must be an int or a sequence of ints")


def _feller_first_hit(
    spec: ProcessSpec, delta: float, rng: np.random.Generator,
    milstein_step: float,
) -> int:
    """Milstein path from a stationary draw until the first lattice hit.

    Steps landing at or below 0 redraw their Gaussian (kept rare by the
    2*kappa*mu/sigma**2 >= 1 regime).  The hit initialises the chain and is
    not itself a crossing.
    """
    a = 2.0 * spec.kappa * spec.mu / spec.sigma**2
    b = spec.sigma**2 / (2.0 * spec.kappa)
    x = rng.gamma(shape=a, scale=b)
    cell = math.floor(x / delta)
    dt = milstein_step
    sq = math.sqrt(dt)
    for _ in range(MILSTEIN_MAX_STEPS):
        while True:
            x_new = milstein_feller_step(spec, x, rng.standard_normal() * sq, dt)
            if x_new > 0.0:
                break
        new_cell = math.floor(x_new / delta)
        if new_cell != cell:
            hit = cell + 1 if new_cell > cell else cell
            if hit >= 1:
                return hit
            cell = new_cell  # hit would be the boundary; keep going
            x = x_new
            continue
        x = x_new
    raise RuntimeError("no lattice hit within the Milstein step budget")


def simulate_feller_crossings(
    kappa: float, mu: float, sigma: float, delta: float, n: int,
    seed=0, milstein_step: float = 1e-5,
) -> CrossingChain:
    """Stationary-start Feller chain: Milstein first hit, then the exact
    walk with the forced up-step at the lowest site."""
    spec = ProcessSpec("feller", kappa=kappa, mu=mu, sigma=sigma)
    values = simulate_crossings_batch(
        spec, delta, n, 1, seed, milstein_step=milstein_step
    )[0]
    return CrossingChain(values=values, delta=delta, start_law="gamma-milstein")


def milstein_feller_path(
    spec: ProcessSpec, horizon: float, step: float, rng: np.random.Generator,
    n_paths: int = 1,
) -> np.ndarray:
    """Discrete Milstein paths of the Feller diffusion from stationary
    starts, shape (n_paths, n_steps+1).  Negative landings redraw from a
    dedicated resample stream so draw order stays reproducible."""
    a = 2.0 * spec.kappa * spec.mu / spec.sigma**2
    b = spec.sigma**2 / (2.0 * spec.kappa)
    n_steps = int(round(horizon / step))
    x = rng.gamma(shape=a, scale=b, size=n_paths)
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x
    sq = math.sqrt(step)
    resample = np.random.default_rng(rng.integers(2**63))
    for k in range(n_steps):
        g = rng.standard_normal(n_paths) * sq
        x_new = milstein_feller_step(spec, x, g, step)
        bad = np.flatnonzero(x_new <= 0.0)
        for i in bad:
            while x_new[i] <= 0.0:
                x_new[i] = milstein_feller_step(
                    spec, x[i], resample.standard_normal() * sq, step)
        x = x_new
        out[:, k + 1] = x
    return out


def milstein_feller_step(spec: ProcessSpec, x, g, step: float):
    """One Milstein step of the Feller diffusion from ``x`` with Brownian
    increment ``g`` (variance ``step``); elementwise on arrays."""
    return (x + spec.kappa * (spec.mu - x) * step
            + spec.sigma * np.sqrt(x) * g
            + spec.sigma**2 * (g * g - step) / 4.0)


# ---------------------------------------------------------------------------
# fractional Brownian motion (circulant embedding)
# ---------------------------------------------------------------------------

_EMBED_CACHE: dict = {}


def _fgn_sqrt_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """sqrt of the circulant eigenvalues embedding the unit-variance fGn
    covariance for n increments; grows the embedding until nonnegative
    definite."""
    m = 1
    while m < 2 * n:
        m *= 2
    while True:
        key = (m, round(hurst, 12))
        if key in _EMBED_CACHE:
            return _EMBED_CACHE[key]
        lags = np.arange(0, m // 2 + 1, dtype=np.float64)
        h2 = 2.0 * hurst
        r = 0.5 * ((lags + 1) ** h2 - 2 * lags**h2 + np.abs(lags - 1) ** h2)
        row = np.concatenate([r, r[-2:0:-1]])
        eig = np.fft.fft(row).real
        floor = -1e-8 * eig.max()
        if eig.min() >= floor:
            sqrt_eig = np.sqrt(np.maximum(eig, 0.0))
            sqrt_eig.flags.writeable = False  # shared by every caller
            _EMBED_CACHE[key] = sqrt_eig
            return sqrt_eig
        if m >= FBM_MAX_EMBED:
            raise ValueError(
                f"circulant embedding not nonnegative definite below {FBM_MAX_EMBED}"
            )
        m *= 2


def fgn(n: int, hurst: float, sigma2: float, rng: np.random.Generator,
        size: int = 1) -> np.ndarray:
    """Exact-in-distribution fractional Gaussian noise, shape (size, n).

    Unit-lag increments with Var = sigma2 and the fGn autocovariance
    sigma2/2 (|j+1|^2H - 2|j|^2H + |j-1|^2H).
    """
    sqrt_eig = _fgn_sqrt_eigenvalues(n, hurst)
    m = sqrt_eig.size
    half = m // 2
    z = np.empty((size, m), dtype=np.complex128)
    ends = rng.standard_normal((size, 2))
    inner = rng.standard_normal((size, half - 1, 2)) / math.sqrt(2.0)
    z[:, 0] = ends[:, 0]
    z[:, half] = ends[:, 1]
    z[:, 1:half] = inner[:, :, 0] + 1j * inner[:, :, 1]
    z[:, half + 1 :] = np.conj(z[:, 1:half][:, ::-1])
    x = np.fft.fft(sqrt_eig[None, :] * z, axis=1).real / math.sqrt(m)
    return math.sqrt(sigma2) * x[:, :n]


def simulate_fbm_path(
    hurst: float, sigma2: float, n: int, grid: float, seed=0
) -> TickSeries:
    """Fractional Brownian motion sampled every ``grid`` time units.

    Unit-grid increments are generated exactly, cumulated, then rescaled by
    grid**hurst (self-similarity), so Var X(t) = sigma2 * t**(2*hurst).
    """
    spec = ProcessSpec("fbm", hurst=hurst, sigma2=sigma2)
    rng = np.random.default_rng(_seed_key(seed))
    inc = fgn(n, spec.hurst, spec.sigma2, rng)[0]
    values = np.concatenate([[0.0], np.cumsum(inc)]) * grid**hurst
    times = grid * np.arange(n + 1, dtype=np.float64)
    return TickSeries(times=times, values=values, meta=f"fbm H={hurst}")


# ---------------------------------------------------------------------------
# generic path-based extraction
# ---------------------------------------------------------------------------

def extract_crossings(
    path: InterpolatedPath, delta: float, origin: float = 0.0
) -> CrossingChain:
    """Level-0 crossing chain of any interpolated path, with durations.

    Shares the first-passage kernel used by the tree builder, so the values
    agree with the tree's level-0 layer exactly.
    """
    s = path.series
    hit_t, hit_k = lattice_events(s.times, s.values, delta, origin)
    if hit_k.size < 2:
        raise ValueError("path completes no crossings at this scale")
    return CrossingChain(
        values=origin + hit_k * delta,
        delta=delta,
        durations=np.diff(hit_t),
        start_law="path",
    )
