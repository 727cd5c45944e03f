"""Exact samplers for crossing chains and sample paths.

Diffusion crossing chains are exact nearest-neighbour walks on the
lattice of crossing lines, walked one path at a time from that path's own
generator.  One cached walk table per process and crossing size holds the
up-step probabilities from the scale function; a chain starts from a
point, from the OU equilibrium lattice law, or from the exact first hit
of the stationary Feller Gamma law.  The speed measure gives expected
crossing durations.  One Gauss-Legendre rule, vectorised over sites,
takes both integrals.  Nothing here steps time.  Fractional Brownian motion
comes from circulant embedding of the increment covariance.  The
crossings of any other sample path are the tree's level 0
(``tree.lattice_events``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .series import TickSeries

# Gauss-Legendre nodes and weights on [0, 1]: the rule for the scale
# function and the speed measure, whose integrands are smooth on a cell
GL_NODES, GL_WEIGHTS = 0.5 * (np.array(np.polynomial.legendre.leggauss(24))
                              + [[1.0], [0.0]])
OU_TRUNCATION_SDS = 10.0
FELLER_START_TAIL = 1e-13  # stationary Gamma tail cut by the Feller table
FBM_MAX_EMBED = 2 ** 26

# each process kind and the parameters it reads
PROCESS_PARAMS = {"bm": (), "bm_drift": ("alpha",), "ou": ("alpha", "sigma"),
                  "feller": ("kappa", "mu", "sigma"), "fbm": ("hurst", "sigma2")}
DIFFUSIONS = tuple(kind for kind in PROCESS_PARAMS if kind != "fbm")


@dataclass(frozen=True)
class ProcessSpec:
    """A process kind of ``PROCESS_PARAMS`` and the parameters it reads;
    a parameter the kind does not read keeps its default, and feller
    needs 2*kappa*mu/sigma**2 >= 1."""

    kind: str
    alpha: float = 0.0
    sigma: float = 1.0
    kappa: float = 0.0
    mu: float = 0.0
    hurst: float = 0.5
    sigma2: float = 1.0

    def __post_init__(self):
        if self.kind not in PROCESS_PARAMS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        for f in fields(self)[1:]:  # the parameters after kind
            if (f.name not in PROCESS_PARAMS[self.kind]
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{self.kind} does not read {f.name}")
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
        return self.kind in DIFFUSIONS

    @property
    def params(self) -> dict:
        """The parameters this kind reads, by name, in table order."""
        return {k: getattr(self, k) for k in PROCESS_PARAMS[self.kind]}


# ---------------------------------------------------------------------------
# scale function / speed measure
# ---------------------------------------------------------------------------

def _scale_density(spec: ProcessSpec, lo, hi):
    """The scale density s' of an OU or Feller spec, normalised by its
    maximum on each cell [lo, hi], as a function of nodes on a trailing
    axis; and the squared diffusion.  log s' is convex for both kinds, so
    the maximum lies at an end of the cell."""
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
    peak = np.maximum(log_sprime(lo), log_sprime(hi))[..., None]
    return (lambda u: np.exp(log_sprime(u) - peak)), diff_sq


def _check_interior(spec: ProcessSpec, x: float, delta: float) -> None:
    if delta <= 0:
        raise ValueError("delta must be positive")
    if spec.kind == "feller" and x - delta <= 0.0:
        raise ValueError("interval [x-delta, x+delta] touches the boundary 0")


def _gauss_legendre(f, a, width):
    """Integral of f over [a, a + width] by the 24-node Gauss-Legendre
    rule, elementwise in the arrays a and width; f takes the nodes on a
    trailing axis."""
    return width * np.sum(f(a[..., None] + width[..., None] * GL_NODES)
                          * GL_WEIGHTS, axis=-1)


def _scale_odds(spec: ProcessSpec, lo, x, hi) -> np.ndarray:
    """(S(x) - S(lo)) / (S(hi) - S(lo)) for the scale function S of an OU
    or Feller spec, elementwise in the arrays lo < x < hi: the probability
    that from x the process hits hi before lo."""
    lo, x, hi = (np.asarray(v, dtype=np.float64) for v in (lo, x, hi))
    sprime, _ = _scale_density(spec, lo, hi)
    below = _gauss_legendre(sprime, lo, x - lo)
    return below / (below + _gauss_legendre(sprime, x, hi - x))


def mean_crossing_times(spec: ProcessSpec, x, delta: float) -> np.ndarray:
    """Expected first-passage times to x +- delta from each site of the
    array x, for an OU or Feller spec: the speed-measure double integral,
    with the inner scale integral taken by the same rule at each outer
    node in turn.  Each inner width is a fraction of the outer width, not
    a difference of rounded nodes, which keeps the times to a few ulps far
    from 0."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = x - delta, x + delta
    sprime, diff_sq = _scale_density(spec, lo, hi)

    def speed(y):  # the speed density 2 / (sigma(y)**2 s'(y))
        return 2.0 / (diff_sq(y) * sprime(y[..., None])[..., 0])

    w_down, w_up = x - lo, hi - x
    up = down = 0.0
    # GL_NODES[::-1] is 1 - GL_NODES exactly: the nodes are symmetric
    for u, rest, w in zip(GL_NODES, GL_NODES[::-1], GL_WEIGHTS):
        y_up, y_down = x + w_up * u, lo + w_down * u
        up += w * speed(y_up) * _gauss_legendre(sprime, y_up, w_up * rest)
        down += w * speed(y_down) * _gauss_legendre(sprime, lo, w_down * u)
    p = _scale_odds(spec, lo, x, hi)
    return p * w_up * up + (1.0 - p) * w_down * down


def hitting_prob(spec: ProcessSpec, x: float, delta: float) -> float:
    """P(next lattice hit is x + delta | currently at x).

    Closed form from the scale function for BM and BM with drift; the
    scale-function odds of x in [x - delta, x + delta] for OU and Feller.
    """
    _check_interior(spec, x, delta)
    if spec.kind in ("bm", "bm_drift"):
        # (e**2ad - 1) / (e**2ad - e**-2ad), free of its cancellation at
        # small alpha, and exactly 1/2 at alpha = 0 (BM); where e**z
        # overflows, the same logistic as e / (1 + e)
        z = -2.0 * spec.alpha * delta
        try:
            return 1.0 / (1.0 + math.exp(z))
        except OverflowError:
            e = math.exp(-z)
            return e / (1.0 + e)
    return float(_scale_odds(spec, x - delta, x, x + delta))


def expected_crossing_time(spec: ProcessSpec, x: float, delta: float) -> float:
    """Expected first-passage time to x +- delta from x: closed form for
    BM and drift, ``mean_crossing_times`` for OU and Feller."""
    _check_interior(spec, x, delta)
    if spec.kind == "bm" or (spec.kind == "bm_drift" and spec.alpha == 0.0):
        return delta * delta
    if spec.kind == "bm_drift":  # delta (e**2ad - 1) / (a (e**2ad + 1))
        return delta * math.tanh(spec.alpha * delta) / spec.alpha
    return float(mean_crossing_times(spec, x, delta))


# ---------------------------------------------------------------------------
# exact crossing chains via the lattice walk
# ---------------------------------------------------------------------------

@functools.cache
def _walk_table(spec: ProcessSpec, delta: float) -> tuple[int, np.ndarray]:
    """Lowest site index and read-only up-step probabilities of the OU or
    Feller crossing walk on a truncated lattice.

    OU sites are i*delta with |i| * delta <= OU_TRUNCATION_SDS stationary
    sds (rounded up); Feller sites run from delta up to two sites beyond the
    stationary Gamma quantile 1 - FELLER_START_TAIL.  The end sites force
    the walk inward: Feller never touches 0, and either law leaves
    negligible mass beyond the truncation.
    """
    if spec.kind == "ou":
        sd = spec.sigma / math.sqrt(2.0 * spec.alpha)
        half = max(int(math.ceil(OU_TRUNCATION_SDS * sd / delta)), 2)
        lo, hi = -half, half
    else:
        a, b = _gamma_shape_scale(spec)
        q = special.gammainccinv(a, FELLER_START_TAIL) * b
        lo, hi = 1, int(math.ceil(q / delta)) + 2
    sites = np.arange(lo, hi + 1) * delta
    p_up = np.empty(sites.size)
    p_up[0], p_up[-1] = 1.0, 0.0
    inner = sites[1:-1]
    p_up[1:-1] = _scale_odds(spec, inner - delta, inner, inner + delta)
    p_up.flags.writeable = False  # shared by every caller
    return lo, p_up


def _stationary_law(p_up: np.ndarray) -> np.ndarray:
    """Stationary law of the walk on its table, from detailed balance
    pi[i+1] = pi[i] p[i] / (1 - p[i+1]); fails loudly when the truncation
    leaves visible mass at the ends."""
    logpi = np.zeros(p_up.size)
    for i in range(p_up.size - 1):
        logpi[i + 1] = (logpi[i] + math.log(p_up[i])
                        - math.log1p(-p_up[i + 1]))
    logpi -= logpi.max()
    pi = np.exp(logpi)
    pi /= pi.sum()
    if pi[0] + pi[-1] > 1e-10:
        raise ValueError("lattice truncation too small: boundary mass "
                         f"{pi[0] + pi[-1]:.2e}")
    return pi


def _gamma_shape_scale(spec: ProcessSpec) -> tuple[float, float]:
    """Shape and scale of the stationary Gamma law of a Feller spec."""
    return (2.0 * spec.kappa * spec.mu / spec.sigma**2,
            spec.sigma**2 / (2.0 * spec.kappa))


def _feller_first_hit(spec: ProcessSpec, delta: float, top: int,
                      rng: np.random.Generator) -> int:
    """First lattice site hit from a stationary Gamma draw, exactly.

    From x in the cell [i*delta, (i+1)*delta) the upper line is hit first
    with the scale-function odds of x in the cell; below delta the first
    hit is delta, since 0 is never reached.  The hit initialises the chain
    and is not itself a crossing.
    """
    a, b = _gamma_shape_scale(spec)
    x = rng.gamma(shape=a, scale=b)
    if x >= top * delta:
        raise ValueError(f"stationary draw {x!r} lies above the top walk "
                         f"site {top * delta!r}")
    i = math.floor(x / delta)
    if i == 0:
        return 1
    up = rng.random() < _scale_odds(spec, i * delta, x, (i + 1) * delta)
    return i + 1 if up else i


def _walk(start: int, uniforms: np.ndarray, p_up: np.ndarray) -> np.ndarray:
    """Nearest-neighbour walk over table indices from ``start``: up when
    the uniform falls below the up-step probability ``p_up`` of the
    current index, down otherwise.  Length: len(uniforms) + 1."""
    probs = p_up.tolist()
    # one allocation: a list grown by append leaves its outgrown buffers
    # in the malloc heap, which raised a power study's peak RSS by 12 MB
    # in some runs
    pos = [start] * (uniforms.size + 1)
    cur = start
    for k, u in enumerate(uniforms.tolist(), 1):
        cur = cur + 1 if u < probs[cur] else cur - 1
        pos[k] = cur
    return np.array(pos, dtype=np.int64)


def simulate_crossings_batch(
    spec: ProcessSpec,
    delta: float,
    n: int,
    n_paths: int,
    seed,
    start: float | str = "stationary",
) -> list[np.ndarray]:
    """Value sequences of ``n_paths`` independent crossing chains of n
    crossings each.

    ``start`` is a value, snapped to the lattice, or "stationary": the
    equilibrium lattice law for OU, the first hit from the stationary
    Gamma law for Feller, and 0 for BM, which has no stationary law.  A
    start outside the walk table raises ValueError.  Path i draws its
    start and then its steps from generator [seed, i] alone, so a path
    is the same whatever the batch it is simulated in.
    """
    if not spec.is_diffusion:
        raise ValueError("crossing chains require a diffusion spec")
    key = _seed_key(seed)
    out = []

    if spec.kind in ("bm", "bm_drift"):
        p = hitting_prob(spec, 0.0, delta)
        base = 0 if start == "stationary" else round(float(start) / delta)
        for i in range(n_paths):
            rng = np.random.default_rng(key + [i])
            steps = np.where(rng.random(n) < p, 1, -1)
            idx = base + np.concatenate([[0], np.cumsum(steps)])
            out.append(idx * delta)
        return out

    lo, p_up = _walk_table(spec, delta)
    top = lo + p_up.size - 1
    if start != "stationary":
        site = round(float(start) / delta)
        if not lo <= site <= top:
            raise ValueError(f"start {start!r} lies outside the walk table "
                             f"[{lo * delta!r}, {top * delta!r}]")
    elif spec.kind == "ou":
        cdf = np.cumsum(_stationary_law(p_up))
    for i in range(n_paths):
        rng = np.random.default_rng(key + [i])
        if start != "stationary":
            first = site
        elif spec.kind == "ou":
            first = lo + int(np.searchsorted(cdf, rng.random()))
        else:
            first = _feller_first_hit(spec, delta, top, rng)
        pos = _walk(first - lo, rng.random(n), p_up)
        out.append((pos + lo) * delta)
    return out


def _seed_key(seed) -> list:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    raise TypeError("seed must be an int or a sequence of ints")


# ---------------------------------------------------------------------------
# fractional Brownian motion (circulant embedding)
# ---------------------------------------------------------------------------

_EMBED_CACHE: dict = {}


def _fgn_sqrt_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """sqrt of the circulant eigenvalues embedding the unit-variance fGn
    covariance for n increments, grown until nonnegative definite: the
    half spectrum 0 .. m/2 of an embedding of size m, the rest being its
    mirror image."""
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
            sqrt_eig = np.sqrt(np.maximum(eig[: m // 2 + 1], 0.0))
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
    sigma2/2 (|j+1|^2H - 2|j|^2H + |j-1|^2H), by circulant embedding
    (Wood & Chan 1994; Dietrich & Newsam 1997).  The weighted Gaussian
    vector is Hermitian, so only its half spectrum 0 .. m/2 is drawn and
    one real-output transform of size m, ``scipy.fft.hfft`` (imported on
    the first call), gives the path.  The draws and the scalings go into
    one buffer in place; the result is a view of the transform's output.
    """
    from scipy import fft

    sqrt_eig = _fgn_sqrt_eigenvalues(n, hurst)
    half = sqrt_eig.size - 1
    m = 2 * half
    z = np.zeros((size, half + 1), dtype=np.complex128)  # the ends are real
    parts = z.view(np.float64)  # (re, im) pairs
    ends = rng.standard_normal((size, 2))
    for row in parts:  # row by row is the stream order of one (size, ...) draw
        rng.standard_normal(out=row[2:m])
    parts[:, 2:m] /= math.sqrt(2.0)
    parts[:, 0], parts[:, m] = ends[:, 0], ends[:, 1]
    z *= sqrt_eig
    x = fft.hfft(z, m, axis=1, overwrite_x=True)[:, :n]
    x /= math.sqrt(m)
    x *= math.sqrt(sigma2)
    return x


def simulate_fbm_path(
    hurst: float, sigma2: float, n: int, grid: float, seed=0
) -> TickSeries:
    """Fractional Brownian motion sampled every ``grid`` time units.

    Unit-grid increments are generated exactly, cumulated, then rescaled by
    grid**hurst (self-similarity), so Var X(t) = sigma2 * t**(2*hurst).
    """
    spec = ProcessSpec("fbm", hurst=hurst, sigma2=sigma2)
    rng = np.random.default_rng(_seed_key(seed))
    values = np.empty(n + 1, dtype=np.float64)
    values[0] = 0.0
    np.cumsum(fgn(n, spec.hurst, spec.sigma2, rng)[0], out=values[1:])
    values *= grid**hurst
    times = grid * np.arange(n + 1, dtype=np.float64)
    return TickSeries(times=times, values=values, meta=f"fbm H={hurst}")
