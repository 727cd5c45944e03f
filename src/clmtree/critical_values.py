"""Monte Carlo empirical critical values for small-sample test statistics.

Tables are generated once per (test id, generator version, seed, n_mc),
persisted as plain CSV with a provenance header, and served read-only.  The
quantile estimator is the order statistic at index ceil(q * m) over the m
valid simulated statistics (type-1 empirical quantile), so reruns match
bit for bit.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

import numpy as np

GENERATOR_VERSION = 1

# Seeds used for the tables shipped with the package.
SHIPPED_SEED = 20091127
SHIPPED_N_MC = 100_000

_GEOM_BINS = 64  # beyond-bin mass ~2**-64: unobservable at any n_mc here


class CriticalValueError(KeyError):
    pass


@dataclass(frozen=True)
class CriticalValueTable:
    test_id: str
    entries: dict  # (n, q) -> critical value
    n_mc: int
    seed: int
    version: int = GENERATOR_VERSION

    @property
    def max_n(self) -> int:
        return max(n for n, _ in self.entries)

    def filename(self) -> str:
        return (
            f"{self.test_id}__v{self.version}__s{self.seed}__m{self.n_mc}.csv"
        )


def lookup_cv(
    table: CriticalValueTable, n: int, q: float, fallback_to_max: bool = False
) -> tuple[float, bool]:
    """Stored critical value for (n, q).

    With ``fallback_to_max`` the largest tabulated length stands in for any
    longer request (the serving test's rule, e.g. the KS asymptote proxy);
    the second return flags that this happened.  Absent entries fail loudly.
    """
    key = (int(n), float(q))
    if key in table.entries:
        return table.entries[key], False
    if fallback_to_max and n > table.max_n:
        fb = (table.max_n, float(q))
        if fb in table.entries:
            return table.entries[fb], True
    raise CriticalValueError(
        f"no critical value for test={table.test_id!r} n={n} q={q}"
    )


# ---------------------------------------------------------------------------
# null batteries and the table registry
# ---------------------------------------------------------------------------

def _geometric_counts(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    return 2 * rng.geometric(0.5, size=(size, n))


def _stats_twos(n: int, n_mc: int, rng) -> np.ndarray:
    z = _geometric_counts(rng, n, n_mc)
    return (z == 2).sum(axis=1).astype(np.float64)


def _stats_chi2_geometric(n: int, n_mc: int, rng) -> np.ndarray:
    from .dist_tests import geometric_bin_probs, pearson_statistic

    probs = geometric_bin_probs(3)
    obs = rng.multinomial(n, probs, size=n_mc).astype(np.float64)
    return pearson_statistic(obs, n * probs)


def _stats_ks_discrete(n: int, n_mc: int, rng) -> np.ndarray:
    from .dist_tests import geometric_bin_probs, ks_statistic_from_counts

    counts = rng.multinomial(n, geometric_bin_probs(_GEOM_BINS), size=n_mc)
    return ks_statistic_from_counts(counts, n)


def _stats_autocorr(n: int, n_mc: int, rng) -> np.ndarray:
    from .indep_tests import lag1_autocorr_batch

    z = _geometric_counts(rng, n, n_mc).astype(np.float64)
    stat, valid = lag1_autocorr_batch(z)
    return stat[valid]


def _stats_obrien76(n: int, n_mc: int, rng) -> np.ndarray:
    from .indep_tests import obrien76_pivot_batch

    bits = rng.integers(0, 2, size=(n_mc, n), dtype=np.int8)
    stat, valid = obrien76_pivot_batch(bits)
    return stat[valid]


def _stats_larsen(n: int, n_mc: int, rng) -> np.ndarray:
    from .indep_tests import larsen_batch

    bits = rng.integers(0, 2, size=(n_mc, n), dtype=np.int8)
    stat, valid = larsen_batch(bits)
    return stat[valid]


@dataclass(frozen=True)
class TableSpec:
    """One table id: how its null statistic is simulated, which lengths
    and quantiles the package ships, and where the cutoff is placed.

    ``battery(n, n_mc, rng)`` returns the valid null statistics at length
    n.  ``lengths`` are the lengths the serving test may request; None
    means no table ships and the battery serves explicit requests only.
    ``nearest_size`` places each cutoff between the two adjacent atoms
    whose exceedance probability is nearest the nominal tail, instead of
    at the order statistic at index ceil(q * m).
    """

    battery: Callable[[int, int, np.random.Generator], np.ndarray]
    lengths: range | None = None
    quantiles: tuple = ()
    nearest_size: bool = False


TABLES = {
    # the exact binomial serves the twos test; its battery is the
    # generator's exact reference
    "twos": TableSpec(_stats_twos),
    "chi2_geometric": TableSpec(_stats_chi2_geometric, range(14, 40), (0.95,)),
    # The KS statistic is so discrete at small n that the plain
    # order-statistic quantile can leave the whole boundary atom on either
    # side of the cutoff, pushing the realised size far from nominal.
    "ks_discrete": TableSpec(_stats_ks_discrete, range(2, 1001), (0.95,),
                             nearest_size=True),
    "autocorr": TableSpec(_stats_autocorr, range(5, 101), (0.025, 0.975)),
    # below n=6 every applicable sample is degenerate
    "obrien76": TableSpec(_stats_obrien76, range(6, 21), (0.025, 0.975)),
    "larsen": TableSpec(_stats_larsen, range(3, 81), (0.025, 0.975)),
}

SHIPPED_TABLES = tuple(t for t, spec in TABLES.items() if spec.lengths)


def _nearest_size_cutoff(sims_sorted: np.ndarray, q: float) -> float:
    values, first_idx = np.unique(sims_sorted, return_index=True)
    m = sims_sorted.size
    exceed = 1.0 - (np.concatenate([first_idx[1:], [m]])) / m  # P(D > v_i)
    i = int(np.argmin(np.abs(exceed - (1.0 - q))))
    if i + 1 < values.size:
        return float(0.5 * (values[i] + values[i + 1]))
    return float(values[i])


def generate_cv_table(
    test_id: str,
    lengths,
    quantiles,
    n_mc: int = SHIPPED_N_MC,
    seed: int = SHIPPED_SEED,
) -> CriticalValueTable:
    """Simulate the null statistic at every length and store the requested
    empirical quantiles.

    Deterministic given the seed: each length draws from its own generator
    seeded by (seed, n), so results do not depend on evaluation order or
    parallelism.
    """
    if test_id not in TABLES:
        raise ValueError(f"unknown test id {test_id!r}; "
                         f"known: {sorted(TABLES)}")
    if n_mc < 10_000:
        raise ValueError("n_mc below 10,000 gives unusable quantiles")
    spec = TABLES[test_id]
    entries = {}
    for n in lengths:
        rng = np.random.default_rng([seed, int(n)])
        sims = np.sort(spec.battery(int(n), n_mc, rng))
        m = sims.size
        if m == 0:
            raise ValueError(
                f"{test_id}: no nondegenerate null statistic at n={n}; "
                "drop this length"
            )
        for q in quantiles:
            if spec.nearest_size:
                entries[(int(n), float(q))] = _nearest_size_cutoff(sims, q)
            else:
                idx = int(np.ceil(q * m)) - 1
                entries[(int(n), float(q))] = float(sims[min(max(idx, 0), m - 1)])
    return CriticalValueTable(
        test_id=test_id, entries=entries, n_mc=n_mc, seed=seed
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_table(table: CriticalValueTable, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, table.filename())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"test_id={table.test_id}\n")
        fh.write(f"seed={table.seed}\n")
        fh.write(f"n_mc={table.n_mc}\n")
        fh.write(f"version={table.version}\n")
        fh.write("n,q,value\n")
        for (n, q), v in sorted(table.entries.items()):
            fh.write(f"{n},{q!r},{v:.17g}\n")
    return path


def _parse_table(text: str) -> CriticalValueTable:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    header = {}
    body_start = 0
    for i, ln in enumerate(lines):
        if "=" in ln and "," not in ln:
            k, v = ln.split("=", 1)
            header[k.strip()] = v.strip()
        else:
            body_start = i
            break
    if lines[body_start] != "n,q,value":
        raise ValueError("malformed critical-value table: missing column row")
    entries = {}
    for ln in lines[body_start + 1 :]:
        n_s, q_s, v_s = ln.split(",")
        entries[(int(n_s), float(q_s))] = float(v_s)
    return CriticalValueTable(
        test_id=header["test_id"],
        entries=entries,
        n_mc=int(header["n_mc"]),
        seed=int(header["seed"]),
        version=int(header.get("version", GENERATOR_VERSION)),
    )


def load_table(path: str) -> CriticalValueTable:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_table(fh.read())


def load_table_dir(directory: str, test_id: str) -> CriticalValueTable:
    """Load the table for one test from a directory, preferring the largest
    n_mc when several generations coexist."""
    hits = sorted(
        f for f in os.listdir(directory)
        if f.startswith(test_id + "__") and f.endswith(".csv")
    )
    if not hits:
        raise CriticalValueError(f"no table for {test_id!r} in {directory}")
    tables = [load_table(os.path.join(directory, f)) for f in hits]
    return max(tables, key=lambda t: t.n_mc)


def shipped_table(test_id: str) -> CriticalValueTable:
    """Table bundled with the package (regenerate via the gen-cv command)."""
    pkg = resources.files("clmtree.tables")
    hits = sorted(
        p.name for p in pkg.iterdir()
        if p.name.startswith(test_id + "__") and p.name.endswith(".csv")
    )
    if not hits:
        raise CriticalValueError(f"no shipped table for {test_id!r}")
    return _parse_table((pkg / hits[-1]).read_text(encoding="utf-8"))


def load_all_tables(directory: str | None = None) -> dict:
    """The shipped tables the serving tests need, keyed by table id."""
    out = {}
    for test_id in SHIPPED_TABLES:
        if directory is None:
            out[test_id] = shipped_table(test_id)
        else:
            out[test_id] = load_table_dir(directory, test_id)
    return out
