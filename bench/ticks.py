"""Synthetic FX tick files, and checks on them computed apart from clmtree.

Each pair's log price is a Brownian motion run on an intraday-seasonal
clock, observed at Poisson tick times and rounded to the pip.  The tick
rate is set so that the log price moves by TICK_SD_PIPS pips between
ticks on average: most ticks repeat the last price (the median increment
is 0), and the overshoot of the rounded, discretely observed path over
each pip line makes its fine-scale crossings persistent, which is the
fine-scale departure the paper reports for FX rates.  Nothing here imports
clmtree.
"""

from __future__ import annotations

import math
import os

import numpy as np

N_TICKS = 400_000
TICK_SD_PIPS = 0.4
DAY_S = 86_400.0
TRADING_DAYS = 260.0
SEASON_AMPLITUDE = 0.6  # variance rate swings by +-60% over the day
SEASON_PEAK = 0.55  # fraction of the day at which activity peaks

# name, price at the start, decimals quoted (one pip = 10**-decimals),
# annual volatility; 2003 levels of the pairs the paper studies
PAIRS = (
    ("EURUSD", 1.1300, 4, 0.10),
    ("GBPUSD", 1.6350, 4, 0.08),
    ("AUDUSD", 0.6550, 4, 0.12),
    ("USDJPY", 115.90, 2, 0.10),
    ("EURGBP", 0.6920, 4, 0.07),
)


def generate_pair(seed: int, index: int):
    """Tick times in integer microseconds and prices in integer pips."""
    _, price, decimals, vol = PAIRS[index]
    rng = np.random.default_rng([seed, index])
    daily_var = vol * vol / TRADING_DAYS
    pip = 10.0 ** -decimals / price  # one pip as a log-price step
    mean_gap = DAY_S * (TICK_SD_PIPS * pip) ** 2 / daily_var
    gaps = rng.exponential(mean_gap, N_TICKS)
    t = np.cumsum(gaps)
    season = 1.0 + SEASON_AMPLITUDE * np.cos(
        2.0 * math.pi * (t / DAY_S - SEASON_PEAK))
    step_sd = np.sqrt(daily_var / DAY_S * season * gaps)
    log_price = math.log(price) + np.cumsum(
        rng.standard_normal(N_TICKS) * step_sd)
    pips = np.rint(np.exp(log_price) * 10**decimals).astype(np.int64)
    micros = np.cumsum(np.maximum(np.rint(gaps * 1e6), 1.0)).astype(np.int64)
    return micros, pips


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Zero-padded decimal digits of nonnegative integers, as ASCII bytes."""
    out = np.empty((values.size, width), dtype=np.uint8)
    rest = values.copy()
    for col in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        out[:, col] = digit + ord("0")
    if rest.any():
        raise ValueError(f"value wider than {width} digits")
    return out


def write_ticks(path: str, micros: np.ndarray, pips: np.ndarray,
                decimals: int) -> None:
    """Canonical ``time,value`` CSV, one fixed-width row per tick."""
    scale = 10**decimals
    whole, frac = np.divmod(pips, scale)
    cols = [
        _digits(micros, len(str(int(micros.max())))),
        np.full((pips.size, 1), ord(","), dtype=np.uint8),
        _digits(whole, len(str(int(whole.max())))),
        np.full((pips.size, 1), ord("."), dtype=np.uint8),
        _digits(frac, decimals),
        np.full((pips.size, 1), ord("\n"), dtype=np.uint8),
    ]
    with open(path, "wb") as fh:
        fh.write(b"time,value\n")
        fh.write(np.hstack(cols).tobytes())


def log_prices(pips: np.ndarray, decimals: int) -> np.ndarray:
    """Natural log of the quoted prices.  Integer pips over 10**decimals is
    the correctly rounded double, the same one a parser reads from the
    file."""
    return np.log(pips / 10**decimals)


def smallest_log_increment(pips: np.ndarray, decimals: int) -> float:
    inc = np.abs(np.diff(log_prices(pips, decimals)))
    return float(inc[inc > 0].min())


def subcrossing_counts(values, delta: float, origin: float) -> list[int]:
    """Number of complete crossings at levels 1, 2, ... of the path through
    ``values``, by plain first-passage scans.

    Level 0: walk the piecewise-linear path over the lines origin + k*delta
    and record each line reached that differs from the line reached last.
    Level l: walk that sequence of lines and record each multiple of 2**l
    that differs from the multiple recorded last.  A level-l crossing runs
    between consecutive level-l records, so the number of complete ones is
    the number of records less one; the scan stops at the first level with
    no complete crossing.
    """
    lines = []
    cur = None
    prev = (values[0] - origin) / delta
    if prev == math.floor(prev):
        cur = int(prev)
        lines.append(cur)
    for v in values[1:]:
        u = (v - origin) / delta
        if u > prev:
            passed = range(math.floor(prev) + 1, math.floor(u) + 1)
        elif u < prev:
            passed = range(math.ceil(prev) - 1, math.ceil(u) - 1, -1)
        else:
            passed = ()
        for k in passed:
            if k != cur:
                lines.append(k)
                cur = k
        prev = u
    counts = []
    size = 2
    while True:
        records = 0
        cur = None
        for k in lines:
            if k % size == 0 and k // size != cur:
                records += 1
                cur = k // size
        if records < 2:
            return counts
        counts.append(records - 1)
        size *= 2


def write_inputs(seed: int, directory: str) -> None:
    """One tick file per pair, and its prices in pips for the checks."""
    for index, (pair, _, decimals, _) in enumerate(PAIRS):
        micros, pips = generate_pair(seed, index)
        write_ticks(os.path.join(directory, f"{pair}.csv"), micros, pips,
                    decimals)
        np.save(os.path.join(directory, f"{pair}.npy"), pips)
