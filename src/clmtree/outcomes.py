"""Shared result and sample containers used by the test modules."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TestOutcome:
    """One statistical test applied to one sample.

    Exactly one of ``p_value`` / critical-value comparison drives
    ``reject_at_5pct``; when ``skipped`` is set there is no decision.
    """

    test_id: str
    n_used: int
    statistic: float | None = None
    p_value: float | None = None
    reject_at_5pct: bool | None = None
    skipped: str | None = None

    @property
    def applied(self) -> bool:
        return self.skipped is None


def skipped_outcome(test_id: str, n: int, reason: str) -> TestOutcome:
    return TestOutcome(test_id=test_id, n_used=n, skipped=reason)


class Segments:
    """One level's samples from many paths, end to end: segment i is
    ``values[starts[i] : starts[i] + lengths[i]]``; ``ids`` gives the
    segment of each value."""

    def __init__(self, values: np.ndarray, lengths):
        self.values = values
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.starts = self.lengths.cumsum() - self.lengths
        self._ids = None

    @classmethod
    def of(cls, samples) -> "Segments":
        return cls(np.concatenate(samples) if samples else np.zeros(0, np.int64),
                   [len(s) for s in samples])

    @classmethod
    def rows(cls, matrix: np.ndarray) -> "Segments":
        return cls(matrix.ravel(), np.full(matrix.shape[0], matrix.shape[1]))

    def __len__(self) -> int:
        return int(self.lengths.size)

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = np.repeat(np.arange(self.lengths.size), self.lengths)
        return self._ids

    def over(self, values: np.ndarray) -> "Segments":
        """The same segments over other values, sharing the offsets."""
        same = copy.copy(self)
        same.values, same._ids = values, self.ids
        return same

    def take(self, rows: np.ndarray) -> "Segments":
        """The segments at the increasing indices ``rows``."""
        if rows.size == len(self):
            return self
        lengths = self.lengths[rows]
        shift = np.repeat(self.starts[rows] - (lengths.cumsum() - lengths),
                          lengths)
        return Segments(self.values[shift + np.arange(shift.size)], lengths)

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """Per segment, the number of values where ``mask`` holds."""
        return np.bincount(self.ids[mask], minlength=len(self))


class SegmentOutcomes:
    """One test applied to each of many segments.

    ``statistic`` is NaN where skipped, ``p_value`` NaN where skipped or a
    table decides, ``rejected`` False where skipped, and ``skipped`` holds
    the skip reasons.
    """

    def __init__(self, n: np.ndarray):
        self.n_used = n
        self.statistic, self.p_value = np.full((2, n.size), np.nan)
        self.rejected = np.zeros(n.size, dtype=bool)
        self.applied = np.ones(n.size, dtype=bool)
        self.skipped = np.empty(n.size, dtype=object)

    def floor(self, n_min: int) -> None:
        self.skip(self.n_used < n_min, lambda n: f"n={n} below floor {n_min}")

    def skip(self, mask: np.ndarray, reason) -> None:
        """Skip the segments in mask not skipped yet; ``reason`` is a string
        or a function of the sample size."""
        mask = mask & self.applied
        self.applied[mask] = False
        self.skipped[mask] = ([reason(n) for n in self.n_used[mask].tolist()]
                              if callable(reason) else reason)

    def decide(self, rows, statistic, rejected, p_value=np.nan) -> None:
        self.statistic[rows] = statistic
        self.rejected[rows] = rejected
        self.p_value[rows] = p_value

    def outcome(self, i: int, test_id: str) -> TestOutcome:
        n = int(self.n_used[i])
        if not self.applied[i]:
            return skipped_outcome(test_id, n, self.skipped[i])
        p = None if np.isnan(self.p_value[i]) else float(self.p_value[i])
        return TestOutcome(test_id, n, statistic=float(self.statistic[i]),
                           p_value=p, reject_at_5pct=bool(self.rejected[i]))


DEGENERATE = "degenerate: "


def single_sample(segmented, test_id: str):
    """The single-sample form of a segmented test: a segment of one.  A
    degenerate sample raises ValueError, as it always has on this form."""
    def test(sample, *cv) -> TestOutcome:
        data = sample.values if isinstance(sample, ZSample) else sample.bits
        res = segmented(Segments(data, [data.size]), *cv)
        if (res.skipped[0] or "").startswith(DEGENERATE):
            raise ValueError(res.skipped[0][len(DEGENERATE):])
        return res.outcome(0, test_id)

    test.__doc__ = segmented.__doc__
    return test


def per_unique(fn, *keys) -> np.ndarray:
    """``fn(*key)`` for each segment's key (one int array per argument),
    called once per distinct key; a tuple result gives one column each."""
    cache: dict = {}
    return np.array([cache[key] if key in cache else cache.setdefault(key, fn(*key))
                     for key in zip(*(k.tolist() for k in keys))], dtype=np.float64)


def pymin(a, b):
    """Elementwise ``min(a, b)`` as Python takes it: a unless b < a."""
    return np.where(b < a, b, a)


@dataclass(frozen=True)
class ZSample:
    """Subcrossing counts at one tree level: even integers >= 2."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", v)
        if v.size and (np.any(v < 2) or np.any(v % 2 != 0)):
            raise ValueError("subcrossing counts must be even integers >= 2")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class BitSequence:
    """A 0/1 sequence, either twos-indicators of a ZSample or excursion bits."""

    bits: np.ndarray
    origin: str = "excursions"

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.int8)
        object.__setattr__(self, "bits", b)
        if b.size and not np.all((b == 0) | (b == 1)):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return int(self.bits.size)

