"""Shared result and sample containers used by the test modules."""

from __future__ import annotations

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


@dataclass(frozen=True)
class ZSample:
    """Subcrossing counts at one tree level: even integers >= 2."""

    values: np.ndarray
    level: int = 0

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

    @property
    def n_ones(self) -> int:
        return int(self.bits.sum())

    @property
    def n_zeros(self) -> int:
        return len(self) - self.n_ones
