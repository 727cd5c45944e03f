"""Rendered reports compared byte for byte with committed golden files.

The goldens pin every decision, p-value and skip of the whole roster on
fixed seeds, so a refactor of the test layer that changes any of them
shows here.  Regenerate them (only when a change is meant to alter
reports, and say so) with

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import os
import sys

import numpy as np
import pytest

from clmtree.harness import (
    ALL_TESTS,
    StudyConfig,
    analyze_series,
    render_report,
    run_qv_study,
    run_type1_study,
)
from clmtree.series import TickSeries
from clmtree.simulate import ProcessSpec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("text", "csv")


def type1_report():
    """20 BM chains of 1250 crossings, all 15 tests: levels 1-4 reach both
    the tabulated and the asymptotic branch of every test."""
    cfg = StudyConfig(process=ProcessSpec("bm"), n_paths=20, n_crossings=1250,
                      delta=math.sqrt(0.004), tests=ALL_TESTS, seed=11)
    return run_type1_study(cfg)


def analyze_report():
    """One seeded BM grid path of 10^5 steps: level 1 holds more than
    1000 counts (the KS fallback), and the split chi-square is on."""
    rng = np.random.default_rng(12)
    values = np.r_[0.0, np.cumsum(rng.standard_normal(100_000) * 0.1)]
    series = TickSeries(times=np.arange(values.size, dtype=float),
                        values=values)
    cfg = StudyConfig(delta=0.25, tests=ALL_TESTS, chi2_splits=2)
    return analyze_series(series, cfg, label="bm-path")


def qv_report():
    cfg = StudyConfig(n_paths=20, seed=13)
    return run_qv_study(cfg, (20.0, 60.0, 100.0, 140.0))


REPORTS = {"type1": type1_report, "analyze": analyze_report, "qv": qv_report}


def _path(name, fmt):
    return os.path.join(GOLDEN, f"{name}.{fmt}")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    report = REPORTS[name]()
    for fmt in FORMATS:
        with open(_path(name, fmt), encoding="utf-8", newline="\n") as fh:
            expected = fh.read()
        assert render_report(report, fmt) == expected, f"{name}.{fmt}"


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, make in sorted(REPORTS.items()):
        report = make()
        for fmt in FORMATS:
            render_report(report, fmt, out_path=_path(name, fmt))
            print(f"wrote {_path(name, fmt)}", file=sys.stderr)
