"""Rendered reports, and the level files ``export_tree`` writes, compared
byte for byte with committed golden files.

The goldens pin every decision, p-value and skip of the whole roster on
fixed seeds, so a refactor of the test layer that changes any of them
shows here.  Two ``delta_mc`` calibrations, rendered as JSON, pin the
Monte Carlo calibrator's grid paths, crossing counts and secant passes
the same way.  Regenerate them (only when a change is meant to alter
reports, and say so) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

from clmtree.calibrate import delta_mc
from clmtree.harness import (
    ALL_TESTS,
    StudyConfig,
    analyze_series,
    render_report,
    run_power_study,
    run_qv_study,
    run_type1_study,
)
from clmtree.series import TickSeries
from clmtree.simulate import ProcessSpec
from clmtree.tree import build_tree, export_tree

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
    1000 counts (the KS fallback)."""
    rng = np.random.default_rng(12)
    values = np.r_[0.0, np.cumsum(rng.standard_normal(100_000) * 0.1)]
    series = TickSeries(times=np.arange(values.size, dtype=float),
                        values=values)
    cfg = StudyConfig(delta=0.25, tests=ALL_TESTS)
    return analyze_series(series, cfg, label="bm-path")


def qv_report():
    cfg = StudyConfig(n_paths=20, seed=13)
    return run_qv_study(cfg, (20.0, 60.0, 100.0, 140.0))


def ou_report():
    """c10's study: 25 OU chains from the stationary lattice law, so the
    walk table, the start draw and the walk itself are pinned."""
    cfg = StudyConfig(process=ProcessSpec("ou", alpha=8.0, sigma=1.0),
                      n_paths=25, n_crossings=600, delta=0.063015, seed=1010)
    return run_type1_study(cfg)


def feller_report():
    """c05's process and crossing size on 20 paths: pins the Feller walk
    table, the exact first hit of the stationary start and the walk."""
    cfg = StudyConfig(process=ProcessSpec("feller", kappa=8.0, mu=0.2,
                                          sigma=1.0),
                      n_paths=20, n_crossings=5000, delta=0.028330, seed=505,
                      tests=("joint",))
    return run_power_study(cfg)


def fbm_report():
    """c06's process, crossing size and tests on 3 fBm paths of horizon 1
    (10^5 grid steps): pins the circulant-embedding draws, the fGn
    transform and the latticed tree of a long path."""
    cfg = StudyConfig(process=ProcessSpec("fbm", hurst=0.7, sigma2=1.0 / 250.0),
                      n_paths=3, delta=0.0010176, seed=606, fbm_horizon=1.0,
                      tests=("chi2", "twos", "g", "ks_discrete"))
    return run_power_study(cfg)


REPORTS = {"type1": type1_report, "analyze": analyze_report, "qv": qv_report,
           "ou": ou_report, "feller": feller_report, "fbm": fbm_report}


def calibrate_ou_report():
    """A single-resolution OU calibration: pins the exact AR(1) grid and
    the crossing count of a non-Feller kind."""
    spec = ProcessSpec("ou", alpha=8.0, sigma=1.0)
    return delta_mc(spec, 300, 1.2, step_exponents=(3,), n_paths=40, seed=2)


def export_level_files(out_dir):
    """Every level file ``export_tree`` writes for one seeded BM grid path
    on the lattice 0.1 + 0.25 Z: pins the start values off the origin and
    the ``repr`` digits of every time and value."""
    rng = np.random.default_rng(14)
    values = np.r_[0.0, np.cumsum(rng.standard_normal(2_000) * 0.1)]
    series = TickSeries(times=np.arange(values.size, dtype=float),
                        values=values)
    return export_tree(build_tree(series, 0.25, 0.1), out_dir)


EXPORT_GOLDEN = os.path.join(GOLDEN, "export")


def _path(name, fmt):
    return os.path.join(GOLDEN, f"{name}.{fmt}")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    report = REPORTS[name]()
    for fmt in FORMATS:
        with open(_path(name, fmt), encoding="utf-8", newline="\n") as fh:
            expected = fh.read()
        assert render_report(report, fmt) == expected, f"{name}.{fmt}"


def test_level_reports_print_plain_numbers():
    """The twos p-values and the twos and klp decisions of a level report
    render as plain numbers: JSON booleans, and no numpy repr in the CSV."""
    report = analyze_report()
    levels = json.loads(render_report(report, "json"))["levels"]
    outcomes = [res for level in levels for res in level["outcomes"].values()]
    assert {res["test_id"] for res in outcomes} >= {"twos", "klp"}
    for res in outcomes:
        assert res["reject_at_5pct"] is None or type(res["reject_at_5pct"]) is bool
        assert res["p_value"] is None or type(res["p_value"]) is float
    assert "np." not in render_report(report, "csv")


def _assert_json_golden(name, report):
    # calibrations are pinned as JSON, which writes every float as a number
    with open(_path(name, "json"), encoding="utf-8", newline="\n") as fh:
        expected = fh.read()
    assert render_report(report, "json") == expected, name


def test_feller_calibration_matches_golden(feller_coarse):
    """The shared coarse three-level Feller calibration: pins the Milstein
    grid, its positivity redraws, the bridge touches, the secant passes at
    every step size and the extrapolated delta."""
    _assert_json_golden("calibrate_feller", feller_coarse)


def test_ou_calibration_matches_golden():
    _assert_json_golden("calibrate_ou", calibrate_ou_report())


def test_export_tree_matches_golden(tmp_path):
    written = export_level_files(str(tmp_path))
    names = [os.path.basename(f) for f in written]
    assert sorted(names) == sorted(os.listdir(EXPORT_GOLDEN))
    for name in names:
        with open(os.path.join(EXPORT_GOLDEN, name), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / name).read_bytes() == expected, name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, make in sorted(REPORTS.items()):
        report = make()
        for fmt in FORMATS:
            render_report(report, fmt, out_path=_path(name, fmt))
            print(f"wrote {_path(name, fmt)}", file=sys.stderr)
    from conftest import coarse_feller_calibration
    for name, report in (("calibrate_feller", coarse_feller_calibration()),
                         ("calibrate_ou", calibrate_ou_report())):
        render_report(report, "json", out_path=_path(name, "json"))
        print(f"wrote {_path(name, 'json')}", file=sys.stderr)
    for fname in export_level_files(EXPORT_GOLDEN):
        print(f"wrote {fname}", file=sys.stderr)
