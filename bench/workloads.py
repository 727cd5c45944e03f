"""The four benchmark workloads: the calls one round makes, and the checks
on their results.

A round is a list of operations.  Each operation calls one clmtree entry
point and renders its report; the round's wall time runs from the first
call to the last rendered report.  Every round of a run repeats the same
operations on the same inputs.
"""

from __future__ import annotations

import math
import os

import numpy as np

from clmtree import calibrate, harness
from clmtree.harness import StudyConfig
from clmtree.simulate import ProcessSpec

import ticks

FORMATS = ("text", "csv", "json")
# per-check probability of a false alarm under the stated binomial law
ALPHA = 1e-6


def render_all(name: str, report) -> dict:
    return {f"{name}.{fmt}": harness.render_report(report, fmt)
            for fmt in FORMATS}


def binomial_bounds(n: int, p: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Smallest and largest counts k with P(X < k) and P(X > k) both above
    alpha/2 for X ~ Binomial(n, p): a two-sided acceptance region."""
    log_pmf = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
               + (k * math.log(p) if k else 0.0)
               + ((n - k) * math.log1p(-p) if n - k else 0.0)
               for k in range(n + 1)]
    pmf = [math.exp(v) for v in log_pmf]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def _rate_check(label: str, rejected: int, n: int, p: float,
                lower_only: bool = False) -> str | None:
    lo, hi = binomial_bounds(n, p, 2 * ALPHA if lower_only else ALPHA)
    if lower_only:
        hi = n
    if lo <= rejected <= hi:
        return None
    return (f"{label}: {rejected}/{n} rejected, outside [{lo}, {hi}] "
            f"around p={p}")


class NullStudy:
    """Size of the tree and QV tests on Brownian paths: c02, then c03."""

    name = "null-study"
    BM_DELTA = 1.0 / (5.0 * math.sqrt(10.0))
    TYPE1_PATHS = 200
    QV_PATHS = 400
    C_VALUES = (20.0, 60.0, 100.0, 140.0)

    def __init__(self, seed: int, inputs: str):
        self.type1 = StudyConfig(process=ProcessSpec("bm"),
                                 n_paths=self.TYPE1_PATHS, n_crossings=1250,
                                 delta=self.BM_DELTA, seed=seed)
        self.qv = StudyConfig(process=ProcessSpec("bm"),
                              n_paths=self.QV_PATHS, seed=seed,
                              qv_n_points=1250, qv_spacing=1.0 / 250.0,
                              delta=self.BM_DELTA)
        self.operations = (("type1", self._type1), ("qv", self._qv))

    def _type1(self):
        rep = harness.run_type1_study(self.type1)
        return rep, render_all("type1", rep)

    def _qv(self):
        rep = harness.run_qv_study(self.qv, self.C_VALUES)
        return rep, render_all("qv", rep)

    def check(self, results: dict) -> tuple[list, list]:
        failures, notes = [], []
        if "type1" in results:
            rep = results["type1"]
            for test_id in rep.test_order:
                rej, _ = rep.cell(test_id, 1)
                failures.append(_rate_check(f"type1 {test_id} level 1", rej,
                                            rep.n_paths, 0.05))
            notes.append("type1 level-1 rejections of "
                         f"{rep.n_paths}: " + " ".join(
                             f"{t}={rep.cell(t, 1)[0]}"
                             for t in rep.test_order))
        if "qv" in results:
            for row in results["qv"].rows:
                for key in ("ks", "cvm", "sm"):
                    rej, tested = row[key]
                    failures.append(_rate_check(
                        f"qv c={row['c']:g} {key}", rej, tested, 0.05))
            notes.append("qv rejections: " + "; ".join(
                f"c={row['c']:g} " + " ".join(
                    f"{k}={row[k][0]}/{row[k][1]}" for k in ("ks", "cvm", "sm"))
                for row in results["qv"].rows))
        return [f for f in failures if f], notes


class PowerStudy:
    """Power of the tree tests against OU (c04), Feller (c05) and fBm (c06),
    with fewer paths than the acceptance criteria."""

    name = "power-study"
    OU_PATHS = 40
    FELLER_PATHS = 30
    FBM_PATHS = 6
    FBM_TESTS = ("chi2", "twos", "g", "ks_discrete")

    def __init__(self, seed: int, inputs: str):
        self.configs = {
            "ou": StudyConfig(
                process=ProcessSpec("ou", alpha=10.0, sigma=1.0),
                n_paths=self.OU_PATHS, n_crossings=5000, delta=0.062945,
                seed=seed, tests=("chi2", "joint")),
            "feller": StudyConfig(
                process=ProcessSpec("feller", kappa=8.0, mu=0.2, sigma=1.0),
                n_paths=self.FELLER_PATHS, n_crossings=5000, delta=0.028330,
                seed=seed, tests=("joint",)),
            "fbm": StudyConfig(
                process=ProcessSpec("fbm", hurst=0.7, sigma2=1.0 / 250.0),
                n_paths=self.FBM_PATHS, n_crossings=1250, delta=0.0010176,
                seed=seed, fbm_horizon=5.0, tests=self.FBM_TESTS),
        }
        self.operations = tuple((kind, self._op(kind)) for kind in self.configs)

    def _op(self, kind):
        def run():
            rep = harness.run_power_study(self.configs[kind])
            return rep, render_all(kind, rep)
        return run

    # (study, test, level, the paper's rejection rate, one-sided)
    TARGETS = (
        ("ou", "chi2", 3, 0.775, False),
        ("ou", "joint", 3, 0.974, False),
        ("feller", "joint", 3, 0.812, False),
        *(("fbm", t, 1, 0.99, True) for t in FBM_TESTS),
    )

    def check(self, results: dict) -> tuple[list, list]:
        failures, notes = [], []
        for kind, test_id, level, p, lower_only in self.TARGETS:
            if kind not in results:
                continue
            rep = results[kind]
            rej, _ = rep.cell(test_id, level)
            failures.append(_rate_check(f"{kind} {test_id} level {level}",
                                        rej, rep.n_paths, p, lower_only))
            notes.append(f"{kind} {test_id} level {level}: "
                         f"{rej}/{rep.n_paths} (paper {p})")
        return [f for f in failures if f], notes


class FxAnalyze:
    """Per-level analysis of five generated FX tick files (``ticks``)."""

    name = "fx-analyze"
    DIST_TESTS = ("twos", "chi2", "g", "ks_discrete", "klp")

    def __init__(self, seed: int, inputs: str):
        self.inputs = inputs
        self.cfg = StudyConfig(log_transform=True, seed=seed)
        self.operations = tuple(
            (pair[0], self._op(pair[0])) for pair in ticks.PAIRS)

    def _op(self, pair):
        path = os.path.join(self.inputs, f"{pair}.csv")

        def run():
            rep = harness.analyze_dataset(path, self.cfg)
            return rep, render_all(pair, rep)
        return run

    def _pips(self, index):
        return np.load(os.path.join(self.inputs, f"{ticks.PAIRS[index][0]}.npy"))

    def check(self, results: dict) -> tuple[list, list]:
        failures, notes = [], []
        for index, (pair, _, decimals, _) in enumerate(ticks.PAIRS):
            if pair not in results:
                continue
            rep = results[pair]
            pips = self._pips(index)
            smallest = ticks.smallest_log_increment(pips, decimals)
            if rep.delta != smallest:
                failures.append(f"{pair}: delta {rep.delta!r} is not the "
                                f"smallest log increment {smallest!r}")
            level1 = rep.rows[1]["outcomes"] if len(rep.rows) > 1 else {}
            for test_id in self.DIST_TESTS:
                res = level1.get(test_id)
                if res is None or not res.applied or not res.reject_at_5pct:
                    failures.append(f"{pair}: {test_id} does not reject at "
                                    "level 1")
            if index == 0:
                scan = ticks.subcrossing_counts(
                    ticks.log_prices(pips, decimals).tolist(),
                    rep.delta, rep.origin)
                reported = [row["n_z"] for row in rep.rows[1:]]
                if scan != reported:
                    failures.append(f"{pair}: # SubX {reported} differ from "
                                    f"the first-passage scan {scan}")
                notes.append(f"{pair} # SubX by level: {reported} "
                             f"(scan {scan})")
            rejecting = [
                row["level"] for row in rep.rows[1:]
                if any(r.applied and r.reject_at_5pct
                       for t, r in row["outcomes"].items()
                       if t in self.DIST_TESTS)]
            notes.append(f"{pair}: delta={rep.delta:.6g}, levels "
                         f"{len(rep.rows) - 1}, a count test rejects at "
                         f"levels {rejecting}")
        return failures, notes


class CalibrateFeller:
    """Crossing-scale calibration: ``delta_mc`` for Feller at the c07
    parameters with fewer paths and step sizes, and ``delta_ou``.

    The Monte Carlo seed is fixed, not taken from the run's seed: the
    secant search takes from 3 to 13 passes per step size depending on
    the seed, so the work of one calibration would change threefold
    between seeds.  With a fixed seed every run does the same passes.
    """

    name = "calibrate-feller"
    MC_SEED = 20091127
    MC_PATHS = 40
    STEP_EXPONENTS = (3, 4)
    # exact delta at (kappa, mu, sigma, n, t0) = (6, 0.2, 1, 1250, 5), from
    # tests/oracle_calibration.py (the README gives the command)
    FELLER_EXACT = 0.027990
    # delta_mc's 95% half-width on delta, times this, bounds its error
    FELLER_WIDTHS = 3.0
    OU_REFERENCE = 0.063078
    OU_TOLERANCE = 5e-5

    def __init__(self, seed: int, inputs: str):
        self.spec = ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0)
        self.operations = (("delta_mc", self._mc), ("delta_ou", self._ou))

    def _mc(self):
        res = calibrate.delta_mc(self.spec, 1250, 5.0,
                                 step_exponents=self.STEP_EXPONENTS,
                                 n_paths=self.MC_PATHS, seed=self.MC_SEED)
        return res, render_all("delta_mc", res)

    def _ou(self):
        d = calibrate.delta_ou(8.0, 1.0, 1250, 5.0)
        # the CLI's rendering of `clmtree calibrate --process ou`
        return d, {"delta_ou.text": f"delta = {d!r}\n"}

    def check(self, results: dict) -> tuple[list, list]:
        failures, notes = [], []
        if "delta_mc" in results:
            res = results["delta_mc"]
            # the window grows like delta**2, so the window's relative
            # half-width is twice delta's
            half = res.delta * res.achieved_ci_half / (
                2.0 * res.achieved_mean_window)
            err = res.delta - self.FELLER_EXACT
            if abs(err) > self.FELLER_WIDTHS * half:
                failures.append(
                    f"delta_mc {res.delta!r} is {err:+.6f} from the exact "
                    f"{self.FELLER_EXACT}, beyond {self.FELLER_WIDTHS:g} x "
                    f"its 95% half-width {half:.6f}")
            notes.append(f"delta_mc {res.delta:.6f} +- {half:.6f} (95%), "
                         f"exact {self.FELLER_EXACT}; per step "
                         f"{res.deltas_by_step}")
        if "delta_ou" in results:
            d = results["delta_ou"]
            if abs(d - self.OU_REFERENCE) > self.OU_TOLERANCE:
                failures.append(f"delta_ou {d!r} not within "
                                f"{self.OU_TOLERANCE} of {self.OU_REFERENCE}")
            notes.append(f"delta_ou {d:.7f} (reference {self.OU_REFERENCE})")
        return failures, notes


WORKLOADS = {cls.name: cls for cls in
             (NullStudy, PowerStudy, FxAnalyze, CalibrateFeller)}

