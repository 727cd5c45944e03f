"""Batch studies, dataset analysis and report rendering."""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from . import dist_tests as dt
from . import indep_tests as it
from .calibrate import CalibrationResult
from .critical_values import load_all_tables
from .outcomes import SegmentOutcomes, Segments, TestOutcome
from .qv import GOF_TESTS, qv_rows, qv_tests
from .qv import (  # unused here; bench/tracing.py patches these names
    estimate_qv,
    normal_gof_tests,
    select_increment,
    time_change_increments,
)
from .series import TickSeries, load_ticks, log_transform
from .simulate import (ProcessSpec, _grid_block, simulate_crossings_batch,
                       simulate_fbm_paths)
from .simulate import simulate_fbm_path  # unused here; bench/tracing.py patches it
from .tree import (
    CrossingTree,
    TreeError,
    build_levels,
    build_tree,
    lattice_events,  # unused here; bench/tracing.py patches this name
    level0_hits,
    level_stats,
    multiple_crossing_shares,
    select_base_scale,
)


@dataclass(frozen=True)
class RosterEntry:
    """One test id: the segmented function that runs it, the level sample
    it reads ("counts" Z, their "twos" indicator bits or the "excursions"
    bits) and its table id, if any."""

    func: Callable[..., SegmentOutcomes]
    sample: str
    table: str | None = None


ROSTER = {
    "chi2": RosterEntry(dt.chi2_geometric_segments, "counts", "chi2_geometric"),
    "twos": RosterEntry(dt.twos_segments, "counts"),
    "g": RosterEntry(dt.g_segments, "counts"),
    "ks_discrete": RosterEntry(dt.ks_discrete_segments, "counts", "ks_discrete"),
    "klp": RosterEntry(dt.klp_nb_segments, "counts"),
    "joint": RosterEntry(it.joint_dist_segments, "counts"),
    "autocorr": RosterEntry(it.lag1_autocorr_segments, "counts", "autocorr"),
    "runs": RosterEntry(it.wald_wolfowitz_segments, "twos"),
    "larsen": RosterEntry(it.larsen_segments, "twos", "larsen"),
    "obrien76": RosterEntry(it.obrien76_segments, "twos", "obrien76"),
    "obrien85": RosterEntry(it.obrien_dyck85_segments, "twos"),
    "runs_ud": RosterEntry(it.wald_wolfowitz_segments, "excursions"),
    "larsen_ud": RosterEntry(it.larsen_segments, "excursions", "larsen"),
    "obrien76_ud": RosterEntry(it.obrien76_segments, "excursions", "obrien76"),
    "obrien85_ud": RosterEntry(it.obrien_dyck85_segments, "excursions"),
}
ALL_TESTS = tuple(ROSTER)

DELTA0_POLICIES = ("zero", "first", "latticed")

# path values the QV study simulates and tests at a time: a block's path
# and QV matrices take about 2.4 MB
QV_BLOCK_VALUES = 150_000

RUN_FIELDS = {  # the StudyConfig fields each run reads, and its JSON config holds
    "study": ("process", "n_paths", "n_crossings", "delta", "seed", "delta0_policy",
              "tests", "cv_dir", "fbm_grid", "fbm_horizon"),  # fbm_*: fBm only
    "analysis": ("delta", "log_transform", "delta0_policy", "tests", "cv_dir"),
    "qv": ("process", "n_paths", "seed", "qv_n_points", "qv_spacing", "qv_drop_last"),
}


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study needs; identical configs reproduce byte-identical
    reports."""

    process: ProcessSpec | None = None
    n_paths: int = 1000
    n_crossings: int = 1250
    delta: float | None = None
    delta0_policy: str = "latticed"
    tests: tuple = ALL_TESTS
    seed: int = 0
    cv_dir: str | None = None  # None: tables shipped with the package
    log_transform: bool = False
    fbm_grid: float = 1e-5
    qv_n_points: int = 1250
    qv_spacing: float = 1.0 / 250.0
    qv_drop_last: bool = False
    fbm_horizon: float | None = None  # None: scaling-rule guess with margin

    def __post_init__(self):
        if not self.tests:
            raise ValueError("test roster must be nonempty")
        if self.delta0_policy not in DELTA0_POLICIES:
            raise ValueError(f"delta0 policy must be one of {DELTA0_POLICIES}")
        unknown = set(self.tests) - set(ALL_TESTS)
        if unknown:
            raise ValueError(f"unknown tests: {sorted(unknown)}")
        for name, low in (("n_paths", 1), ("n_crossings", 2), ("seed", 0),
                          ("qv_n_points", 2)):
            if getattr(self, name) < low:
                raise ValueError(f"need {name} >= {low}, got {getattr(self, name)}")
        for name in ("delta", "fbm_grid", "fbm_horizon", "qv_spacing"):
            val = getattr(self, name)
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
        if not math.isfinite(self.qv_spacing * self.qv_n_points):
            raise ValueError("the qv grid's end qv_spacing * qv_n_points overflows")
        fbm = self.process is not None and self.process.kind == "fbm"
        for f in fields(self):
            if (f.name.startswith("fbm_") and not fbm
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"only an fbm process reads {f.name}")


def _samples(z: Segments, excursions: Segments) -> dict[str, Segments]:
    """The roster's samples: counts, their twos bits and excursion bits."""
    return {"counts": z, "twos": z.over((z.values == 2).astype(np.int8)),
            "excursions": excursions}


def run_test(test_id: str, samples: dict, tables: dict) -> SegmentOutcomes:
    """One roster test on every segment of one level.  A bit test on a
    segment without bits is skipped."""
    entry = ROSTER[test_id]
    sample = samples[entry.sample]
    args = (sample,) if entry.table is None else (sample, tables[entry.table])
    res = entry.func(*args)
    if entry.sample != "counts":
        res.skipped[sample.lengths == 0] = "no bits at this level"
    return res


def apply_tests_to_tree(
    tree: CrossingTree, roster, tables: dict
) -> dict[int, dict[str, TestOutcome]]:
    """Run the roster at every level of one tree.

    Each test reads the sample its roster entry names: the subcrossing
    counts, their twos-indicator bits, or the excursion bits of the same
    level.  A bit test on a level without bits, and any test that finds
    its sample degenerate (e.g. constant counts), is skipped.
    """
    levels = range(1, tree.max_level + 1)
    if not levels:
        return {}
    # the tree's levels are the segments: one call per test
    samples = _samples(Segments.of([tree.counts[l] for l in levels]),
                       Segments.of([tree.excursions[l] for l in levels]))
    res = {test_id: run_test(test_id, samples, tables) for test_id in roster}
    return {level: {test_id: res[test_id].outcome(i, test_id) for test_id in roster}
            for i, level in enumerate(levels)}


@dataclass
class StudyReport:
    label: str
    config: dict
    n_paths: int
    levels: list
    cells: dict  # (test_id, level) -> [n_rejected, n_tested]
    test_order: tuple

    def cell(self, test_id: str, level: int) -> tuple[int, int]:
        rej, tested = self.cells.get((test_id, level), (0, 0))
        return rej, tested

    def rejection_rate(self, test_id: str, level: int) -> float:
        return self.cell(test_id, level)[0] / self.n_paths


def _fbm_paths(cfg: StudyConfig, indices):
    spec = cfg.process
    # self-similar scaling gives the crossing-duration order of magnitude;
    # the margin absorbs the H-dependent constant
    horizon = cfg.fbm_horizon
    if horizon is None:
        per_crossing = (cfg.delta**2 / spec.sigma2) ** (1.0 / (2 * spec.hurst))
        horizon = 2.2 * cfg.n_crossings * per_crossing
    n_steps = int(math.ceil(horizon / cfg.fbm_grid))
    return simulate_fbm_paths(spec.hurst, spec.sigma2, n_steps, cfg.fbm_grid,
                              [[cfg.seed, i] for i in indices])


def _origin(cfg: StudyConfig, series: TickSeries) -> float | None:
    """The policy's lattice origin; None puts it on the median line."""
    return {"zero": 0.0, "first": float(series.values[0])}.get(cfg.delta0_policy)


def _study_hits(cfg: StudyConfig) -> Segments:
    """Every path's level-0 hit lines on the policy's lattice, one segment
    a path.  fBm paths are scanned as they arrive.  Each value of a chain
    is a hit on its site times delta, so a policy shifts a row of rounded
    quotients by 0, its first site or its median line, rounded as in ``level0_hits``."""
    chain = cfg.process.kind != "fbm"
    sites = np.empty((cfg.n_paths if chain else 0, cfg.n_crossings + 1), np.int64)
    hits = []  # fBm paths' hit lines
    paths = _fbm_paths(cfg, range(0 if chain else cfg.n_paths))
    with contextlib.closing(paths):  # joins its helper thread however the loop ends
        for i in range(cfg.n_paths):
            try:
                if chain:
                    values = simulate_crossings_batch(
                        cfg.process, cfg.delta, cfg.n_crossings, 1, [cfg.seed, i])[0]
                    np.rint(values / cfg.delta, out=sites[i], casting="unsafe")
                else:
                    series = next(paths)
                    hits.append(level0_hits(series, cfg.delta, _origin(cfg, series))[1])
            except (TreeError, ValueError) as exc:
                raise RuntimeError(f"path {i}: {exc}") from exc
    if not chain:
        return Segments.of(hits)
    if cfg.delta0_policy == "first":
        sites -= sites[:, :1]
    elif cfg.delta0_policy == "latticed":
        sites -= np.rint(np.median(sites[:, 1:], axis=1)).astype(np.int64)[:, None]
    return Segments.rows(sites)


def run_study(cfg: StudyConfig, label: str) -> StudyReport:
    """Simulate n_paths crossing records and build all their trees at
    once, one level at a time; run each roster test once per level over
    all paths and tally rejections per test and level."""
    if cfg.process is None or cfg.delta is None:
        raise ValueError("simulation studies need a process spec and delta")
    if cfg.process.kind == "expbm":
        raise ValueError("no crossing study simulates expbm")
    tables = load_all_tables(cfg.cv_dir)
    cells: dict = {}
    levels = []
    for _, _, z, excursions in build_levels(_study_hits(cfg)):
        levels.append(len(levels) + 1)
        samples = _samples(z, excursions)
        for test_id in cfg.tests:
            res = run_test(test_id, samples, tables)
            cells[(test_id, levels[-1])] = [int(res.rejected.sum()),
                                            int(res.applied.sum())]
    return StudyReport(
        label=label,
        config=_config_summary(cfg, "study"),
        n_paths=cfg.n_paths,
        levels=levels,
        cells=cells,
        test_order=cfg.tests,
    )


def run_type1_study(cfg: StudyConfig) -> StudyReport:
    return run_study(cfg, label="type1")


def run_power_study(cfg: StudyConfig) -> StudyReport:
    return run_study(cfg, label="power")


# ---------------------------------------------------------------------------
# dataset analysis
# ---------------------------------------------------------------------------

@dataclass
class LevelReport:
    label: str
    config: dict
    delta: float
    origin: float
    rows: list  # per level: level_stats, crossing shares and outcomes
    test_order: tuple


def analyze_series(series: TickSeries, cfg: StudyConfig,
                   label: str = "dataset") -> LevelReport:
    if cfg.log_transform:
        series = log_transform(series)
    delta = cfg.delta if cfg.delta is not None else select_base_scale(series)
    tree = build_tree(series, delta, _origin(cfg, series))
    tables = load_all_tables(cfg.cv_dir)
    outcomes = apply_tests_to_tree(tree, cfg.tests, tables)
    rows = [{**level_stats(tree, share["level"]), **share,
             "outcomes": outcomes.get(share["level"], {})}
            for share in multiple_crossing_shares(tree, series)]
    return LevelReport(
        label=label,
        config=_config_summary(cfg, "analysis"),
        delta=delta,
        origin=tree.origin,
        rows=rows,
        test_order=cfg.tests,
    )


def analyze_dataset(path: str, cfg: StudyConfig) -> LevelReport:
    series = load_ticks(path)
    return analyze_series(series, cfg, label=os.path.basename(path))


# ---------------------------------------------------------------------------
# quadratic-variation study
# ---------------------------------------------------------------------------

@dataclass
class QvStudyReport:
    label: str
    config: dict
    n_paths: int
    rows: list  # per c: rejection rates and mean tested count


def _qv_paths(cfg: StudyConfig, paths: range) -> np.ndarray:
    """Paths of ``cfg.process``, one a row, each from its own generator."""
    out = np.empty((len(paths), cfg.qv_n_points + 1))
    out[:, 0] = 1.0 if cfg.process.kind == "expbm" else 0.0
    steps = out[:, 1:]
    for i, row in zip(paths, steps):
        np.random.default_rng([cfg.seed, i]).standard_normal(out=row)
    steps *= math.sqrt(cfg.qv_spacing)
    _grid_block(cfg.process, out[:, 0], steps.T, cfg.qv_spacing, None, out=steps.T)
    return out


def run_qv_study(cfg: StudyConfig, c_values) -> QvStudyReport:
    """Rejection rates of the KS / CvM / SM baseline across the increment
    multiplier sweep; reported per c, never auto-selected.

    The paths are simulated in blocks of about QV_BLOCK_VALUES values, and
    for each c every path of a block is decided at once
    (``qv.qv_tests``).  It steps BM (the default) or exp-BM."""
    cfg = replace(cfg, process=cfg.process or ProcessSpec("bm"))
    if cfg.process.kind not in ("bm", "expbm"):
        raise ValueError(f"the qv study steps bm or expbm, not {cfg.process.kind!r}")
    c_values = list(c_values)
    if not c_values:
        raise ValueError("need at least one c value")
    bad = [c for c in c_values if not (math.isfinite(c) and c > 0)]
    if bad:
        raise ValueError(f"c values must be finite and positive, got {bad}")
    times = cfg.qv_spacing * np.arange(cfg.qv_n_points + 1)
    n_blocks = -(-cfg.n_paths * times.size // QV_BLOCK_VALUES)
    block = -(-cfg.n_paths // n_blocks)
    tested_n = [[] for _ in c_values]  # per c: the tested paths' sample sizes
    counts = np.zeros((len(c_values), len(GOF_TESTS), 2), dtype=np.int64)
    for start in range(0, cfg.n_paths, block):
        paths = _qv_paths(cfg, range(start, min(start + block, cfg.n_paths)))
        qv = qv_rows(times, paths)
        for j, c in enumerate(c_values):
            tested, res = qv_tests(paths, qv, c, cfg.qv_drop_last)
            tested_n[j].append(res["sm"].n_used[tested])
            # an untested path has an empty sample, which every test skips
            counts[j] += [(np.count_nonzero(res[key].rejected),
                           np.count_nonzero(res[key].applied))
                          for key in GOF_TESTS]
    rows = []
    for c, sizes, tally in zip(c_values, tested_n, counts.tolist()):
        sizes = np.concatenate(sizes)
        rows.append({
            "c": float(c),
            "mean_n_tested": float(np.mean(sizes)) if sizes.size else 0.0,
            **{key: tuple(val) for key, val in zip(GOF_TESTS, tally)},
        })
    return QvStudyReport(label="qv", config=_config_summary(cfg, "qv"),
                         n_paths=cfg.n_paths, rows=rows)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _config_summary(cfg: StudyConfig, run: str) -> dict:
    return {key: {"kind": val.kind, **val.params}
            if isinstance(val, ProcessSpec) else val for key in RUN_FIELDS[run]
            if not key.startswith("fbm_") or cfg.process.kind == "fbm"
            for val in [getattr(cfg, key)]}


def _json(payload) -> str:
    """Sorted, indented JSON; a value JSON has no type for is its str."""
    return json.dumps(payload, sort_keys=True, indent=1, default=str) + "\n"


def _fmt_cell(rej: int, tested: int, n_paths: int) -> str:
    if tested == 0:
        return "--"
    pct_all = 100.0 * rej / n_paths
    pct_tested = 100.0 * rej / tested
    return f"{pct_all:5.1f} ({pct_tested:5.1f}; {tested})"


def render_report(report, fmt: str = "text", out_path: str | None = None) -> str:
    """Serialise a study / level / qv report deterministically.

    Text mirrors the percent-of-all (percent-of-tested; number-tested)
    table cells; CSV is long-form and parses back to identical values; JSON
    is sorted and indented.
    """
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(report, StudyReport):
        text = _render_study(report, fmt)
    elif isinstance(report, LevelReport):
        text = _render_levels(report, fmt)
    elif isinstance(report, QvStudyReport):
        text = _render_qv(report, fmt)
    elif isinstance(report, CalibrationResult):
        text = _render_calibration(report, fmt)
    else:
        raise TypeError(f"cannot render {type(report).__name__}")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def _render_study(r: StudyReport, fmt: str) -> str:
    if fmt == "csv":
        lines = ["test,level,rejected,tested,n_paths"]
        for test_id in r.test_order:
            for level in r.levels:
                rej, tested = r.cell(test_id, level)
                lines.append(f"{test_id},{level},{rej},{tested},{r.n_paths}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({
            "label": r.label,
            "config": r.config,
            "n_paths": r.n_paths,
            "cells": {
                f"{t}@{l}": list(r.cell(t, l))
                for t in r.test_order for l in r.levels
            },
        })
    width = max(len(t) for t in r.test_order) + 2
    head = f"{r.label}: % of all (% of tested; # tested), {r.n_paths} paths"
    lines = [head, ""]
    lines.append(" " * width + "".join(f"level {l:<18}" for l in r.levels))
    for test_id in r.test_order:
        cells = "".join(
            f"{_fmt_cell(*r.cell(test_id, l), r.n_paths):<24}" for l in r.levels
        )
        lines.append(f"{test_id:<{width}}{cells}")
    half = 196.0 * math.sqrt(0.05 * 0.95 / r.n_paths)
    lines.append("")
    lines.append(f"binomial 95% half-width at a 5% rate: +-{half:.1f} points")
    return "\n".join(lines) + "\n"


def _fmt_outcome(res: TestOutcome | None) -> str:
    if res is None or not res.applied:
        return "--"
    flag = "*" if res.reject_at_5pct else " "
    if res.p_value is not None:
        return f"{res.p_value:.3f}{flag}"
    return ("<0.05*" if res.reject_at_5pct else ">0.05 ")


def _render_levels(r: LevelReport, fmt: str) -> str:
    levels = [row["level"] for row in r.rows]
    if fmt == "csv":
        lines = ["level,n_subx,n_ud,mean_prev_duration,ge2_pct,ge4_pct,"
                 "test,p_value,statistic,reject,skipped"]
        for row in r.rows:
            base = (f"{row['level']},{row['n_z'] if row['n_z'] is not None else ''},"
                    f"{row['n_v']},"
                    f"{'' if row['mean_duration_prev_level'] is None else repr(row['mean_duration_prev_level'])},"
                    f"{row['ge2_pct']!r},{row['ge4_pct']!r}")
            if not row["outcomes"]:
                lines.append(base + ",,,,,")
            for test_id in r.test_order:
                res = row["outcomes"].get(test_id)
                if res is None:
                    continue
                lines.append(
                    base + f",{test_id},"
                    f"{'' if res.p_value is None else repr(res.p_value)},"
                    f"{'' if res.statistic is None else repr(res.statistic)},"
                    f"{'' if res.reject_at_5pct is None else int(res.reject_at_5pct)},"
                    f"{res.skipped or ''}"
                )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({
            "label": r.label, "config": r.config, "delta": r.delta,
            "origin": r.origin,
            "levels": [
                {**row, "outcomes": {t: vars(o) for t, o in row["outcomes"].items()}}
                for row in r.rows
            ],
        })
    width = max(len(t) for t in r.test_order) + 2
    lines = [f"{r.label}: delta={r.delta!r} origin={r.origin!r}", ""]
    lines.append(" " * width + "".join(f"level {l:<10}" for l in levels))
    for name, key in (("# SubX", "n_z"), ("# UD pairs", "n_v")):
        vals = "".join(
            f"{'' if row[key] is None else row[key]:<16}" for row in r.rows
        )
        lines.append(f"{name:<{width}}{vals}")
    lines.append(
        f"{'mean xing len':<{width}}"
        + "".join(_fmt_scale(row["mean_duration_prev_level"]) for row in r.rows)
    )
    lines.append(
        f"{'>=2 xings %':<{width}}"
        + "".join(f"{row['ge2_pct']:<16.1f}" for row in r.rows)
    )
    lines.append(
        f"{'>=4 xings %':<{width}}"
        + "".join(f"{row['ge4_pct']:<16.1f}" for row in r.rows)
    )
    for test_id in r.test_order:
        cells = "".join(
            f"{_fmt_outcome(row['outcomes'].get(test_id)):<16}" for row in r.rows
        )
        lines.append(f"{test_id:<{width}}{cells}")
    return "\n".join(lines) + "\n"


def _fmt_scale(val) -> str:
    if val is None:
        return f"{'--':<16}"
    return f"{val:<16.4g}"


def _render_qv(r: QvStudyReport, fmt: str) -> str:
    if fmt == "csv":
        lines = ["c,mean_n_tested,ks_rej,ks_tested,cvm_rej,cvm_tested,"
                 "sm_rej,sm_tested,n_paths"]
        for row in r.rows:
            lines.append(
                f"{row['c']!r},{row['mean_n_tested']!r},"
                f"{row['ks'][0]},{row['ks'][1]},{row['cvm'][0]},{row['cvm'][1]},"
                f"{row['sm'][0]},{row['sm'][1]},{r.n_paths}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({"label": r.label, "config": r.config,
                      "n_paths": r.n_paths, "rows": r.rows})
    lines = [f"qv study: {r.n_paths} paths", "",
             f"{'c':>8} {'mean N':>8} {'KS %':>8} {'CvM %':>8} {'SM %':>8}"]
    for row in r.rows:
        def pct(key):
            rej, tested = row[key]
            return 100.0 * rej / tested if tested else float("nan")
        lines.append(
            f"{row['c']:>8.4g} {row['mean_n_tested']:>8.1f} "
            f"{pct('ks'):>8.2f} {pct('cvm'):>8.2f} {pct('sm'):>8.2f}"
        )
    return "\n".join(lines) + "\n"


def _render_calibration(r: CalibrationResult, fmt: str) -> str:
    payload = {k: v for k, v in vars(r).items()}
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        keys = sorted(payload)
        return (
            ",".join(keys) + "\n"
            + ",".join(json.dumps(payload[k], default=str) for k in keys) + "\n"
        )
    lines = [f"calibration: {r.kind} {r.params}, "
             f"target {r.n_crossings} crossings in t0={r.t0}"]
    if r.deltas_by_step:
        for m, d in sorted(r.deltas_by_step.items()):
            lines.append(f"  step 1e-{m}: delta = {d!r}")
    if r.fit_slope is not None:
        lines.append(f"  fit: slope={r.fit_slope!r} intercept={r.fit_intercept!r} "
                     f"rms={r.fit_rms!r}")
    lines.append(f"  delta = {r.delta!r}")
    if r.achieved_mean_window is not None:
        lines.append(f"  achieved window {r.achieved_mean_window!r} "
                     f"+- {r.achieved_ci_half!r}")
    for w in r.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"
