import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import clmtree
from clmtree.calibrate import delta_mc
from clmtree.harness import (
    ALL_TESTS,
    StudyConfig,
    _simulate_fbm,
    analyze_dataset,
    analyze_series,
    render_report,
    run_power_study,
    run_qv_study,
    run_type1_study,
)
from clmtree.series import TickSeries, save_ticks
from clmtree.simulate import ProcessSpec, simulate_crossings_batch
from clmtree.tree import build_tree

BM_DELTA = math.sqrt(0.004)


def jump_fixture(n=30_000, seed=12):
    """Tick stream whose moves often span several crossing sizes, with the
    jumps arriving in sticky volatility bursts: interpolation manufactures
    runs of direct crossings, the small-delta continuity signature."""
    rng = np.random.default_rng(seed)
    state = np.empty(n, dtype=bool)
    cur = False
    for i in range(n):
        cur = rng.random() < (0.985 if cur else 0.004)
        state[i] = cur
    u = rng.random(n)
    jump = u < np.where(state, 0.55, 0.02)
    inc = np.where(jump,
                   rng.choice([-1.0, 1.0], n) * rng.uniform(2.2, 4.5, n),
                   np.where(u > 0.6,
                            rng.standard_normal(n) * 0.25,
                            rng.choice([-1.0, 1.0], n) * rng.uniform(0.8, 1.2, n)))
    return TickSeries(times=np.arange(n + 1, dtype=float),
                      values=np.r_[0, np.cumsum(inc)])


def path_series(cfg, i):
    """Path i of a study as a tick series, as analysis would read it: an
    fBm path, or a chain's values at unit tick times."""
    if cfg.process.kind == "fbm":
        return _simulate_fbm(cfg, i)
    values = simulate_crossings_batch(cfg.process, cfg.delta, cfg.n_crossings,
                                      1, [cfg.seed, i])[0]
    return TickSeries(times=np.arange(values.size, dtype=float), values=values)


def bm_cfg(**kw):
    base = dict(process=ProcessSpec("bm"), n_paths=10, n_crossings=400,
                delta=BM_DELTA, seed=5)
    base.update(kw)
    return StudyConfig(**base)


class TestStudy:
    def test_roster_filtering(self):
        rep = run_type1_study(bm_cfg(tests=("twos",)))
        assert {t for t, _ in rep.cells} == {"twos"}

    def test_rerun_is_byte_identical(self):
        rep1 = run_type1_study(bm_cfg())
        rep2 = run_type1_study(bm_cfg())
        for fmt in ("text", "csv", "json"):
            assert render_report(rep1, fmt) == render_report(rep2, fmt)
        rep3 = run_type1_study(bm_cfg(seed=6))
        assert render_report(rep1, "csv") != render_report(rep3, "csv")

    def test_rejected_le_tested_le_paths(self):
        rep = run_type1_study(bm_cfg(n_paths=40))
        for (test_id, level), (rej, tested) in rep.cells.items():
            assert 0 <= rej <= tested <= rep.n_paths

    def test_delta0_policies_share_type1_behaviour(self):
        rates = {}
        for policy in ("zero", "first", "latticed"):
            rep = run_type1_study(bm_cfg(
                n_paths=150, n_crossings=1250, seed=9,
                delta0_policy=policy, tests=("chi2", "joint")))
            rates[policy] = rep.rejection_rate("chi2", 1)
        vals = list(rates.values())
        assert max(vals) - min(vals) < 0.05, rates

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            bm_cfg(tests=())
        with pytest.raises(ValueError, match="unknown tests"):
            bm_cfg(tests=("nope",))
        with pytest.raises(ValueError, match="policy"):
            bm_cfg(delta0_policy="median")

    @pytest.mark.parametrize("cfg", [
        StudyConfig(process=ProcessSpec("bm"), n_paths=2),
        StudyConfig(delta=BM_DELTA, n_paths=2),
    ], ids=["no-delta", "no-process"])
    def test_study_needs_process_and_delta_before_simulating(self, cfg,
                                                             monkeypatch):
        from clmtree import harness

        def simulate(*args, **kwargs):
            raise AssertionError("simulated a path")

        monkeypatch.setattr(harness, "simulate_crossings_batch", simulate)
        with pytest.raises(ValueError, match="need a process spec and delta"):
            run_type1_study(cfg)

    def test_roster_entries_resolve(self):
        from clmtree.critical_values import TABLES
        from clmtree.harness import ROSTER

        assert ALL_TESTS == tuple(ROSTER)
        for test_id, entry in ROSTER.items():
            assert callable(entry.func), test_id
            assert entry.sample in ("counts", "twos", "excursions"), test_id
            assert entry.table is None or TABLES[entry.table].lengths, test_id

    @pytest.mark.parametrize("cfg", [
        bm_cfg(n_paths=12, n_crossings=600),
        StudyConfig(process=ProcessSpec("ou", alpha=8.0, sigma=1.0), n_paths=8,
                    n_crossings=600, delta=0.063015, seed=3),
        bm_cfg(n_paths=6, n_crossings=300, delta0_policy="zero"),
        StudyConfig(process=ProcessSpec("feller", kappa=8.0, mu=0.2, sigma=1.0),
                    n_paths=6, n_crossings=600, delta=0.02833, seed=4,
                    delta0_policy="first"),
        StudyConfig(process=ProcessSpec("fbm", hurst=0.7, sigma2=1.0 / 250.0),
                    n_paths=3, delta=0.0010176, seed=2, fbm_horizon=0.5,
                    tests=("chi2", "twos", "runs_ud")),
    ], ids=["bm", "ou", "bm-zero", "feller-first", "fbm"])
    def test_cells_tally_the_per_tree_outcomes(self, cfg):
        """A study builds every path's levels together and decides each
        level of all paths in one call per test; its cells equal a tally
        of the per-tree outcomes."""
        from clmtree.critical_values import load_all_tables
        from clmtree.harness import apply_tests_to_tree, run_study, tree_for_series

        tables = load_all_tables()
        cells = {}
        for i in range(cfg.n_paths):
            tree = tree_for_series(cfg, path_series(cfg, i), cfg.delta)
            for level, row in apply_tests_to_tree(tree, cfg.tests, tables).items():
                for test_id, res in row.items():
                    cell = cells.setdefault((test_id, level), [0, 0])
                    if res.applied:
                        cell[1] += 1
                        cell[0] += bool(res.reject_at_5pct)
        assert run_study(cfg, "tally").cells == cells

    def test_simulator_failure_carries_path_index(self):
        cfg = bm_cfg(n_crossings=1)  # too short for any tree
        with pytest.raises(RuntimeError, match="path 0"):
            run_type1_study(cfg)


class TestAnalyze:
    def test_null_chain_mostly_clean(self):
        vals = np.asarray(
            __import__("clmtree.simulate", fromlist=["simulate_crossings_batch"])
            .simulate_crossings_batch(ProcessSpec("bm"), 1.0, 20_000, 1, 42)[0]
        )
        series = TickSeries(times=np.arange(vals.size, dtype=float), values=vals)
        rep = analyze_series(series, bm_cfg(delta=1.0))
        assert math.isclose(rep.delta, 1.0)
        rejected = applied = 0
        for row in rep.rows:
            for res in row["outcomes"].values():
                if res.applied and res.n_used >= 20:
                    applied += 1
                    rejected += bool(res.reject_at_5pct)
        assert applied >= 40
        assert rejected / applied <= 0.20

    def test_jump_fixture_flags_small_delta(self):
        series = jump_fixture()
        rep = analyze_series(series, bm_cfg(delta=None))
        assert rep.rows[0]["ge2_pct"] > 30.0
        level1 = rep.rows[1]["outcomes"]
        z_tests = [r for t, r in level1.items() if not t.endswith("_ud")]
        assert z_tests and all(r.applied for r in z_tests)
        assert all(r.reject_at_5pct for r in z_tests)

    def test_dataset_roundtrip_and_log_flag(self, tmp_path):
        rng = np.random.default_rng(13)
        vals = np.exp(np.cumsum(rng.standard_normal(4000)) * 1e-3) * 0.6
        series = TickSeries(times=np.arange(4000, dtype=float), values=vals)
        p = str(tmp_path / "ticks.csv")
        save_ticks(series, p)
        rep = analyze_dataset(p, bm_cfg(delta=None, log_transform=True))
        assert rep.rows  # ran end to end on the file
        text = render_report(rep, "text")
        assert "# SubX" in text and ">=2 xings %" in text

    def test_skip_markers_render(self):
        vals = np.array([0.0, 1, 2, 1, 2, 3, 4])
        series = TickSeries(times=np.arange(7.0), values=vals)
        rep = analyze_series(series, bm_cfg(delta=1.0, delta0_policy="zero"))
        text = render_report(rep, "text")
        assert "--" in text  # skipped cells are marked, never shown as 0%


class TestQvStudy:
    def test_single_c_single_row(self):
        cfg = bm_cfg(n_paths=40, qv_n_points=600)
        rep = run_qv_study(cfg, [60.0])
        assert len(rep.rows) == 1
        assert rep.rows[0]["mean_n_tested"] > 3

    def test_csv_roundtrip(self):
        cfg = bm_cfg(n_paths=25, qv_n_points=600)
        rep = run_qv_study(cfg, [20.0, 60.0])
        text = render_report(rep, "csv")
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [float(r["c"]) for r in rows] == [20.0, 60.0]
        for parsed, row in zip(rows, rep.rows):
            assert int(parsed["ks_rej"]) == row["ks"][0]
            assert float(parsed["mean_n_tested"]) == row["mean_n_tested"]

    def test_sawtooth_from_coarse_counts_and_drop_last_remedy(self):
        # exponential-martingale QV has a knee; with few tested values the
        # rejection rate wobbles in c unless the final increment is dropped
        cfg = bm_cfg(n_paths=250, qv_n_points=1250, qv_process="expbm", seed=30)
        cs = [150, 190, 230, 270, 310, 350]
        keep = run_qv_study(cfg, cs)
        drop = run_qv_study(StudyConfig(**{**vars(cfg), "qv_drop_last": True}), cs)

        def rates(rep):
            return [row["sm"][0] / max(row["sm"][1], 1) for row in rep.rows]

        spread_keep = max(rates(keep)) - min(rates(keep))
        spread_drop = max(rates(drop)) - min(rates(drop))
        assert spread_keep > spread_drop


class TestCli:
    def run_cli(self, *args):
        # the child imports the same clmtree as this process
        root = os.path.dirname(os.path.dirname(clmtree.__file__))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "clmtree.cli", *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    @pytest.mark.parametrize("argv, reason", [
        (["analyze", "{ticks}", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        (["qv", "--n-paths", "2", "--delta", "0.1"],
         "unrecognized arguments: --delta 0.1"),
        (["calibrate", "--tests", "twos"],
         "unrecognized arguments: --tests twos"),
        (["type1", "--delta", "0.0632", "--n-paths", "2", "--n-crossings",
          "150", "--log-transform"],
         "unrecognized arguments: --log-transform"),
        (["type1", "--delta", "0.0632", "--n-paths", "2", "--tests", "bogus"],
         "clmtree type1: error: unknown tests: ['bogus']"),
        (["power", "--process", "ou", "--delta", "0.0632", "--n-paths", "2"],
         "clmtree power: error: ou needs alpha > 0 and sigma > 0"),
        (["type1", "--n-paths", "2"],
         "the following arguments are required: --delta"),
        (["calibrate", "--process", "fbm"],
         "argument --process: invalid choice: 'fbm'"),
        (["calibrate", "--process", "bm", "--sigma", "3"],
         "clmtree calibrate: error: bm does not read sigma"),
        (["calibrate", "--process", "feller", "--kappa", "6", "--mu", "0.2",
          "--sigma", "1", "--n-paths", "5"],
         "clmtree calibrate: error: need n_paths >= 2, and even for feller"),
        (["qv", "--c-list", ","],
         "clmtree qv: error: need at least one c value"),
        (["qv", "--c-list=-1,0", "--n-paths", "3"],
         "clmtree qv: error: c values must be finite and positive, "
         "got [-1.0, 0.0]"),
        (["calibrate", "--process", "feller", "--kappa", "6", "--mu", "0.2",
          "--sigma", "1", "--n-paths", "4", "--step-exponents", ","],
         "clmtree calibrate: error: need distinct step exponents, got ()"),
        (["calibrate", "--process", "feller", "--kappa", "6", "--mu", "0.2",
          "--sigma", "1", "--n-paths", "4", "--step-exponents", "2,2"],
         "clmtree calibrate: error: need distinct step exponents, got (2, 2)"),
    ], ids=["analyze-unread", "qv-unread", "calibrate-unread", "type1-unread",
            "type1-bad-tests", "power-bad-spec", "type1-no-delta",
            "calibrate-not-diffusion", "calibrate-unread-param",
            "calibrate-odd-feller-paths", "qv-no-c", "qv-bad-c",
            "calibrate-no-step-exponents", "calibrate-repeated-step"])
    def test_usage_errors(self, argv, reason, tmp_path):
        """A flag the subcommand does not read, and a value the library
        refuses, are usage errors rather than tracebacks."""
        ticks = str(tmp_path / "t.csv")
        vals = np.cumsum(np.r_[0.0, np.random.default_rng(3).choice(
            [-1.0, 1.0], 500)])
        save_ticks(TickSeries(times=np.arange(vals.size, dtype=float),
                              values=vals), ticks)
        out = self.run_cli(*(a.format(ticks=ticks) for a in argv))
        assert out.returncode == 2, out.stderr
        assert reason in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_type1_csv(self):
        out = self.run_cli("type1", "--process", "bm", "--n-paths", "3",
                           "--n-crossings", "150", "--delta", "0.0632",
                           "--seed", "1", "--format", "csv", "--tests", "twos,g")
        assert out.returncode == 0
        assert out.stdout.startswith("test,level,rejected,tested,n_paths")

    def test_analyze_file(self, tmp_path):
        rng = np.random.default_rng(15)
        vals = np.cumsum(np.r_[0.0, rng.choice([-1.0, 1.0], 3000)])
        save_ticks(TickSeries(times=np.arange(vals.size, dtype=float),
                              values=vals), str(tmp_path / "t.csv"))
        out = self.run_cli("analyze", str(tmp_path / "t.csv"),
                           "--tests", "twos,runs", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["delta"] == 1.0

    def test_qv_subcommand(self):
        out = self.run_cli("qv", "--n-paths", "20", "--n-points", "600",
                           "--c-list", "40", "--seed", "2")
        assert out.returncode == 0 and "qv study" in out.stdout

    def test_calibrate_bm(self):
        out = self.run_cli("calibrate", "--process", "bm",
                           "--n-crossings", "1250", "--t0", "5")
        assert out.returncode == 0
        assert "0.0632455532" in out.stdout

    def test_calibrate_writes_out_in_the_chosen_format(self, tmp_path, capsys):
        from clmtree import cli

        out = tmp_path / "cal.json"
        assert cli.main(["calibrate", "--process", "bm_drift", "--alpha", "1",
                         "--n-crossings", "1250", "--t0", "5",
                         "--out", str(out), "--format", "json"]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        payload = json.loads(out.read_text())
        assert payload["kind"] == "bm_drift"
        assert payload["params"] == {"alpha": 1.0}
        # the root of delta tanh(delta) = 0.004 by mpmath.findroot at 50
        # digits, rounded to double
        assert payload["delta"] == 0.06328774783919686

    def test_gen_cv(self, tmp_path):
        out = self.run_cli("gen-cv", "--test", "chi2_geometric",
                           "--lengths", "14,15", "--n-mc", "10000",
                           "--seed", "3", "--out", str(tmp_path))
        assert out.returncode == 0
        assert list(tmp_path.glob("chi2_geometric__*.csv"))

    def test_gen_cv_usage_errors(self, tmp_path, capsys):
        from clmtree import cli

        for argv in (["gen-cv", "--test", "bogus"],
                     ["gen-cv", "--test", "twos", "--lengths", "10"],
                     ["gen-cv", "--test", "twos", "--quantiles", "0.95"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--out", str(tmp_path)])
            assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "no twos table ships" in err
        assert not list(tmp_path.iterdir())
        assert cli.main(["gen-cv", "--test", "twos", "--lengths", "10",
                         "--quantiles", "0.95", "--n-mc", "10000",
                         "--out", str(tmp_path)]) == 0
        assert list(tmp_path.glob("twos__*.csv"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("process=bm\nn-paths=2\nn-crossings=150\n"
                       "delta=0.0632\ntests=twos\nformat=json\n")
        out = self.run_cli("type1", "--config", str(cfg), "--format", "csv")
        assert out.returncode == 0
        assert out.stdout.startswith("test,level")  # flag overrode the file

    def test_config_file_in_equals_spelling(self, tmp_path, capsys):
        from clmtree import cli

        cfg = tmp_path / "study.cfg"
        cfg.write_text("tests=twos\nformat=csv\n")
        assert cli.main(["type1", f"--config={cfg}", "--n-paths", "2",
                         "--n-crossings", "150", "--delta", "0.0632"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("test,level")
        assert {row.split(",")[0] for row in out.splitlines()[1:]} == {"twos"}

    def test_config_usage_errors(self, tmp_path, capsys):
        from clmtree import cli

        missing = str(tmp_path / "missing.cfg")
        for argv in (["type1", "--config"], ["type1", "--config="],
                     ["type1", "--config", missing]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "--config: expected one argument" in err
        assert f"--config: can't open {missing!r}" in err

    def test_removed_chi2_splits_option_is_a_usage_error(self, tmp_path, capsys):
        from clmtree import cli

        rng = np.random.default_rng(14)
        vals = np.cumsum(np.r_[0.0, rng.choice([-1.0, 1.0], 3000)])
        ticks = str(tmp_path / "t.csv")
        save_ticks(TickSeries(times=np.arange(vals.size, dtype=float),
                              values=vals), ticks)
        cfg = tmp_path / "study.cfg"
        cfg.write_text("chi2_splits=2\n")
        for argv in (["analyze", ticks, "--chi2-splits", "2"],
                     ["analyze", ticks, "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.count("unrecognized arguments: --chi2-splits") == 2


def test_calibration_report_render(tmp_path):
    res = delta_mc(ProcessSpec("bm"), 200, 0.8, step_exponents=(3,),
                   n_paths=50, seed=7)
    text = render_report(res, "text", out_path=str(tmp_path / "cal.txt"))
    assert "delta =" in text
    assert (tmp_path / "cal.txt").read_text() == text
    parsed = json.loads(render_report(res, "json"))
    assert parsed["kind"] == "bm"


def test_permuting_counts_collapses_joint_rejection():
    """Dependence, not distribution, drives the joint test on mean-reverting
    chains: permuting the level-3 counts sends rejection back toward the
    test level."""
    from clmtree.indep_tests import joint_dist_test
    from clmtree.outcomes import ZSample
    from clmtree.simulate import simulate_crossings_batch

    spec = ProcessSpec("ou", alpha=8.0, sigma=1.0)
    d = 0.063015
    rng = np.random.default_rng(55)
    rej = rej_perm = used = 0
    for i in range(120):
        vals = simulate_crossings_batch(spec, d, 5000, 1, [550, i])[0]
        series = TickSeries(times=np.arange(vals.size, dtype=float), values=vals)
        cfg = StudyConfig(process=spec, n_paths=1, n_crossings=5000,
                          delta=d, seed=1)
        tree = build_tree(series, d, None)
        if tree.max_level < 3 or tree.counts[3].size < 10:
            continue
        used += 1
        z3 = tree.counts[3]
        rej += joint_dist_test(ZSample(z3)).reject_at_5pct
        rej_perm += joint_dist_test(ZSample(rng.permutation(z3))).reject_at_5pct
    assert used >= 100
    assert rej / used > 0.6
    assert rej_perm / used < 0.3
    assert rej_perm < rej


def test_lattice_median_anchor_on_chain():
    rng = np.random.default_rng(16)
    vals = 0.5 + np.cumsum(np.r_[0.0, rng.choice([-0.1, 0.1], 4000)])
    series = TickSeries(times=np.arange(vals.size, dtype=float), values=vals)
    anchor = build_tree(series, 0.1, None).origin
    assert math.isclose(anchor % 0.1, 0.0, abs_tol=1e-9) or \
        math.isclose(anchor % 0.1, 0.1, abs_tol=1e-9)
