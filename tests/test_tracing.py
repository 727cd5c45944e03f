"""The benchmark's tracer patches clmtree names from outside the package
(bench/tracing.py); a refactor that drops or renames one of them fails
here, not only in a traced benchmark run."""

import importlib.util
import logging
import math
import os

import numpy as np

from clmtree import calibrate, harness, simulate
from clmtree.series import TickSeries, save_ticks

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_removes():
    tracing = _tracing()
    originals = (simulate.hitting_prob, calibrate.hitting_prob,
                 harness.simulate_crossings_batch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert simulate.hitting_prob is not originals[0]
        assert harness.simulate_crossings_batch is not originals[2]
    finally:
        tracer.remove()
    assert (simulate.hitting_prob, calibrate.hitting_prob,
            harness.simulate_crossings_batch) == originals


def test_tracer_counts_the_chain_calls_of_a_study():
    """The tracer reads (spec, delta, n, n_paths) of each
    simulate_crossings_batch call by position."""
    cfg = harness.StudyConfig(
        process=simulate.ProcessSpec("ou", alpha=10.0, sigma=1.0),
        n_paths=2, n_crossings=300, delta=0.062945, seed=1, tests=("chi2",))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        harness.run_power_study(cfg)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["simulate.chain.calls"] == 2
    assert metrics["simulate.chain.crossings"] == 600
    assert metrics["simulate.chain.ou_s"] > 0


def test_tracer_times_the_tick_load(tmp_path):
    """The tracer times harness.load_ticks, the name analyze_dataset calls."""
    rng = np.random.default_rng(13)
    values = np.exp(np.cumsum(rng.standard_normal(3000)) * 1e-3)
    path = str(tmp_path / "ticks.csv")
    save_ticks(TickSeries(times=np.arange(values.size, dtype=float),
                          values=values), path)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        harness.analyze_dataset(path, harness.StudyConfig(tests=("chi2",)))
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["series.ticks"] == values.size
    assert metrics["series.load_s"] > 0


def test_tracer_counts_the_trees_built(tmp_path):
    """An analysis builds its tree with ``harness.build_tree``, so a traced
    analysis counts the tree and its level-0 crossings.  (Studies build
    all their paths' levels at once with ``build_levels`` and no longer
    call it.)"""
    rng = np.random.default_rng(14)
    series = TickSeries(times=np.arange(3000, dtype=float),
                        values=np.cumsum(rng.standard_normal(3000)))
    path = str(tmp_path / "ticks.csv")
    save_ticks(series, path)
    analysis = harness.StudyConfig(tests=("chi2",))
    trees = [harness.build_tree(series, harness.select_base_scale(series),
                                harness._origin(analysis, series))]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        harness.analyze_dataset(path, analysis)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    assert metrics["tree.trees"] == len(trees)
    assert metrics["tree.crossings"] == sum(t.n_crossings(0) for t in trees)


def test_delta_mc_logs_one_record_per_pass(caplog, monkeypatch):
    """The tracer's calibration pass counts and times come from
    ``delta_mc``'s DEBUG records: one per pass, whose message starts with
    "step 1e-" and whose first argument is the step exponent."""
    passes = []
    window = calibrate._mean_window_for_n_crossings

    def counted(spec, delta, step, *args):
        passes.append(round(-math.log10(step)))
        return window(spec, delta, step, *args)

    monkeypatch.setattr(calibrate, "_mean_window_for_n_crossings", counted)
    spec = simulate.ProcessSpec("feller", kappa=6.0, mu=0.2, sigma=1.0)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with caplog.at_level(logging.DEBUG, logger=calibrate.__name__):
            calibrate.delta_mc(spec, 50, 0.2, step_exponents=(2, 3),
                               n_paths=20, seed=3)
    finally:
        tracer.remove()
    records = [r for r in caplog.records if r.name == calibrate.__name__]
    assert len(passes) >= 3 and set(passes) == {2, 3}
    assert [r.args[0] for r in records] == passes
    assert all(r.levelno == logging.DEBUG and r.msg.startswith("step 1e-")
               for r in records)
    metrics = tracer.metrics()
    assert [metrics[f"calibrate.passes.1e-{m}"] for m in (2, 3)] \
        == [passes.count(m) for m in (2, 3)]
