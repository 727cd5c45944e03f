"""The benchmark's tracer patches clmtree names from outside the package
(bench/tracing.py); a refactor that drops or renames one of them fails
here, not only in a traced benchmark run."""

import importlib.util
import os

from clmtree import calibrate, harness, simulate

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracing.py")


def test_tracer_installs_and_removes():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
