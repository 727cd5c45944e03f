"""Spans and counts recorded around calls into clmtree's layers.

The wrappers are installed from outside the package, on the names the
calling module looks up (``harness.build_tree``, ``dist_tests.g_test``,
...), for one traced round at a time.  Spans are kept in memory as
(name, start, end, parent); a layer's self time is its spans' durations
less the durations of their child spans.  Every time metric below is such
a self time, summed over the round.
"""

from __future__ import annotations

import logging
import time
from collections import Counter

from clmtree import calibrate, dist_tests, harness, indep_tests, simulate

# the per-layer metrics this module reports; BENCHMARK.json picks which
# of them a traced run prints
TEST_IDS = ("chi2", "twos", "g", "ks_discrete", "klp", "joint", "autocorr",
            "runs", "larsen", "obrien76", "obrien85",
            "runs_ud", "larsen_ud", "obrien76_ud", "obrien85_ud")
PASS_STEPS = (3, 4)
TIME_METRICS = (
    "series.load_s",
    "simulate.chain.bm_s", "simulate.chain.ou_s", "simulate.chain.feller_s",
    "simulate.fbm_s", "simulate.quadrature_s",
    "tree.anchor_s", "tree.build_s", "tree.diagnostics_s",
    "tests.roster_s", *(f"tests.{t}_s" for t in TEST_IDS),
    "critical_values.load_s",
    "qv.estimate_s", "qv.invert_s", "qv.gof_s",
    "calibrate.delta_mc_s", "calibrate.delta_ou_s",
    *(f"calibrate.pass_s.1e-{m}" for m in PASS_STEPS),
    "harness.study_self_s", "harness.qv_self_s", "harness.render_s",
)
COUNT_METRICS = (
    "series.ticks",
    "simulate.chain.calls", "simulate.chain.crossings", "simulate.fbm.points",
    "simulate.quadrature.calls",
    "tree.trees", "tree.crossings", "tree.levels",
    "tests.applied", "tests.skipped",
    "critical_values.lookups", "critical_values.fallbacks",
    "qv.tested",
    *(f"calibrate.passes.1e-{m}" for m in PASS_STEPS),
    "harness.report_bytes",
)
METRICS = TIME_METRICS + COUNT_METRICS


def _chain_span(spec, *args, **kwargs):
    kind = "bm" if spec.kind == "bm_drift" else spec.kind
    return f"simulate.chain.{kind}_s"


def _bit_test_span(base):
    def name(bits, *args, **kwargs):
        suffix = "_ud" if bits.origin == "excursions" else ""
        return f"tests.{base}{suffix}_s"
    return name


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._pass_clock = None
        self.pass_times = {m: [] for m in PASS_STEPS}
        self._patched = []
        self._handler = None
        self._saved_level = logging.NOTSET

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            span = [label, time.perf_counter(), None,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def _counted(self, fn, on_result):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, *args, **kwargs)
            return result

        return counted

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, module, attr, name, on_result=None):
        self._patch(module, attr,
                    self._wrap(getattr(module, attr), name, on_result))

    # -- counters ----------------------------------------------------------

    def _add(self, key, n=1):
        self.counts[key] += n

    def _on_chain(self, result, spec, delta, n, n_paths, *args, **kwargs):
        self._add("simulate.chain.calls")
        self._add("simulate.chain.crossings", n * n_paths)

    def _on_tree(self, tree, *args, **kwargs):
        self._add("tree.trees")
        self._add("tree.crossings", tree.n_crossings(0))
        self._add("tree.levels", tree.max_level)

    def _on_roster(self, outcomes, *args, **kwargs):
        for row in outcomes.values():
            for res in row.values():
                self._add("tests.applied" if res.applied else "tests.skipped")

    def _on_lookup(self, result, *args, **kwargs):
        self._add("critical_values.lookups")
        self._add("critical_values.fallbacks", int(result[1]))

    def _on_gof(self, outcomes, *args, **kwargs):
        self._add("qv.tested", int(outcomes["sm"].applied))

    def _on_render(self, text, *args, **kwargs):
        self._add("harness.report_bytes", len(text.encode("utf-8")))

    def _on_delta_mc_start(self, fn):
        def start(*args, **kwargs):
            self._pass_clock = time.perf_counter()
            return fn(*args, **kwargs)

        return start

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        s = self._span
        s(harness, "load_ticks", "series.load_s",
          lambda r, *a, **k: self._add("series.ticks", len(r)))
        s(harness, "simulate_crossings_batch", _chain_span, self._on_chain)
        s(harness, "simulate_fbm_path", "simulate.fbm_s",
          lambda r, *a, **k: self._add("simulate.fbm.points", len(r)))
        for module in (simulate, calibrate):
            for attr in ("hitting_prob", "expected_crossing_time"):
                s(module, attr, "simulate.quadrature_s",
                  lambda r, *a, **k: self._add("simulate.quadrature.calls"))
        s(harness, "lattice_events", "tree.anchor_s")
        s(harness, "build_tree", "tree.build_s", self._on_tree)
        s(harness, "multiple_crossing_shares", "tree.diagnostics_s")
        s(harness, "level_stats", "tree.diagnostics_s")
        s(harness, "apply_tests_to_tree", "tests.roster_s", self._on_roster)
        for attr, test_id in (("chi2_geometric_test", "chi2"),
                              ("twos_test", "twos"), ("g_test", "g"),
                              ("ks_discrete_test", "ks_discrete"),
                              ("klp_nb_test", "klp")):
            s(dist_tests, attr, f"tests.{test_id}_s")
        for attr, test_id in (("joint_dist_test", "joint"),
                              ("lag1_autocorr_test", "autocorr")):
            s(indep_tests, attr, f"tests.{test_id}_s")
        for attr, base in (("wald_wolfowitz_runs", "runs"),
                           ("larsen_test", "larsen"),
                           ("obrien76_test", "obrien76"),
                           ("obrien_dyck85_test", "obrien85")):
            s(indep_tests, attr, _bit_test_span(base))
        for module in (dist_tests, indep_tests):
            self._patch(module, "lookup_cv",
                        self._counted(module.lookup_cv, self._on_lookup))
        s(harness, "load_all_tables", "critical_values.load_s")
        s(harness, "estimate_qv", "qv.estimate_s")
        s(harness, "select_increment", "qv.invert_s")
        s(harness, "time_change_increments", "qv.invert_s")
        s(harness, "normal_gof_tests", "qv.gof_s", self._on_gof)
        s(calibrate, "delta_ou", "calibrate.delta_ou_s")
        s(calibrate, "delta_mc", "calibrate.delta_mc_s")
        self._patch(calibrate, "delta_mc",
                    self._on_delta_mc_start(calibrate.delta_mc))
        for attr in ("run_type1_study", "run_power_study", "analyze_dataset"):
            s(harness, attr, "harness.study_self_s")
        s(harness, "run_qv_study", "harness.qv_self_s")
        s(harness, "render_report", "harness.render_s", self._on_render)

        logger = logging.getLogger(calibrate.__name__)
        self._handler = _PassHandler(self)
        self._saved_level = logger.level
        logger.addHandler(self._handler)
        logger.setLevel(logging.DEBUG)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        logger = logging.getLogger(calibrate.__name__)
        logger.removeHandler(self._handler)
        logger.setLevel(self._saved_level)

    # -- results -----------------------------------------------------------

    def _record_pass(self, step_exponent: int) -> None:
        now = time.perf_counter()
        self.pass_times.setdefault(step_exponent, []).append(
            now - self._pass_clock)
        self._pass_clock = now

    def metrics(self) -> dict:
        """Self time per span name, counts, and per-pass calibration times."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in TIME_METRICS}
        out.update({name: 0 for name in COUNT_METRICS})
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        out.update(self.counts)
        for m, times in self.pass_times.items():
            out[f"calibrate.passes.1e-{m}"] = len(times)
            out[f"calibrate.pass_s.1e-{m}"] = (sum(times) / len(times)
                                               if times else 0.0)
        return out


class _PassHandler(logging.Handler):
    """Takes the end of each calibration pass from ``delta_mc``'s DEBUG
    record; its first argument is the step exponent."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("step 1e-") and record.args:
            self.tracer._record_pass(int(record.args[0]))
