"""The workload process: one closed-loop client running rounds of one
workload, one at a time, on a single thread.

Started by run.py.  It times its own set-up (importing clmtree and loading
the shipped critical-value tables) before it imports anything else that
needs numpy.  It then runs rounds until ``--seconds`` have passed and at
least MIN_ROUNDS were run, so that a slow first round, which fills the
program's in-process caches, does not set the median.  It checks the first round's
results, compares every round's report digests with the first round's and
prints one JSON line.  With ``--trace 1`` the rounds alternate untraced
and traced, starting untraced, so the tracing overhead is measured in the
same process against the untraced rounds after the first.
``--setup-only`` stops after the set-up.
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_ROUNDS = 3


def _setup() -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import clmtree

    clmtree.load_all_tables()
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(clmtree.__file__).startswith(SRC + os.sep):
        raise ImportError(f"clmtree imported from {clmtree.__file__}, "
                          f"not from {SRC}")
    return elapsed


def _run_round(workload, tracer=None):
    """Every operation of one round; returns the wall time, the results
    and rendered reports of the operations that returned, and the errors
    of those that raised."""
    results, reports, errors = {}, {}, []
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for name, op in workload.operations:
            try:
                results[name], texts = op()
            except Exception as exc:  # an operation failing is counted
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            reports.update(texts)
    finally:
        if tracer is not None:
            tracer.remove()
    return time.perf_counter() - t0, results, reports, errors


def _digests(reports: dict) -> dict:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(reports.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", default="")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup_s = _setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, HERE)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.inputs)
    walls = {False: [], True: []}  # round times, by whether traced
    tracers = []
    first = digests = None
    differing = []
    errors = []
    start = time.perf_counter()
    for rounds in itertools.count(1):
        traced = bool(args.trace) and rounds % 2 == 0
        tracer = tracing.Tracer() if traced else None
        wall, results, reports, round_errors = _run_round(workload, tracer)
        walls[traced].append(wall)
        if tracer is not None:
            tracers.append(tracer)
        errors.extend(round_errors)
        if first is None:
            first, digests = results, _digests(reports)
        elif _digests(reports) != digests:
            differing.append(rounds)
        if (rounds >= MIN_ROUNDS
                and time.perf_counter() - start >= args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, notes = workload.check(first)
    if differing:
        failures.append(f"rounds {differing} rendered reports that differ "
                        "from the first round's")
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "operations": len(workload.operations),
        "failed": len(errors),
        "errors": sorted(set(errors)),
        "failures": failures,
        "notes": notes,
        "digests": digests,
        "wall_s": walls[False],
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        out["traced_wall_s"] = walls[True]
        out["trace_overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False][1:]))
        per_round = [t.metrics() for t in tracers]
        out["layers"] = {name: sum(m[name] for m in per_round) / len(per_round)
                         for name in tracing.METRICS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
