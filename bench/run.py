"""Run one benchmark workload, or all of them, and print the metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; clmtree is imported from its
``src``.  The inputs are generated from the seed, the workload runs in a
fresh worker process (worker.py), and set-up is timed in that process and
in SETUP_PROBES more.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it give the report digests,
the round times, the check notes and, when tracing, the tracing overhead.
``--workload all`` runs every workload in turn and prints one summary line
for each.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170


def _worker(args: list) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
        check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> tuple[list, dict]:
    """Lines to print before the result, and the result object."""
    os.makedirs(WORK, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        setups = [_worker(["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
        if name == "fx-analyze":
            sys.path.insert(0, HERE)
            import ticks

            ticks.write_inputs(seed, inputs)
        res = _worker(["--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--inputs", inputs])
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    setups.append(res["setup_s"])

    lines = [json.dumps({"digests": res["digests"]}, sort_keys=True),
             json.dumps({"round_wall_s": res["wall_s"],
                         "traced_round_wall_s": res.get("traced_wall_s", []),
                         "setup_s": setups}),
             *res["notes"], *res["errors"], *res["failures"]]
    if trace:
        lines.append(json.dumps({
            "trace_overhead_s": res["trace_overhead_s"],
            "untraced_wall_s": statistics.median(res["wall_s"][1:]),
            "traced_wall_s": statistics.median(res["traced_wall_s"])}))
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(res["wall_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    return lines, {
        "correct": not res["failures"],
        "attempted": res["rounds"] * res["operations"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        p.error(f"unknown workload {args.workload!r}; known: {names} or all")
    if not os.path.isfile(os.path.join(ROOT, "src", "clmtree", "__init__.py")):
        print(f"no clmtree source under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload != "all":
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace, spec)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    results = {}
    for name in names:
        lines, results[name] = run_workload(name, args.seed, args.seconds,
                                            args.trace, spec)
        r = results[name]
        print(f"{name}: " + " ".join(
            f"{k}={v['value']:.6g} {v['unit']}"
            for k, v in r["metrics"].items())
            + f" attempted={r['attempted']} failed={r['failed']} "
            f"correct={str(r['correct']).lower()}", flush=True)
        if not r["correct"]:
            print("\n".join(lines[2:]))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
