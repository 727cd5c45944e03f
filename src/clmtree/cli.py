"""Command-line front end: studies, dataset analysis, calibration, tables.

Each subcommand declares only the flags its code path reads.  A flag not
given stays out of the parsed arguments, so the library's default applies.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .calibrate import CalibrationResult, delta_exact, delta_mc
from .critical_values import (
    SHIPPED_N_MC,
    SHIPPED_SEED,
    SHIPPED_TABLES,
    TABLES,
    generate_cv_table,
    save_table,
)
from .harness import (
    DELTA0_POLICIES,
    StudyConfig,
    analyze_dataset,
    render_report,
    run_power_study,
    run_qv_study,
    run_type1_study,
)
from .simulate import DIFFUSIONS, PROCESS_PARAMS, ProcessSpec

MC_ARGS = ("step_exponents", "n_paths", "seed")  # delta_mc's keywords


def _comma_list(kind):
    """An argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        return tuple(kind(x.strip()) for x in text.split(",") if x.strip())
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _add_process_args(p: argparse.ArgumentParser, kinds) -> None:
    p.add_argument("--process", dest="kind", default="bm", choices=kinds)
    params = (k for kind in kinds for k in PROCESS_PARAMS[kind])
    for name in dict.fromkeys(params):
        p.add_argument(f"--{name}", type=float)


def _add_roster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta0-policy", choices=DELTA0_POLICIES)
    p.add_argument("--tests", type=_comma_list(str),
                   help="comma-separated test roster (default: all)")
    p.add_argument("--cv-dir",
                   help="critical-value table directory (default: shipped)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file")
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--config",
                   help="key=value file of defaults; flags override")


def _fields(args: argparse.Namespace, cls) -> dict:
    """The parsed arguments that are fields of the dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names}


def _emit(report, args) -> None:
    if "out" in args:
        render_report(report, args.format, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(render_report(report, args.format))


def _apply_config_file(argv: list[str],
                       parser: argparse.ArgumentParser) -> list[str]:
    """Prepend key=value pairs from --config PATH (or --config=PATH) as
    flags, so explicit flags override the file."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            path = argv[idx + 1] if idx + 1 < len(argv) else ""
            rest = argv[1:idx] + argv[idx + 2 :]
            break
        if arg.startswith("--config="):
            path = arg.partition("=")[2]
            rest = argv[1:idx] + argv[idx + 1 :]
            break
    else:
        return argv
    if not path:
        parser.error("argument --config: expected one argument")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"argument --config: can't open {path!r}: "
                     f"{exc.strerror}")
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        val = val.strip()
        if val.lower() in ("true", "false"):
            if val.lower() == "true":
                extra.append(flag)
        else:
            extra.extend([flag, val])
    # keep the subcommand first; file values precede remaining flags so
    # explicit flags win
    return argv[:1] + extra + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="clmtree",
        description="Crossing-tree and quadratic-variation tests for the "
                    "continuous martingale hypothesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser,
                                   argument_default=argparse.SUPPRESS)

    for name, text in (("type1", "null-process rejection study"),
                       ("power", "alternative-process rejection study")):
        p = add_parser(name, help=text)
        _add_process_args(p, [*DIFFUSIONS, "fbm"])
        p.add_argument("--n-crossings", type=int)
        p.add_argument("--n-paths", type=int)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--fbm-grid", type=float)
        _add_roster_args(p)
        _add_output_args(p)

    p_an = add_parser("analyze", help="per-level analysis of a tick file")
    p_an.add_argument("dataset")
    p_an.add_argument("--delta", type=float,
                      help="crossing size (default: chosen from the data)")
    p_an.add_argument("--log-transform", action="store_true")
    _add_roster_args(p_an)
    _add_output_args(p_an)

    p_qv = add_parser("qv", help="quadratic-variation c-sweep study")
    _add_process_args(p_qv, ["bm", "expbm"])
    p_qv.add_argument("--n-paths", type=int)
    p_qv.add_argument("--seed", type=int)
    p_qv.add_argument("--c-list", type=_comma_list(float),
                      default=(20.0, 60.0, 100.0, 140.0))
    p_qv.add_argument("--n-points", dest="qv_n_points", type=int)
    p_qv.add_argument("--spacing", dest="qv_spacing", type=float)
    p_qv.add_argument("--drop-last", dest="qv_drop_last", action="store_true")
    _add_output_args(p_qv)

    p_cal = add_parser("calibrate", help="crossing-scale determination")
    _add_process_args(p_cal, DIFFUSIONS)
    p_cal.add_argument("--n-crossings", type=int, default=1250)
    p_cal.add_argument("--t0", type=float, default=5.0)
    p_cal.add_argument("--step-exponents", type=_comma_list(int),
                       help="feller only")
    p_cal.add_argument("--n-paths", type=int, help="feller only")
    p_cal.add_argument("--seed", type=int, help="feller only")
    _add_output_args(p_cal)

    p_gen = sub.add_parser("gen-cv", help="regenerate critical-value tables")
    p_gen.add_argument("--test", default="all", choices=["all", *TABLES],
                       help="table id, or 'all' for every shipped table")
    p_gen.add_argument("--n-mc", type=int, default=SHIPPED_N_MC)
    p_gen.add_argument("--seed", type=int, default=SHIPPED_SEED)
    p_gen.add_argument("--out", default="tables")
    p_gen.add_argument("--lengths", default=None,
                       help="comma list or lo:hi range; default per test")
    p_gen.add_argument("--quantiles", default=None, help="comma list")

    args = parser.parse_args(_apply_config_file(argv, parser))
    if args.command == "gen-cv":
        names = SHIPPED_TABLES if args.test == "all" else [args.test]
        for name in names:
            spec = TABLES[name]
            if spec.lengths is None and None in (args.lengths, args.quantiles):
                p_gen.error(f"no {name} table ships; give --lengths and "
                            "--quantiles")
            lengths = spec.lengths if args.lengths is None else \
                _parse_lengths(args.lengths)
            quantiles = spec.quantiles if args.quantiles is None else \
                tuple(float(q) for q in args.quantiles.split(","))
            table = generate_cv_table(name, lengths, quantiles,
                                      n_mc=args.n_mc, seed=args.seed)
            path = save_table(table, args.out)
            print(f"wrote {path}")
        return 0

    # a ValueError from the spec, the config or the run's own checks is a
    # usage error
    try:
        spec = ProcessSpec(**_fields(args, ProcessSpec)) if "kind" in args \
            else None
        cfg = None if args.command == "calibrate" else \
            StudyConfig(process=spec, **_fields(args, StudyConfig))
        if args.command == "calibrate":
            report = _calibrate(spec, args)
        elif args.command == "analyze":
            report = analyze_dataset(args.dataset, cfg)
        elif args.command == "qv":
            report = run_qv_study(cfg, args.c_list)
        else:
            runner = run_type1_study if args.command == "type1" \
                else run_power_study
            report = runner(cfg)
    except ValueError as exc:
        sub.choices[args.command].error(str(exc))
    _emit(report, args)
    return 0


def _calibrate(spec: ProcessSpec, args) -> CalibrationResult:
    """Monte Carlo calibration for Feller; exact for the rest, which read no MC_ARGS."""
    mc_args = {k: getattr(args, k) for k in MC_ARGS if k in args}
    if spec.kind == "feller":
        return delta_mc(spec, args.n_crossings, args.t0, **mc_args)
    if mc_args:
        raise ValueError(f"only feller's Monte Carlo reads {', '.join(mc_args)}")
    return CalibrationResult(
        kind=spec.kind, n_crossings=args.n_crossings, t0=args.t0,
        delta=delta_exact(spec, args.n_crossings, args.t0), params=spec.params)


def _parse_lengths(text: str):
    if ":" in text:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in text.split(",")]


if __name__ == "__main__":
    raise SystemExit(main())
