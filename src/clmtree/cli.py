"""Command-line front end: studies, dataset analysis, calibration, tables."""

from __future__ import annotations

import argparse
import sys

from .calibrate import delta_closed_form, delta_mc, delta_ou
from .critical_values import (
    SHIPPED_N_MC,
    SHIPPED_SEED,
    SHIPPED_TABLES,
    TABLES,
    generate_cv_table,
    save_table,
)
from .harness import (
    ALL_TESTS,
    StudyConfig,
    analyze_dataset,
    render_report,
    run_power_study,
    run_qv_study,
    run_type1_study,
)
from .simulate import ProcessSpec


def _add_process_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--process", default="bm",
                   choices=["bm", "bm_drift", "ou", "feller", "fbm"])
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--hurst", type=float, default=0.5)
    p.add_argument("--sigma2", type=float, default=1.0)


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-crossings", type=int, default=1250)
    p.add_argument("--n-paths", type=int, default=1000)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--delta0-policy", default="latticed",
                   choices=["zero", "first", "latticed"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tests", default=",".join(ALL_TESTS),
                   help="comma-separated test roster")
    p.add_argument("--cv-dir", default=None,
                   help="critical-value table directory (default: shipped)")
    p.add_argument("--out", default=None, help="output file")
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--log-transform", action="store_true")
    p.add_argument("--milstein-step", type=float, default=1e-5)
    p.add_argument("--fbm-grid", type=float, default=1e-5)
    p.add_argument("--config", default=None,
                   help="key=value file of defaults; flags override")


def _spec_from_args(args) -> ProcessSpec:
    return ProcessSpec(
        kind=args.process, alpha=args.alpha, sigma=args.sigma,
        kappa=args.kappa, mu=args.mu, hurst=args.hurst, sigma2=args.sigma2,
    )


def _config_from_args(args, dataset: str | None = None) -> StudyConfig:
    return StudyConfig(
        process=None if dataset else _spec_from_args(args),
        n_paths=args.n_paths,
        n_crossings=args.n_crossings,
        delta=args.delta,
        delta0_policy=args.delta0_policy,
        tests=tuple(t.strip() for t in args.tests.split(",") if t.strip()),
        seed=args.seed,
        cv_dir=args.cv_dir,
        log_transform=args.log_transform,
        milstein_step=args.milstein_step,
        fbm_grid=args.fbm_grid,
        qv_n_points=getattr(args, "n_points", 1250),
        qv_spacing=getattr(args, "spacing", 1.0 / 250.0),
        qv_process=getattr(args, "qv_process", "bm"),
        qv_drop_last=getattr(args, "drop_last", False),
        chi2_splits=getattr(args, "chi2_splits", 0),
    )


def _emit(report, args) -> None:
    text = render_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags, so explicit flags
    override the file."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    path = argv[idx + 1]
    extra: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
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
    rest = argv[1:idx] + argv[idx + 2 :]
    return argv[:1] + extra + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="clmtree",
        description="Crossing-tree and quadratic-variation tests for the "
                    "continuous martingale hypothesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_type1 = sub.add_parser("type1", help="null-process rejection study")
    _add_process_args(p_type1)
    _add_common_args(p_type1)

    p_power = sub.add_parser("power", help="alternative-process rejection study")
    _add_process_args(p_power)
    _add_common_args(p_power)

    p_an = sub.add_parser("analyze", help="per-level analysis of a tick file")
    p_an.add_argument("dataset")
    _add_process_args(p_an)
    _add_common_args(p_an)
    p_an.add_argument("--chi2-splits", type=int, default=0,
                      help="split-sample chi-square stationarity variant")

    p_qv = sub.add_parser("qv", help="quadratic-variation c-sweep study")
    _add_process_args(p_qv)
    _add_common_args(p_qv)
    p_qv.add_argument("--c-list", default="20,60,100,140")
    p_qv.add_argument("--n-points", type=int, default=1250)
    p_qv.add_argument("--spacing", type=float, default=1.0 / 250.0)
    p_qv.add_argument("--qv-process", default="bm", choices=["bm", "expbm"])
    p_qv.add_argument("--drop-last", action="store_true")

    p_cal = sub.add_parser("calibrate", help="crossing-scale determination")
    _add_process_args(p_cal)
    _add_common_args(p_cal)
    p_cal.add_argument("--t0", type=float, default=5.0)
    p_cal.add_argument("--step-exponents", default="3,4,5")

    p_gen = sub.add_parser("gen-cv", help="regenerate critical-value tables")
    p_gen.add_argument("--test", default="all", choices=["all", *TABLES],
                       help="table id, or 'all' for every shipped table")
    p_gen.add_argument("--n-mc", type=int, default=SHIPPED_N_MC)
    p_gen.add_argument("--seed", type=int, default=SHIPPED_SEED)
    p_gen.add_argument("--out", default="tables")
    p_gen.add_argument("--lengths", default=None,
                       help="comma list or lo:hi range; default per test")
    p_gen.add_argument("--quantiles", default=None, help="comma list")

    args = parser.parse_args(_apply_config_file(argv))

    if args.command in ("type1", "power"):
        cfg = _config_from_args(args)
        runner = run_type1_study if args.command == "type1" else run_power_study
        _emit(runner(cfg), args)
        return 0
    if args.command == "analyze":
        cfg = _config_from_args(args, dataset=args.dataset)
        _emit(analyze_dataset(args.dataset, cfg), args)
        return 0
    if args.command == "qv":
        cfg = _config_from_args(args)
        c_values = [float(c) for c in args.c_list.split(",") if c.strip()]
        _emit(run_qv_study(cfg, c_values), args)
        return 0
    if args.command == "calibrate":
        spec = _spec_from_args(args)
        if spec.kind in ("bm", "bm_drift"):
            report = delta_closed_form(spec, args.n_crossings, args.t0)
            print(f"delta = {report!r}")
            return 0
        if spec.kind == "ou":
            report = delta_ou(spec.alpha, spec.sigma, args.n_crossings, args.t0)
            print(f"delta = {report!r}")
            return 0
        exps = tuple(int(m) for m in args.step_exponents.split(","))
        result = delta_mc(spec, args.n_crossings, args.t0,
                          step_exponents=exps, n_paths=args.n_paths,
                          seed=args.seed)
        _emit(result, args)
        return 0
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
    return 1


def _parse_lengths(text: str):
    if ":" in text:
        lo, hi = text.split(":")
        return range(int(lo), int(hi) + 1)
    return [int(x) for x in text.split(",")]


if __name__ == "__main__":
    raise SystemExit(main())
