"""Command-line entry point: run experiments, list them, audit operators."""

from __future__ import annotations

import argparse
import sys

from . import io_utils
from .harness import EXPERIMENTS, parse_options, run_experiment
from .stabilization import audit_dmp


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dgmono",
        description="DMP-preserving dG convection-diffusion solver harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("-c", "--config", help="key=value config file")
    p_run.add_argument("-o", "--outdir", default="out")
    p_run.add_argument("overrides", nargs="*",
                       help="key=value option overrides")

    sub.add_parser("list", help="list available experiments")

    p_audit = sub.add_parser(
        "audit", help="check DMP conditions on exported operators")
    p_audit.add_argument("ktilde", help="MatrixMarket file of K~")
    p_audit.add_argument("btilde", help="MatrixMarket file of B~")
    p_audit.add_argument("alpha", help="CSV field file of detector values")
    p_audit.add_argument("-o", "--output", default="audit.csv")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "audit":
        Kt = io_utils.read_operator(args.ktilde)
        Bt = io_utils.read_operator(args.btilde)
        alpha = io_utils.read_field_csv(args.alpha)
        report = audit_dmp(Kt, Bt, alpha)
        io_utils.write_audit_csv(report, args.output)
        print(f"{len(report)} violation(s); report written to {args.output}")
        return 0

    try:
        report = run_experiment(args.experiment,
                                overrides=parse_options(args.overrides),
                                config_path=args.config, outdir=args.outdir)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in report.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
