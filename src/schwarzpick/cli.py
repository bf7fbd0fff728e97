"""Command-line entry point.

Subcommands:
  check      run a sampling/verification suite (main, disk, partials, radial, origin)
  equality   certify the equality cases of the bounds
  sharpness  sweep an asymptotic-sharpness family toward the boundary

Exit codes: 0 all checks passed, 1 at least one violation, 2 configuration error
or a report that cannot be written.
"""
from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .harness import (
    DEFAULT_SWEEP_RADII,
    ConfigError,
    SuiteConfig,
    emit,
    equality_suite,
    run_suite,
    sharpness_sweep,
)

_SUITE_DEFAULT_N = {"disk": 1}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="domain dimension")
    parser.add_argument("--m", type=int, default=2, help="codomain dimension")
    parser.add_argument("--samples", type=int, default=20, help="sampled maps per suite")
    parser.add_argument("--degree", type=int, default=4, help="polynomial degree cap")
    parser.add_argument("--kmax", type=int, default=4, help="maximum derivative order")
    parser.add_argument("--seed", type=int, default=42, help="64-bit seed; reports are seed-deterministic")
    parser.add_argument("--tol", type=float, default=1e-8, help="slack tolerance (violation below -tol)")
    parser.add_argument("--out", type=str, default=None, help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `spv` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="spv", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", default="main",
                         choices=("main", "disk", "partials", "radial", "origin"))
    _add_common(p_check)

    p_eq = sub.add_parser("equality", help="certify the equality cases")
    _add_common(p_eq)

    p_sh = sub.add_parser("sharpness", help="run an asymptotic-sharpness sweep")
    p_sh.add_argument("--family", default="remark2", choices=("remark2", "remark4"))
    p_sh.add_argument("--radii", type=str, default=None,
                      help="comma-separated |w| ladder, e.g. 0.9,0.99,0.999")
    _add_common(p_sh)

    return parser


def _config(args, suite: str) -> SuiteConfig:
    n = args.n if args.n is not None else _SUITE_DEFAULT_N.get(suite, 2)
    return SuiteConfig(suite=suite, n=n, m=args.m, samples=args.samples, degree=args.degree,
                       k_max=args.kmax, seed=args.seed, tol=args.tol, out=args.out, fmt=args.fmt)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            config = _config(args, args.suite)
            report = run_suite(config)
        elif args.command == "equality":
            config = _config(args, "equality")
            report = equality_suite(config)
        else:
            config = _config(args, "sharpness")
            radii = DEFAULT_SWEEP_RADII
            if args.radii:
                try:
                    radii = tuple(float(r) for r in args.radii.split(","))
                except ValueError:
                    raise ConfigError(f"--radii must be comma-separated numbers: {args.radii!r}") from None
            report = sharpness_sweep(config, args.family, radii)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if config.out:
        try:
            emit(report, config.fmt, config.out)
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
    summary = report.summary
    print(f"suite={report.config['suite']} records={summary['record_count']} "
          f"failures={summary['failure_count']} min_slack={summary['min_slack']:.3e} "
          f"ratio=[{summary['min_ratio']:.3e}, {summary['max_ratio']:.3e}]")
    return 1 if summary["failure_count"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
