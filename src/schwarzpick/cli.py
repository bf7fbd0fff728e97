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
    UNREAD,
    ConfigError,
    SuiteConfig,
    emit,
    equality_suite,
    run_suite,
    sharpness_sweep,
)


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """The options of `command`: the SuiteConfig settings its driver reads, with their defaults, then the output."""
    parser.add_argument("--n", type=int, default=None, help="domain dimension")
    parser.add_argument("--m", type=int, default=SuiteConfig.m, help="codomain dimension")
    for flag, name, text in (("--samples", "samples", "sampled maps per suite"),
                             ("--degree", "degree", "polynomial degree cap"),
                             ("--kmax", "k_max", "maximum derivative order")):
        if name not in UNREAD.get(command, ()):
            parser.add_argument(flag, dest=name, metavar=flag[2:].upper(), type=int,
                                default=getattr(SuiteConfig, name), help=text)
    parser.add_argument("--seed", type=int, default=SuiteConfig.seed,
                        help="64-bit seed; reports are seed-deterministic")
    parser.add_argument("--tol", type=float, default=SuiteConfig.tol, help="slack tolerance (violation below -tol)")
    parser.add_argument("--out", type=str, default=None, help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `spv` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="spv", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", default=SuiteConfig.suite,
                         choices=("main", "disk", "partials", "radial", "origin"))
    _add_settings(p_check, "check")

    _add_settings(sub.add_parser("equality", help="certify the equality cases"), "equality")

    p_sh = sub.add_parser("sharpness", help="run an asymptotic-sharpness sweep")
    p_sh.add_argument("--family", default="remark2", choices=("remark2", "remark4"))
    p_sh.add_argument("--radii", type=str, default=None, help="comma-separated |w| ladder, e.g. 0.9,0.99,0.999")
    _add_settings(p_sh, "sharpness")

    return parser


def _config(args) -> SuiteConfig:
    """The SuiteConfig of the parsed options; a setting the command does not take keeps its default."""
    suite = args.suite if args.command == "check" else args.command
    n = args.n if args.n is not None else 1 if suite == "disk" else SuiteConfig.n
    read = {name: getattr(args, name) for name in ("samples", "degree", "k_max") if name in args}
    return SuiteConfig(suite=suite, n=n, m=args.m, seed=args.seed, tol=args.tol, **read)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config(args)
    try:
        if args.command == "check":
            report = run_suite(config)
        elif args.command == "equality":
            report = equality_suite(config)
        else:
            radii = DEFAULT_SWEEP_RADII
            if args.radii is not None:
                try:
                    radii = tuple(float(r) for r in args.radii.split(","))
                except ValueError:
                    raise ConfigError(f"--radii must be comma-separated numbers: {args.radii!r}") from None
            report = sharpness_sweep(config, args.family, radii)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            emit(report, args.fmt, args.out)
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
