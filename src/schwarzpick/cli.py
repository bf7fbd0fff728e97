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

from .harness import FORMATS, SAMPLING_SUITES, SUITES, SWEEP_FAMILIES, ConfigError, SuiteConfig, emit, run_suite


def _add_settings(parser: argparse.ArgumentParser, suite: str) -> None:
    """The options of `suite`'s command: the SuiteConfig settings the suite reads, with their defaults, then the
    output."""
    parser.add_argument("--n", type=int, default=None, help="domain dimension")
    parser.add_argument("--m", type=int, default=SuiteConfig.m, help="codomain dimension")
    for flag, name, text in (("--samples", "samples", "sampled maps per suite"),
                             ("--degree", "degree", "polynomial degree cap"),
                             ("--kmax", "k_max", "maximum derivative order")):
        if name in SUITES[suite].reads:
            parser.add_argument(flag, dest=name, metavar=flag[2:].upper(), type=int,
                                default=getattr(SuiteConfig, name), help=text)
    parser.add_argument("--seed", type=int, default=SuiteConfig.seed,
                        help="64-bit seed; reports are seed-deterministic")
    parser.add_argument("--tol", type=float, default=SuiteConfig.tol,
                        help="ratio tolerance (violation: ratio above 1 + tol, or off its prediction by tol relative)")
    parser.add_argument("--out", type=str, default=None, help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default=FORMATS[0])


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `spv` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="spv", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", default=SuiteConfig.suite, choices=SAMPLING_SUITES)
    _add_settings(p_check, SuiteConfig.suite)  # every sampling suite reads the same settings

    _add_settings(sub.add_parser("equality", help="certify the equality cases"), "equality")

    p_sh = sub.add_parser("sharpness", help="run an asymptotic-sharpness sweep")
    p_sh.add_argument("--family", default=SuiteConfig.family, choices=tuple(SWEEP_FAMILIES))
    p_sh.add_argument("--radii", type=str, default=None, help="comma-separated |w| ladder, e.g. 0.9,0.99,0.999")
    _add_settings(p_sh, "sharpness")

    return parser


def _config(args) -> SuiteConfig:
    """The SuiteConfig of the parsed options; a setting the command does not take, or an --n or --radii not given,
    keeps its default (n = 1 for the disk suite).  Raises ConfigError for a --radii that is not a list of numbers."""
    suite = args.suite if args.command == "check" else args.command
    given = {name: getattr(args, name) for name in SUITES[suite].reads if getattr(args, name, None) is not None}
    if "radii" in given:
        try:
            given["radii"] = tuple(float(r) for r in args.radii.split(","))
        except ValueError:
            raise ConfigError(f"--radii must be comma-separated numbers: {args.radii!r}") from None
    if suite == "disk":
        given.setdefault("n", 1)
    return SuiteConfig(**{**given, "suite": suite})


def main(argv=None) -> int:
    """Run the command line's suite through `run_suite`, print its summary and write its report; returns the exit
    code."""
    args = build_parser().parse_args(argv)
    try:
        report = run_suite(_config(args))
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
