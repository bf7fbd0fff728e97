"""Correctness gate for benchmark passes over `spv` command lines.

An invocation counts as failed when any of these holds:
  - it exits non-zero (or raises);
  - its written report lacks an inequality id the suite's manifest
    (`harness.expected_ids`) requires;
  - re-running the same argv gives different report bytes;
  - a reference record misses its tolerance.

A reference record is one whose exact value is known: ratio 1 for the
equality cases (`aut-*` id 1.3, `ext-*` id 3.2, `k1-*` id 1.3), and the
closed-form `predicted` ratio for sharpness-sweep records.
"""
from __future__ import annotations

import json
import math

#: (sample prefix, inequality) of records whose ratio is exactly 1.
EQUALITY_CASES = {("aut", "1.3"), ("ext", "3.2"), ("k1", "1.3")}
EQUALITY_TOL = 1e-9
SWEEP_RTOL = 1e-6

#: The one id a single-family sharpness sweep reports.
SWEEP_FAMILY_ID = {"remark2": "4.1", "remark4": "5.3"}


def reference_errors(records):
    """Yield (relative error, tolerance) for every reference record."""
    for rec in records:
        if rec["kind"] != "bound":
            continue
        if "predicted" in rec:
            yield abs(rec["ratio"] - rec["predicted"]) / rec["predicted"], SWEEP_RTOL
        elif (rec["sample"].split("-")[0], rec["inequality"]) in EQUALITY_CASES:
            yield abs(rec["ratio"] - 1.0), EQUALITY_TOL


class Gate:
    """Checks each invocation's report and keeps the run's tallies."""

    def __init__(self, cli, harness):
        self._parser = cli.build_parser()
        self._expected_ids = harness.expected_ids
        self._first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digits = math.inf

    def _required_ids(self, argv) -> set[str]:
        args = self._parser.parse_args(argv)
        if args.command == "sharpness":
            # a single-family sweep reports only its family's manifest entry
            return {SWEEP_FAMILY_ID[args.family]} & set(self._expected_ids("sharpness", args.m))
        suite = args.suite if args.command == "check" else args.command
        return set(self._expected_ids(suite, args.m))

    def check(self, slot: int, argv, code, path) -> int:
        """Gate one invocation (`slot` is its position in the workload's
        list) and return the number of records its report holds."""
        self.attempted += 1
        problem, records = self._inspect(slot, argv, code, path)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(argv)}: {problem}")
        return records

    def _inspect(self, slot, argv, code, path):
        if code != 0:
            return f"exit code {code}", 0
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no report written ({exc})", 0
        if slot in self._first:
            first, verdict = self._first[slot]
            if data != first:
                return "report bytes differ from the first run of the same argv", 0
            return verdict
        verdict = self._verdict(argv, json.loads(data)["records"])
        self._first[slot] = (data, verdict)
        return verdict

    def _verdict(self, argv, records):
        missing = self._required_ids(argv) - {r["inequality"] for r in records}
        if missing:
            return f"report lacks ids {sorted(missing)}", len(records)
        for err, tol in reference_errors(records):
            self.digits = min(self.digits, -math.log10(max(err, 1e-16)))
            if not err <= tol:
                return f"reference record off by {err:.3e} (tolerance {tol:.0e})", len(records)
        return None, len(records)
