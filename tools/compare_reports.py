"""Compare two output directories of `tools/reference_reports.py`.

    python3 tools/compare_reports.py A B

Prints the files present in only one directory.  For each JSON report whose
bytes differ it prints the changed records, paired by position, grouped by
(sample prefix, inequality) with their count and largest |delta ratio| and
|delta lhs| (a certificate has ratio 0 and keeps its `measured` value in
`lhs`, so only the second shows it move), the summary fields that moved, and
whether `summary.failure_count` moved.  Other files that differ (CSV
reports, side files) are listed by name.  Records and fields compare as
`json.dumps(sort_keys=True)` text, so floats compare by repr and NaN equals
NaN.  Exits 1 when the two file sets or any report's record count differ,
0 otherwise.  Standard library only.
"""
from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path


def text(value) -> str:
    return json.dumps(value, sort_keys=True)


def prefix(sample: str) -> str:
    """`ext-0003` -> `ext`; a name without a numeric tail is its own prefix."""
    head, _, tail = sample.rpartition("-")
    return head if head and tail.isdigit() else sample


def delta(old: dict, new: dict, key: str) -> float:
    """|new[key] - old[key]|, NaN when either is not a number."""
    try:
        return abs(float(new[key]) - float(old[key]))
    except (KeyError, TypeError, ValueError):
        return math.nan


def largest(values) -> float:
    """The largest of the values that are not NaN, NaN when there is none."""
    return max((v for v in values if v == v), default=math.nan)  # v == v skips NaN


def compare_report(name: str, old: dict, new: dict) -> bool:
    """Print how the report `name` changed; False when its record count did."""
    before, after = old.get("records", []), new.get("records", [])
    summary_old, summary_new = old.get("summary", {}), new.get("summary", {})
    counts = summary_old.get("failure_count"), summary_new.get("failure_count")
    moved = (f"failure_count {counts[0]} -> {counts[1]}" if counts[0] != counts[1]
             else f"failure_count unchanged ({counts[0]})")
    if len(before) != len(after):
        print(f"{name}: record count {len(before)} -> {len(after)}; {moved}")
        return False
    groups = defaultdict(list)
    for a, b in zip(before, after):
        if text(a) != text(b):
            groups[prefix(str(b.get("sample"))), str(b.get("inequality"))].append(
                (delta(a, b, "ratio"), delta(a, b, "lhs")))
    print(f"{name}: {sum(map(len, groups.values()))} of {len(after)} records changed; {moved}")
    for (sample, inequality), deltas in sorted(groups.items()):
        ratios, lhs = zip(*deltas)
        print(f"  {sample} {inequality}: {len(deltas)} records, max |dratio| {largest(ratios):.3g}, "
              f"max |dlhs| {largest(lhs):.3g}")
    fields = [key for key in sorted(set(summary_old) | set(summary_new))
              if text(summary_old.get(key)) != text(summary_new.get(key))]
    if fields:
        print(f"  summary fields moved: {', '.join(fields)}")
    for key in sorted((set(old) | set(new)) - {"records", "summary"}):
        if text(old.get(key)) != text(new.get(key)):
            print(f"  {key} changed")
    return True


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = Path(args[0]), Path(args[1])
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    same = names_a == names_b
    for label, only in ((a, names_a - names_b), (b, names_b - names_a)):
        for name in sorted(only):
            print(f"only in {label}: {name}")
    reports, others = [], []
    for name in sorted(names_a & names_b):
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        if name.endswith(".json"):
            reports.append(name)
            old, new = (json.loads((d / name).read_text()) for d in (a, b))
            if isinstance(old, dict) and isinstance(new, dict):
                same = compare_report(name, old, new) and same
            else:
                print(f"{name}: differs")
        else:
            others.append(name)
    for name in others:
        print(f"differs: {name}")
    json_count = sum(name.endswith(".json") for name in names_a & names_b)
    print(f"{len(reports)} of {json_count} JSON files and {len(others)} other files differ")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
