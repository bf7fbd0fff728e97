"""Compare two output directories of `tools/reference_reports.py`.

    python3 tools/compare_reports.py A B

Prints the files present in only one directory.  For each JSON report whose
bytes differ it groups the records by (sample prefix, inequality) and prints
each group whose record count moved, with both counts; in the groups whose
count held it pairs the records by position and prints the changed ones per
group, with their count and largest |delta ratio| and |delta lhs| (a
certificate has ratio 0 and keeps its `measured` value in `lhs`, so only the
second shows it move).  Then come the summary fields that moved, the
`config` keys added, removed or changed, and whether `summary.failure_count`
moved.  Other files that differ (CSV reports, side files) are listed by
name.  Records and fields compare as `json.dumps(sort_keys=True)` text, so
floats compare by repr and NaN equals NaN.  Exits 1 when the two file sets
or the record count of any group of any report differ, 0 otherwise.
Standard library only.
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


def grouped(records: list) -> dict:
    """The records by (sample prefix, inequality), each group in report order."""
    groups = defaultdict(list)
    for rec in records:
        groups[prefix(str(rec.get("sample"))), str(rec.get("inequality"))].append(rec)
    return groups


def compare_report(name: str, old: dict, new: dict) -> bool:
    """Print how the report `name` changed; False when the record count of
    any of its groups did."""
    before, after = grouped(old.get("records", [])), grouped(new.get("records", []))
    summary_old, summary_new = old.get("summary", {}), new.get("summary", {})
    counts = summary_old.get("failure_count"), summary_new.get("failure_count")
    moved = (f"failure_count {counts[0]} -> {counts[1]}" if counts[0] != counts[1]
             else f"failure_count unchanged ({counts[0]})")
    lines, resized, changed, paired = [], False, 0, 0
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key, []), after.get(key, [])
        if len(a) != len(b):
            lines.append(f"  {key[0]} {key[1]}: {len(a)} -> {len(b)} records")
            resized = True
            continue
        paired += len(b)
        deltas = [(delta(x, y, "ratio"), delta(x, y, "lhs")) for x, y in zip(a, b) if text(x) != text(y)]
        if deltas:
            changed += len(deltas)
            ratios, lhs = zip(*deltas)
            lines.append(f"  {key[0]} {key[1]}: {len(deltas)} records, max |dratio| {largest(ratios):.3g}, "
                         f"max |dlhs| {largest(lhs):.3g}")
    total_old, total_new = len(old.get("records", [])), len(new.get("records", []))
    if not resized:
        print(f"{name}: {changed} of {total_new} records changed; {moved}")
    else:
        print(f"{name}: record count {total_old} -> {total_new}, {changed} of {paired} paired records changed; "
              f"{moved}")
    for line in lines:
        print(line)
    fields = [key for key in sorted(set(summary_old) | set(summary_new))
              if text(summary_old.get(key)) != text(summary_new.get(key))]
    if fields:
        print(f"  summary fields moved: {', '.join(fields)}")
    config_old, config_new = old.get("config", {}), new.get("config", {})
    for verb, keys in (("added", config_new.keys() - config_old.keys()),
                       ("removed", config_old.keys() - config_new.keys()),
                       ("changed", [key for key in config_old.keys() & config_new.keys()
                                    if text(config_old[key]) != text(config_new[key])])):
        if keys:
            print(f"  config keys {verb}: {', '.join(sorted(keys))}")
    for key in sorted((set(old) | set(new)) - {"records", "summary", "config"}):
        if text(old.get(key)) != text(new.get(key)):
            print(f"  {key} changed")
    return not resized


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
