"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once untraced and once traced per workload (about four
minutes at the default run length) and prints one table with a column per
workload.  error_rate is failed / attempted invocations over both runs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    rows: dict[str, list] = {"correct": [], "error_rate": []}
    units = {"correct": "", "error_rate": "1"}
    for name in names:
        results = [run(name, args.seed, args.seconds, trace) for trace in (0, 1)]
        rows["correct"].append(all(r["correct"] for r in results))
        rows["error_rate"].append(sum(r["failed"] for r in results) / sum(r["attempted"] for r in results))
        for result in results:
            for metric, entry in result["metrics"].items():
                rows.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]

    print(f"{'metric':40s} {'unit':8s}" + "".join(f"{n:>14s}" for n in names))
    for metric, values in rows.items():
        cells = "".join(f"{str(v):>14s}" if isinstance(v, (bool, int)) else f"{v:>14.6g}" for v in values)
        print(f"{metric:40s} {units[metric]:8s}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
