"""Write a fixed set of `spv` reports, JSON and CSV, for byte-identity checks.

    python3 tools/reference_reports.py OUTDIR

Run it in two checkouts (copy this file into the older one if it lacks it)
and compare the outputs with `diff -r OUTDIR_A OUTDIR_B`: a refactor that
keeps every report byte-identical shows no difference, and a change to the
reports shows each changed record as its own changed line, since a JSON
report holds one record per line.  `python3 tools/compare_reports.py
OUTDIR_A OUTDIR_B` sums such a change up: the changed records of each report
grouped by sample prefix and inequality.  The script imports the package from the
`src/` next to it and changes nothing in the checkout.

The command lines are:
  - every line of `perfbench/run.py`'s `workloads()` at seeds 7, 11 and 42;
  - both sharpness families at seeds 7, 11, 12-18 and 42, each on the
    33-point ladder and on the default radii, with n, m and --kmax varied
    over the seeds;
  - one configuration per sampling suite, and one `main` run at --tol 1e-14;
  - the equality suite at (n, m) = (1, 1), (2, 3), (3, 4) and (4, 4), so its
    origin-extremal grid is compared at every n;
  - the equality suite and both sharpness families at --tol 1e-20, which
    fail records, so the failure lists of both drivers are compared too.
Each report is written as `<index>-<name>.json` and `.csv`; `commands.txt`
lists the command line of each index.  After them, `replay_sample` re-runs
the `main` contexts on a polynomial map that leaves the ball,
f(z) = 1.005 z, written as `replay-main-failure-poly-0001.json`; its
report fails records, so a sampling suite's failure list and its replay
side file (`<index>-replay-main-failure-<sample>.json`) are compared too.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEP_SEEDS = (7, 11, 12, 13, 14, 15, 16, 17, 18, 42)

SUITE_LINES = [
    "check --suite main --n 3 --m 2 --kmax 3 --samples 3 --degree 5 --seed 5",
    "check --suite main --n 2 --m 2 --samples 2 --tol 1e-14 --seed 9",
    "check --suite disk --n 1 --m 3 --kmax 6 --samples 4 --seed 5",
    "check --suite partials --n 4 --m 1 --kmax 4 --samples 2 --degree 3 --seed 5",
    "check --suite radial --n 3 --m 3 --samples 3 --seed 5",
    "check --suite origin --n 3 --m 2 --kmax 5 --samples 3 --seed 5",
    "equality --n 2 --m 3 --seed 5",
    "equality --n 1 --m 1 --seed 5",
    "equality --n 3 --m 4 --seed 5",
    "equality --n 4 --m 4 --seed 5",
    "equality --n 2 --m 2 --tol 1e-20 --seed 5",
    "sharpness --family remark2 --tol 1e-20 --seed 5",
    "sharpness --family remark4 --n 2 --m 1 --tol 1e-20 --seed 5",
]


def load_workloads():
    """`workloads(seed)` and the 33-point ladder from perfbench/run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.workloads, module.SWEEP_RADII


def command_lines() -> list[list[str]]:
    workloads, ladder = load_workloads()
    lines = [argv for seed in (7, 11, 42) for argvs in workloads(seed).values() for argv in argvs]
    for i, seed in enumerate(SWEEP_SEEDS):
        for family in ("remark2", "remark4"):
            for radii in (ladder, None):
                n, m = 2 + (i + (radii is None)) % 3, 1 + i % 3
                kmax = 4 if (i + (family == "remark4")) % 2 else 2
                argv = f"sharpness --family {family} --n {n} --m {m} --kmax {kmax} --seed {seed}".split()
                lines.append(argv + (["--radii", radii] if radii else []))
    return lines + [line.split() for line in SUITE_LINES]


def name(argv: list[str]) -> str:
    words = []
    for word in argv:
        if "," in word:  # a --radii list
            word = f"r{word.count(',') + 1}"
        words.append(word.lstrip("-"))
    return "-".join(words)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(ROOT / "src"))
    from schwarzpick import cli, harness
    from schwarzpick.holomap import PolyMap

    listing = []
    for index, line in enumerate(command_lines()):
        listing.append(f"{index:03d} {' '.join(line)}")
        for fmt in ("json", "csv"):
            path = out / f"{index:03d}-{name(line)}.{fmt}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(line + ["--format", fmt, "--out", str(path)])
            if code not in (0, 1):
                print(f"exit {code}: {' '.join(line)}", file=sys.stderr)
                return 2
    replay = out / "replay-main-failure-poly-0001.json"
    f = PolyMap(2, 2, {(1, 0): [1.005, 0], (0, 1): [0, 1.005]})
    replay.write_text(json.dumps(f.to_json_dict(), sort_keys=True) + "\n")
    config = harness.SuiteConfig(suite="main", degree=3, k_max=2, seed=7)
    report, index = harness.replay_sample(replay, config), len(listing)
    listing.append(f"{index:03d} replay_sample({replay.name}, {config})")
    for fmt in ("json", "csv"):
        harness.emit(report, fmt, out / f"{index:03d}-replay-main.{fmt}")
    (out / "commands.txt").write_text("\n".join(listing) + "\n")
    print(f"{index} command lines and a replay, {2 * len(listing)} reports in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
