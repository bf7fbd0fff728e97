"""spv campaign benchmark.

    python3 perfbench/run.py --workload {torus,records,sweep} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a fixed list of `spv` command
lines (see WORKLOADS.md for why each was chosen).  One pass calls
`schwarzpick.cli.main(argv)` in-process for every line, with the report
written to disk under perfbench/out/, and gates every invocation (gate.py).
Passes repeat until S seconds have passed, at least MIN_PASSES of them; the
first also warms the process up and sets the reference report bytes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (tracing.py) that alternates untraced and traced passes.  Metric names
and units come from BENCHMARK.json.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the lines before it
carry the run's provenance and details.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads per process: one keeps timings steady on a small shared box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started to time `import schwarzpick.cli`.
SETUP_SPAWNS = 7
#: Passes per run, the first included, at least (a torus pass takes ~12 s).
MIN_PASSES = 3
#: Traced (and untraced) passes per traced run, at least.
MIN_TRACED = 2

#: 33-point |w| ladder from 0.9 to 0.99999, geometric in 1 - |w|.
SWEEP_RADII = ",".join(f"{1 - 0.1 * 10 ** (-4 * i / 32):.10g}" for i in range(33))


def workloads(seed: int) -> dict[str, list[list[str]]]:
    """Each workload's `spv` command lines for one benchmark seed."""
    lines = {
        "torus": [
            "check --suite main --n 3 --m 3 --kmax 4 --samples 1",
            "equality --n 3 --m 3",
            "sharpness --family remark4 --n 3 --m 1",
        ],
        "records": [
            "check --suite main --n 2 --m 2 --kmax 4 --samples 20",
            "check --suite partials --n 3 --m 2 --samples 20",
            "check --suite disk --n 1 --m 1 --samples 20",
            "check --suite radial --n 2 --m 1 --samples 20",
            "check --suite origin --n 2 --m 2 --samples 20",
        ],
        "sweep": [
            f"sharpness --family remark2 --radii {SWEEP_RADII}",
            f"sharpness --family remark4 --n 2 --m 1 --radii {SWEEP_RADII}",
            "equality --n 2 --m 2",
        ],
    }
    return {name: [line.split() + ["--seed", str(seed)] for line in argvs]
            for name, argvs in lines.items()}


def run_pass(main, argvs, out_dir: Path, gate) -> tuple[float, int]:
    """One pass over the command lines: (seconds inside spv, records written)."""
    seconds, records = 0.0, 0
    for slot, argv in enumerate(argvs):
        path = out_dir / f"{slot}.json"
        path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                code = main(argv + ["--out", str(path)])
            except Exception:  # a crash is a failed invocation, not a failed run
                code = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            seconds += perf_counter() - start
        records += gate.check(slot, argv, code, path)
    return seconds, records


def setup_seconds() -> list[float]:
    """Wall time from starting a fresh interpreter until `import schwarzpick.cli`
    returns and the interpreter exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import schwarzpick.cli"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def p90(samples) -> float:
    """Nearest-rank 90th percentile; the maximum of up to nine samples."""
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def layer_value(metric: str, totals: dict):
    """`<layer>.<stat>` from the tracer's {layer: [calls, self_s, quantity]};
    stat is calls, self_s, points, bytes or `<variant>_calls`."""
    layer, stat = metric.rsplit(".", 1)
    if stat.endswith("_calls") and stat != "calls":
        layer, stat = f"{layer}.{stat[:-len('_calls')]}", "calls"
    column = {"calls": 0, "self_s": 1, "points": 2, "bytes": 2}[stat]
    return sum(v[column] for k, v in totals.items() if k == layer or k.startswith(layer + "."))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a plain copy of the tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
        "workloads": {name: [" ".join(a) for a in argvs] for name, argvs in workloads(seed).items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="spv campaign benchmark")
    parser.add_argument("--workload", required=True, choices=("torus", "records", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "schwarzpick" / "cli.py").is_file():
        print(f"perfbench: no schwarzpick sources under {SRC}", file=sys.stderr)
        return 2
    cap = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    os.environ.update({name: cap for name in BLAS_ENV})  # before numpy is imported
    sys.path.insert(0, str(SRC))

    setup = setup_seconds() if not args.trace else []
    import numpy as np
    import schwarzpick
    import schwarzpick.cli
    from gate import Gate
    from tracing import Tracer

    argvs = workloads(args.seed)[args.workload]
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    gate = Gate(schwarzpick.cli, schwarzpick.harness)

    def one_pass():
        return run_pass(schwarzpick.cli.main, argvs, out_dir, gate)

    # the first pass counts: every spv user pays its first-call costs, since
    # each command runs in a fresh process; the peak RSS after it is that of
    # a fresh process running one pass
    start = perf_counter()
    first, records = one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [first]
    details: dict = {"workload": args.workload, "records_per_pass": records}
    if not args.trace:
        while len(plain) < MIN_PASSES or perf_counter() - start < args.seconds:
            plain.append(one_pass()[0])
        campaign = p90(plain)
        metrics = {
            "setup_s": statistics.median(setup),
            "campaign_s": campaign,
            "records_per_s": records / campaign,
            "peak_rss_mb": peak_rss_mb,
            "ref_digits": gate.digits,
        }
        details["campaign_s"] = {"p90": campaign, "median": statistics.median(plain),
                                 "samples": len(plain), "passes": [round(t, 4) for t in plain]}
        details["setup_s"] = {"median": metrics["setup_s"], "samples": len(setup)}
        counts_repeat = True
        wanted = spec["end_to_end"]
    else:
        tracer = Tracer()
        traced: list[float] = []
        passes: list[dict] = []
        while len(traced) < MIN_TRACED or perf_counter() - start < args.seconds:
            if len(plain) == len(traced):
                plain.append(one_pass()[0])
            tracer.spans.clear()
            tracer.install(schwarzpick)
            try:
                traced.append(one_pass()[0])
            finally:
                tracer.uninstall()
            passes.append(tracer.layer_totals())
        tracer.write(out_dir / "spans.jsonl")
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        per_pass = {n: [layer_value(n, totals) for totals in passes] for n in names}
        metrics = {n: statistics.median(v) if n.endswith("_s") else v[0] for n, v in per_pass.items()}
        plain_s, traced_s = p90(plain), p90(traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        unsteady = [n for n, v in per_pass.items() if not n.endswith("_s") and len(set(v)) > 1]
        counts_repeat = not unsteady
        details.update(campaign_s=plain_s, traced_campaign_s=traced_s,
                       traced_passes=len(traced), counts_not_repeating=unsteady,
                       untraced_entry_points=tracer.missing)
        wanted = spec["per_layer"]

    details.update(attempted=gate.attempted, failed=gate.failed, error_rate=gate.failed / gate.attempted)
    details["problems"] = gate.problems
    print(json.dumps({"provenance": provenance(np, args.seed)}))
    print(json.dumps({"details": details}))
    result = {
        "correct": gate.failed == 0 and counts_repeat and math.isfinite(gate.digits),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
