"""The benchmark's command lines (perfbench/run.py) and its correctness gate
(perfbench/gate.py) against the package.

The gate parses each `spv` command line with `cli.build_parser()` and looks
its manifest up in `harness.expected_ids`; a refactor of either would
otherwise surface only when the benchmark runs.  Both modules are loaded from
their source text and every report goes to a temporary directory, so nothing
is written under perfbench/.
"""
import json
import types
from pathlib import Path

import pytest

from schwarzpick import cli, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = load("run").workloads(11)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_line_runs_and_passes_the_gate(tmp_path, capsys, workload):
    # every record of a gate's equality case carries `predicted`, so the gate and the
    # package's one failure rule judge it alike
    module = load("gate")
    gate = module.Gate(cli, harness)
    for slot, argv in enumerate(WORKLOADS[workload]):
        assert gate._required_ids(argv), argv
        path = tmp_path / f"{slot}.json"
        code = cli.main(argv + ["--out", str(path)])
        assert code == 0, (argv, capsys.readouterr())
        assert gate.check(slot, argv, code, path) > 0
        records = json.loads(path.read_text())["records"]
        assert all("predicted" in r for r in records
                   if (r["sample"].split("-")[0], r["inequality"]) in module.EQUALITY_CASES), argv
    assert gate.failed == 0, gate.problems
