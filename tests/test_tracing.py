"""The benchmark's span tracer (perfbench/tracing.py) against the package.

The tracer reads package attributes by name; a refactor that drops or moves
one of them would otherwise surface only when the benchmark runs.  The
module is loaded from its source text, so nothing is written under perfbench/.
"""
import types
from pathlib import Path

import schwarzpick
from schwarzpick import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Entry points the tracer still names that the package no longer has; their
#: layers read 0, but for `LineMap.eval`, whose calls `HoloMap.eval` now takes
#: and counts as `geometry.map_eval`, and the two drivers whose suites
#: `run_suite` now runs, counted in `harness.run_suite`.  A name missing beyond
#: these is a name a refactor dropped.
RETIRED = {
    "schwarzpick.cauchy.coefficient_table",
    "schwarzpick.cauchy.partial_derivative",
    "schwarzpick.cauchy.frechet_derivative",
    "schwarzpick.cauchy.frechet_from_bundle",
    "PolyMap.partial",
    "LineMap.eval",
    "schwarzpick.cli.equality_suite",
    "schwarzpick.cli.sharpness_sweep",
}


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_wraps_a_cli_run_and_restores_every_attribute(tmp_path):
    owners = [cli, schwarzpick.harness, schwarzpick.cauchy, schwarzpick.bounds, schwarzpick.geometry,
              schwarzpick.holomap.HoloMap, schwarzpick.holomap.LineMap, schwarzpick.holomap.PolyMap]
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_tracing().Tracer()
    tracer.install(schwarzpick)
    try:
        wrapped = list(tracer._undo)
        code = cli.main(["check", "--suite", "main", "--n", "2", "--m", "2", "--samples", "1",
                         "--degree", "2", "--kmax", "2", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert set(tracer.missing) <= RETIRED
    assert wrapped and all(vars(owner)[attr] is original for owner, attr, original in wrapped)
    layers = {span[2] for span in tracer.spans}
    assert {"cli.main", "harness.run_suite", "harness.emit", "holomap.random_polymap", "geometry.map_eval",
            "cauchy.partial_bundle.exact", "cauchy.partial_bundle.quad"} <= layers
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[name] is value for name, value in saved.items()), owner
