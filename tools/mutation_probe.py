"""Count the reference reports that fail once one bound is loosened.

    python3 tools/mutation_probe.py [--eps 1e-3]

Each mutant multiplies one right-hand side of `schwarzpick.bounds` by 1 + eps
(every field of a tuple it returns): every `rhs_*` function of the module,
and `rhs_main` once more at orders k >= 2 only, where the first-order
equality cases cannot see it.  The probe runs the command lines of
`tools/reference_reports.py` in process, once unmutated and once per mutant,
and prints per mutant how many reports fail that did not fail unmutated.  A
mutant that fails no further report survives: no campaign checks that bound
tightly enough to notice it.  Mutants patch the module attribute in memory
and restore it; no report is written and nothing under `src/` changes.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def reference_lines() -> list[list[str]]:
    """The command lines of `tools/reference_reports.py`."""
    spec = importlib.util.spec_from_file_location("reference_reports", ROOT / "tools" / "reference_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.command_lines()


def scaled(fn, factor: float, min_order: int = 0):
    """fn with its value times `factor` (each field of a tuple), when its
    first argument, the order k, is at least `min_order`."""
    @functools.wraps(fn)
    def mutant(*args, **kwargs):
        value = fn(*args, **kwargs)
        if min_order and args[0] < min_order:
            return value
        if isinstance(value, tuple):
            return type(value)._make(x * factor for x in value)
        return value * factor
    return mutant


def mutants(bounds, eps: float) -> dict[str, tuple[str, object]]:
    """{label: (attribute of `bounds`, its mutant)}: every `rhs_*` times
    1 + eps, and `rhs_main` times 1 + eps at k >= 2 only."""
    out = {f"{name} x {1 + eps:.12g}": (name, scaled(getattr(bounds, name), 1 + eps))
           for name in sorted(vars(bounds)) if name.startswith("rhs_") and callable(getattr(bounds, name))}
    out[f"rhs_main x {1 + eps:.12g} at k >= 2"] = ("rhs_main", scaled(bounds.rhs_main, 1 + eps, min_order=2))
    return out


def failing(cli, lines) -> set[int]:
    """Indexes of the command lines whose report fails (exit code 1); any
    other exit code than 0 or 1 raises RuntimeError."""
    out = set()
    for index, argv in enumerate(lines):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        if code not in (0, 1):
            raise RuntimeError(f"exit {code}: {' '.join(argv)}")
        if code == 1:
            out.add(index)
    return out


def probe(lines, eps: float = 1e-3, only=None) -> dict[str, list[int]]:
    """{mutant label: indexes of the lines that fail under it alone, in
    order}, for every mutant of `mutants`, or for those whose label starts
    with `only`.  The package is imported from the `src/` next to this file."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from schwarzpick import bounds, cli

    baseline = failing(cli, lines)
    result = {}
    for label, (name, mutant) in mutants(bounds, eps).items():
        if only is not None and not label.startswith(only):
            continue
        original = getattr(bounds, name)
        setattr(bounds, name, mutant)
        try:
            result[label] = sorted(failing(cli, lines) - baseline)
        finally:
            setattr(bounds, name, original)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--eps", type=float, default=1e-3, help="relative loosening of each bound")
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    start = perf_counter()
    lines = reference_lines()
    result = probe(lines, args.eps)
    for label, caught in result.items():
        families = sorted({" ".join(lines[i][:3]) for i in caught})
        verdict = f"caught: {len(caught)} more reports fail ({'; '.join(families)})" if caught else "survives"
        print(f"{label}: {verdict}")
    survivors = [label for label, caught in result.items() if not caught]
    print(f"{len(survivors)} of {len(result)} mutants survive over {len(lines)} command lines "
          f"in {perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
