"""List the `src/` functions that no reference command line reaches.

    python3 tools/reachability.py

Runs every command line of `tools/reference_reports.py`, in both formats,
under a `sys.setprofile` hook that records each Python function called
from `src/`, then prints, module by module, the functions and methods
defined there (`def` statements, nested ones included) that were never
called.  Lambdas and module bodies are not listed.  The reports go to a
temporary directory that is removed afterwards.
"""
from __future__ import annotations

import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def defined(path: Path) -> dict[int, str]:
    """{first line of the code object: qualified name} of every def in the
    file; a decorated function's code starts at its first decorator."""
    out: dict[int, str] = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def main() -> int:
    spec = importlib.util.spec_from_file_location("reference_reports", ROOT / "tools" / "reference_reports.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    src = str(SRC)
    reached: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(hook)
        try:
            code = reference.main([out])
        finally:
            sys.setprofile(None)
    if code != 0:
        return code
    for path in sorted(SRC.rglob("*.py")):
        unreached = [name for line, name in sorted(defined(path).items()) if (str(path), line) not in reached]
        if unreached:
            print(f"{path.relative_to(ROOT)}: {len(unreached)} unreached")
            for name in unreached:
                print(f"  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
