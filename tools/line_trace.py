"""List the executable `src/` lines that the test suite never runs.

    python3 tools/line_trace.py [PYTEST_ARGS ...]

Runs pytest on `tests/` in this process under a line tracer
(`sys.settrace` and `threading.settrace`) that records every line run in a
file under `src/`, then prints, file by file, each line that holds bytecode
(a line some code object compiled from the file lists in its `co_lines`)
and never ran, with its source text, and the count.  Extra arguments go to
pytest, for example `-k remark` to trace part of the suite.  The exit code
is pytest's.  The package must not be imported before the tracer starts,
or its module-level lines would read as never run.
"""
from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(path) -> set[int]:
    """The lines of a Python file that hold bytecode: every line number in
    the `co_lines` of the module's code object and of each code object
    nested in it."""
    path = Path(path)
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(run, prefix: str):
    """Call `run()` under a line tracer and return its result and
    {file name: lines run} for the files whose names start with `prefix`.
    A function's first line counts as run when it is called.  The trace
    functions in place before are restored afterwards."""
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        ran[code.co_filename].add(code.co_firstlineno)
        return local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, dict(ran)


def unrun(ran: dict, paths) -> dict[str, list[int]]:
    """{file: sorted lines that hold bytecode and are not in ran[file]} for
    each of `paths` with at least one such line."""
    out = {}
    for path in paths:
        lines = sorted(executable_lines(path) - ran.get(str(path), set()))
        if lines:
            out[str(path)] = lines
    return out


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else list(argv)
    code, ran = run_traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args]),
                           str(SRC))
    listing = unrun(ran, sorted(SRC.rglob("*.py")))
    for path, lines in listing.items():
        source = Path(path).read_text().splitlines()
        for line in lines:
            print(f"{Path(path).relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{sum(map(len, listing.values()))} executable src/ lines never ran")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
