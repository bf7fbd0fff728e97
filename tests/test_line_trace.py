import importlib.util
import runpy
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "line_trace", Path(__file__).resolve().parents[1] / "tools" / "line_trace.py")
line_trace = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(line_trace)

FIXTURE = """\
def half(x):
    if x > 0:
        return x / 2
    return 0


def never():
    return 1


half(4)
"""


def test_lines_with_bytecode_that_never_ran_are_listed(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(FIXTURE)
    assert line_trace.executable_lines(fixture) == {1, 2, 3, 4, 7, 8, 11}
    before = sys.gettrace()
    _, ran = line_trace.run_traced(lambda: runpy.run_path(str(fixture)), str(tmp_path))
    assert sys.gettrace() is before
    assert ran == {str(fixture): {1, 2, 3, 7, 11}}
    assert line_trace.unrun(ran, [fixture]) == {str(fixture): [4, 8]}
    # a file that ran in full, or whose lines are all listed as run, is left out
    assert line_trace.unrun({str(fixture): set(range(1, 12))}, [fixture]) == {}
