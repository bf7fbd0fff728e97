import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "reachability", Path(__file__).resolve().parents[1] / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reachability)

FIXTURE = """\
def tag(f):
    return f


square = lambda x: x * x


@tag
@tag
def tagged(x):
    def inner(y):
        return lambda: y
    return inner(x)


class Box:
    def get(self):
        return 1

    class Lid:
        @property
        def shut(self):
            return True


async def fetch():
    return None
"""


def test_defs_are_keyed_by_the_first_line_of_their_code(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(FIXTURE)
    assert reachability.defined(fixture) == {
        1: "tag",  # neither lambda is listed
        8: "tagged",  # the first decorator's line, where the code object starts
        11: "tagged.inner",
        17: "Box.get",
        21: "Box.Lid.shut",
        26: "fetch",
    }
    # the lines the interpreter gives the code objects, which the profile hook records
    namespace: dict = {}
    exec(compile(FIXTURE, str(fixture), "exec"), namespace)
    assert namespace["tagged"].__code__.co_firstlineno == 8
    assert namespace["Box"].Lid.shut.fget.__code__.co_firstlineno == 21
