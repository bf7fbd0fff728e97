import re
from pathlib import Path

import schwarzpick

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_public_names_resolve():
    missing = [name for name in schwarzpick.__all__ if not hasattr(schwarzpick, name)]
    assert not missing


def test_public_names_documented():
    text = README.read_text()
    missing = [name for name in schwarzpick.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not missing
