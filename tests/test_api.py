"""The public surface stays in step with the code: README's library example
runs, and every name in ``channelmask.__all__`` resolves and appears once."""

import re
from pathlib import Path

import channelmask

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})


def test_every_export_resolves_once():
    names = channelmask.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(channelmask, n)] == []
