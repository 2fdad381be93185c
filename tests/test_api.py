"""The public surface stays in step with the code: README's library example
runs, every name in ``channelmask.__all__`` resolves and appears once, no
module of the package or of its tests imports a name it never uses, and
every function the benchmark's tracer wraps is where the tracer looks it up."""

import ast
import re
from pathlib import Path

import channelmask
from channelmask import channels, cli, linalg, masking, verify

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE = Path(channelmask.__file__).resolve().parent


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})


def test_every_export_resolves_once():
    names = channelmask.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(channelmask, n)] == []


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports but never reads; names listed in ``__all__`` count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {f"{path.parent.name}/{path.name}": _unused_imports(ast.parse(path.read_text(), str(path)))
              for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_benchmark_tracer_finds_every_hook_and_puts_it_back(monkeypatch):
    # perfbench/pipeline.instrument patches module attributes with getattr, so
    # a rename in the program would make a traced benchmark run raise
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import tracing

    modules = (channels, cli, linalg, masking, verify)
    before = [dict(vars(m)) for m in modules]
    gate_hooks = (masking.commutator_norm, masking.simultaneous_eigenbasis)
    tracer = tracing.Tracer()
    pipeline.instrument(tracer)
    try:
        assert (masking.commutator_norm, masking.simultaneous_eigenbasis) != gate_hooks
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
