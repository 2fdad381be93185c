"""The public surface stays in step with the code: README's library example
runs, every name in ``channelmask.__all__`` resolves and appears once, no
module of the package or of its tests imports a name it never uses, every
function the benchmark's tracer wraps is where the tracer looks it up, a
traced verification of a copy masker counts one ``apply`` per Pauli member,
a traced ``demo-classical`` counts one search over every injection, and the
installed ``channelmask`` script is the entry that ``python -m
channelmask.cli`` runs."""

import ast
import importlib.util
import re
import sys
import tomllib
from pathlib import Path

import numpy as np

import channelmask
from channelmask import channels, cli, linalg, masking, verify

from helpers import loop_reduced_channel_choi, random_isometry, random_kraus_channel, random_unitary

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE = Path(channelmask.__file__).resolve().parent


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (## Library)", "exec"), {})


def test_the_console_script_is_the_process_entry():
    scripts = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"channelmask": "channelmask.cli:run"}


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


def _perfbench_module(name: str, monkeypatch):
    """``perfbench/<name>.py`` loaded by path, under a name of its own while the test runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look up their module
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_hook_and_puts_it_back(monkeypatch):
    # perfbench/pipeline.instrument patches module attributes with getattr, so
    # a rename in the program would make a traced benchmark run raise
    pipeline = _perfbench_module("pipeline", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)

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


def test_the_benchmark_tracer_counts_the_copy_blocks_of_a_family(monkeypatch):
    # A copy masker's blocks send each Pauli member's four basis operators
    # through verify.apply as one stack; the identity takes the Kraus form,
    # which applies no channel, and no partial trace or reduced_channel_choi
    # is called.
    pipeline = _perfbench_module("pipeline", monkeypatch)
    tracer = _perfbench_module("tracing", monkeypatch).Tracer()
    pipeline.instrument(tracer)
    tracer.active = True
    try:
        family = [channels.identity_channel(2), channels.dephasing(0.3), channels.bit_flip(0.2)]
        masker = masking.copy_masker(np.eye(2))
        report = verify.verify_masking(masker, family, 1e-9)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert not report.passed
    assert report == verify._report(*zip(*(loop_reduced_channel_choi(masker, spec) for spec in family)), 1e-9)
    assert "verify.reduced_channel_choi" not in tracer.layers()
    assert tracer.calls == {"channels.apply": 2}


def test_the_benchmark_tracer_sees_reduced_channel_choi_take_the_kraus_form_on_a_copy_masker(monkeypatch):
    # reduced_channel_choi is the general route for every masker: on a copy
    # masker each call records its one span and takes no copy blocks, and
    # both views are the loop's.
    def refused(*args):
        raise AssertionError("verify._copy_blocks was called")

    monkeypatch.setattr(verify, "_copy_blocks", refused)
    rng = np.random.default_rng(33)
    u = random_unitary(3, rng)
    members = [channels.Unitary(u), channels.DepolarizedUnitary(0.37, u), random_kraus_channel(rng, 3, 2, 2),
               channels.random_classical_channel(3, 4, rng), channels.PauliFourVector(*rng.dirichlet(np.ones(4)))]
    maskers = [masking.copy_masker(random_isometry(rng, dout + 1, dout))
               for dout in (channels.channel_dims(spec)[1] for spec in members)]
    pipeline = _perfbench_module("pipeline", monkeypatch)
    tracer = _perfbench_module("tracing", monkeypatch).Tracer()
    pipeline.instrument(tracer)
    tracer.active = True
    try:
        views = [verify.reduced_channel_choi(masker, spec) for masker, spec in zip(maskers, members)]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["verify.reduced_channel_choi"] * len(members)
    assert tracer.errors == {}
    for masker, spec, pair in zip(maskers, members, views):
        for view, loop in zip(pair, loop_reduced_channel_choi(masker, spec)):
            assert view.shape == loop.shape
            assert np.abs(view - loop).max() <= 1e-15


def test_the_benchmark_tracer_counts_one_classical_search(monkeypatch, capsys):
    # cmd_demo_classical looks classical_no_go_search up in cli, and the
    # tracer reads the report's injection_count
    pipeline = _perfbench_module("pipeline", monkeypatch)
    tracer = _perfbench_module("tracing", monkeypatch).Tracer()
    pipeline.instrument(tracer)
    tracer.active = True
    try:
        code = cli.main(["demo-classical", "--dim", "4"])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert "classical search over 43680 injections" in capsys.readouterr().out
    assert tracer.layers()["masking.classical_no_go_search"]["calls"] == 1
    assert tracer.totals["masking.injections"] == tracer.totals["computed.masking.injections"] == 43680
