import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "cadreduce"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), name


def test_no_module_imports_another_modules_private_names():
    # A name with a leading underscore is private to its module; what two
    # modules share is public.
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cadreduce"):
                private += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def load_perfbench(name: str, monkeypatch):
    """A module of ``perfbench/``, loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_trace_targets_resolve(monkeypatch):
    # The benchmark's tracer wraps these by name; a renamed target would
    # break only its traced runs.
    tracer = load_perfbench("tracer", monkeypatch)
    assert tracer.TARGETS
    for module_name, qualname in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(vars(owner).get(attr)), f"{module_name}.{qualname}"


def test_perfbench_cache_reader_reads_expr(monkeypatch):
    # perfbench counts expr's cache entries through its atom registry and
    # three lru_caches; a change to those caches must change that reader too.
    from cadreduce import expr

    siblings = [name for name in ("reference", "tracer", "workloads") if name not in sys.modules]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports its siblings bare
    try:
        run = load_perfbench("run", monkeypatch)
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
    assert isinstance(run.cache_entries(expr), int)


@pytest.mark.parametrize("seed", [0, 41])
def test_perfbench_workloads_pass_their_oracles(seed, monkeypatch):
    # One pass of each benchmark workload, every answer checked against its
    # oracle: a change that alters an answer fails here, not only in a
    # benchmark run.
    workloads = load_perfbench("workloads", monkeypatch)
    for name in workloads.WORKLOADS:
        result = workloads.run_pass(workloads.build(name, seed))
        assert result.attempted > 0
        assert (result.failed, result.failures) == (0, []), name
        assert workloads.self_check(name) == [], name


def test_benchmark_tracer_contract(monkeypatch):
    # perfbench counts trees as calls of ``CadTree.__init__``, reaches the
    # pivots through ``poset`` and explores from a non-root ``minimize``
    # result; it runs outside tier-1, so its assumptions are checked here.
    from cadreduce import poset, reduction, tree
    from cadreduce.gallery import disk_cpp

    entry = disk_cpp()
    built = []
    init = tree.CadTree.__init__
    monkeypatch.setattr(tree.CadTree, "__init__", lambda self, *a: built.append(init(self, *a)))
    reduction._tree_of(entry.cad, entry.labels)
    assert len(built) == 1
    monkeypatch.undo()
    assert poset.applicable_pivots is tree.applicable_pivots
    result = reduction.minimize(entry.cad, entry.labels)
    assert not result.cad.is_root
    graph = poset.explore(result.cad, result.labels)
    assert len(graph.nodes) == 1 and not graph.edges
