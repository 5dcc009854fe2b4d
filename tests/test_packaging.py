import ast
import importlib
import importlib.util
import sys
from collections import Counter
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


def _names_in(tree: ast.AST):
    """Every name a tree refers to: a ``Name``, the attribute of an
    ``Attribute`` and each imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _error_classes(modules: dict[str, ast.Module]) -> set[str]:
    """The subclasses of ``CadError``, by name, the base class excluded."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in modules["errors.py"].body
        if isinstance(node, ast.ClassDef)
    }
    found = {"CadError"}
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found - {"CadError"}
        found |= more


def _raised_or_caught(modules: dict[str, ast.Module]) -> set[str]:
    names = set()
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names.update(_names_in(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names.update(_names_in(node.type))
    return names


def test_every_public_definition_in_src_has_a_caller():
    # The library holds what the pipeline and the benchmark call; a test
    # oracle lives in tests/oracles.py.  A name counts as referenced where
    # src/ or perfbench/ names it (bare names: a method and an attribute of
    # the same name are not told apart), outside its own definition;
    # perfbench's tracer also names its targets in strings.  An error class
    # counts only where src/ raises or catches it.
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    outside: set[str] = set()
    for module in bench:
        outside.update(_names_in(module))
        for node in module.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
                for const in ast.walk(node.value):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        outside.update(const.value.split("."))
    inside = Counter(name for module in modules.values() for name in _names_in(module))
    errors = _error_classes(modules)
    handled = _raised_or_caught(modules)

    def referenced(definition: ast.AST) -> bool:
        if definition.name in errors:
            return definition.name in handled
        own = sum(name == definition.name for name in _names_in(definition))
        return definition.name in outside or inside[definition.name] > own

    unreferenced = []
    for filename, module in modules.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name != "CadError" and not referenced(node):
                unreferenced.append(f"{filename}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__") and not referenced(method):
                        unreferenced.append(f"{filename}: {node.name}.{method.name}")
    assert unreferenced == []
