import ast
import importlib
import importlib.util
import sys
from collections import Counter
from contextvars import ContextVar
from itertools import count
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


def _annotation_names(node: ast.AST):
    """The names in an annotation written as a string."""
    for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            yield from (n.id for n in ast.walk(ast.parse(annotation.value, mode="eval")) if isinstance(n, ast.Name))


def test_no_module_imports_a_name_it_never_uses():
    # A leftover import outlives the code that used it.  A re-export, whose
    # users are elsewhere, says so with ``# noqa: F401`` on its line.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        module = ast.parse(source)
        used = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                used.add(node.id)
            used.update(_annotation_names(node))
        # Module-level imports, those under a top-level ``if TYPE_CHECKING:`` too.
        top = module.body + [s for node in module.body if isinstance(node, ast.If) for s in node.body]
        for node in top:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_only_the_polynomial_ring_takes_contents_and_denominators():
    # Contents and common denominators are the ring's: a module that
    # normalizes coefficients of its own imports ``gcd`` or ``lcm``.
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                importers += [path.name for a in node.names if a.name in ("gcd", "lcm")]
            elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
                importers.append(f"{path.name} (import math)")
    assert sorted(set(importers)) == ["poly.py"]


def test_only_realroots_constructs_algebraic_numbers():
    # Algebraic arithmetic has one home: every AlgebraicNumber of the
    # package is made by ``realroots``, whose constructors keep its
    # invariants (a squarefree primitive defining polynomial, an isolating
    # interval).
    makers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _bare_name(node.func) == "AlgebraicNumber":
                makers.add(path.name)
    assert makers == {"realroots.py"}


def test_no_module_keeps_a_second_kind_of_coordinate():
    # Every coordinate is a Fraction or an AlgebraicNumber: the lazy value
    # refined by interval arithmetic on a fixed schedule is gone.
    defined = {
        f"{path.name}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in ("LazyValue", "_eval_refining", "_widths")
    }
    assert defined == set()


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


def _bare_name(node: ast.expr) -> str | None:
    """``name`` for ``name`` and for ``module.name``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_unbounded_cache(decorator: ast.expr) -> bool:
    """``functools.cache``, or ``lru_cache`` with maxsize None."""
    if _bare_name(decorator) == "cache":
        return True
    if not isinstance(decorator, ast.Call) or _bare_name(decorator.func) != "lru_cache":
        return False
    sizes = [*decorator.args[:1], *(k.value for k in decorator.keywords if k.arg == "maxsize")]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_the_unbounded_caches_are_the_known_three():
    # A cache that only grows must be a decision, not a side effect of a
    # speed-up; these three are to be bounded or scoped to a run.
    unbounded = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_unbounded_cache(d) for d in node.decorator_list)
    ]
    assert sorted(unbounded) == ["expr.canonical_formula", "expr.canonicalize", "expr.to_polynomial"]


def _package_state() -> dict[str, object]:
    """The size of every module-level dict, set and list of the package and
    of every ``lru_cache`` it holds, the value of every context variable,
    and the ``repr`` of every ``itertools.count``, held as itself or as its
    bound ``__next__``, which shows the count's next value."""
    state = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "cadreduce":
            continue
        for name, value in vars(module).items():
            if isinstance(value, (dict, set, list)):
                state[f"{module_name}.{name}"] = len(value)
            elif isinstance(counter := getattr(value, "__self__", value), count):
                state[f"{module_name}.{name}"] = repr(counter)
            elif isinstance(value, ContextVar):
                state[f"{module_name}.{name}"] = value.get(None)
            elif hasattr(value, "cache_info"):
                state[f"{value.__module__}.{value.__qualname__}"] = value.cache_info().currsize
    return state


def test_explore_and_minimize_leave_no_module_level_table_grown():
    # A table that ``explore`` or ``minimize`` fills, or a counter that they
    # advance, must be scoped to the call (caches are bounded); only expr's
    # known caches outlive it.
    from cadreduce.gallery import load_entry
    from cadreduce.poset import explore
    from cadreduce.reduction import minimize

    before = _package_state()
    for name in ("disk-Cpp", "trousers-Cbar"):
        entry = load_entry(name)
        explore(entry.cad, entry.labels)
        minimize(entry.cad, entry.labels)
    after = _package_state()
    known = {f"cadreduce.expr.{name}" for name in ("_atom_registry", "canonical_formula", "canonicalize", "to_polynomial")}
    changed = {key for key in before.keys() & after.keys() if after[key] != before[key]}
    assert changed <= known, changed - known


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
        for node in modules["errors"].body
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


def _package_bindings(module: ast.Module, package_modules: set[str]) -> dict[str, tuple[str, str | None]]:
    """The names a module binds to the package: local -> (module, name) for
    ``from cadreduce.<module> import name``, and local -> (module, None) for
    a module alias (``from cadreduce import <module>``,
    ``import cadreduce.<module> as local``)."""
    bound = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cadreduce."):
            source = node.module.partition(".")[2]
            bound.update({a.asname or a.name: (source, a.name) for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module == "cadreduce":
            bound.update({a.asname or a.name: (a.name, None) for a in node.names if a.name in package_modules})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("cadreduce.") and a.asname:
                    bound[a.asname] = (a.name.partition(".")[2], None)
    return bound


def _package_references(module: ast.Module, bound: dict) -> set[tuple[str, str]]:
    """(module, name) for each use of a name bound to the package: an
    imported ``name``, or ``alias.name`` through a module alias."""
    refs = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and bound.get(node.id, (None, None))[1] is not None:
            refs.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            source, name = bound.get(node.value.id, (None, ""))
            if name is None:
                refs.add((source, node.attr))
    return refs


def test_every_public_definition_in_src_has_a_caller():
    # The library holds what the pipeline and the benchmark call; a test
    # oracle lives in tests/oracles.py.  A top-level function or class of a
    # module counts as referenced by a ``Name`` in its own module outside its
    # definition, or, from src/ or perfbench/, by an imported name in use, by
    # ``<module alias>.name``, through a module that re-exports it, or by
    # perfbench's tracer ``TARGETS``.  A method counts as referenced where
    # src/, a perfbench/ module that imports from the package, or ``TARGETS``
    # names it (bare names: a method and an attribute of the same name are
    # not told apart), outside its own definition.  An error class counts
    # only where src/ raises or catches it.
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    bindings = {name: _package_bindings(module, set(modules)) for name, module in modules.items()}
    refs: set[tuple[str, str]] = set()
    outside: set[str] = set()
    for module in bench:
        bound = _package_bindings(module, set(modules))
        refs |= _package_references(module, bound)
        if bound:
            outside.update(_names_in(module))
    for name, module in modules.items():
        refs |= _package_references(module, bindings[name])
    for module in bench:
        for node in module.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
                for target in ast.literal_eval(node.value):
                    module_name, *qualname = ".".join(target).split(".")
                    refs.add((module_name, qualname[0]))
                    outside.update(qualname)
    # A use of a re-exported name is a use of the definition it names.
    frontier = list(refs)
    while frontier:
        module_name, name = frontier.pop()
        source = bindings.get(module_name, {}).get(name)
        if source is not None and source[1] is not None and source not in refs:
            refs.add(source)
            frontier.append(source)
    inside = Counter(name for module in modules.values() for name in _names_in(module))
    own_module = {name: Counter(n.id for n in ast.walk(m) if isinstance(n, ast.Name)) for name, m in modules.items()}
    errors = _error_classes(modules)
    handled = _raised_or_caught(modules)

    def referenced_in_module(module_name: str, definition: ast.AST) -> bool:
        if definition.name in errors:
            return definition.name in handled
        own = sum(isinstance(n, ast.Name) and n.id == definition.name for n in ast.walk(definition))
        return (module_name, definition.name) in refs or own_module[module_name][definition.name] > own

    def referenced_method(method: ast.AST) -> bool:
        own = sum(name == method.name for name in _names_in(method))
        return method.name in outside or inside[method.name] > own

    unreferenced = []
    for name, module in modules.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name != "CadError" and not referenced_in_module(name, node):
                unreferenced.append(f"{name}.py: {node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                        continue
                    if not referenced_method(method):
                        unreferenced.append(f"{name}.py: {node.name}.{method.name}")
    assert unreferenced == []
