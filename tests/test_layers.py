"""The package's import structure, read from its source with ``ast``.

* The relative imports between its modules, those inside functions
  included, form no cycle: each module sits above the ones it imports.
* No module but ``oracles`` imports a ``_``-prefixed name from a sibling;
  a private helper is used only in the module that owns it.
* ``Tableau._from_trusted`` and ``OscStrip._from_trusted``, which skip
  their class's checks, are called only from ``rsk``, ``bijections`` and
  ``oscillating`` (the SSOT operator outputs), whose differential tests
  rebuild every such object through the checking constructor.  A new
  caller comes with its own differential test.
* The SSOT junction codec stays in ``oscillating``: no module imports
  ``shift_overlap``, ``strip_pair_multisets`` or ``_first_strip_counts``.
  The bracket ``pair_multisets`` is the package's one, and only ``crystal``
  (the type-A tableau crystal) and ``oracles`` (the surgery route) import it.
* No module defines two functions whose names differ only by ``raise``
  and ``lower``: the two sides of each operator share one body that takes
  the side k (0 raises, 1 lowers), as ``ssyt_move``, ``ssot_move`` and
  ``matrix_surgery`` do.
* The one import inside a function is ``cli.cmd_verify``'s import of
  ``.verify``, which keeps the battery, and the reference routes of
  ``oracles`` that it imports, off every other CLI command
  (``test_cli.py::test_only_verify_loads_the_battery_and_the_oracles``
  checks the same at run time).
* Every library name the benchmark binds resolves: the functions and
  methods ``perfbench/tracer.py`` wraps, the names ``perfbench/jobs.py`` and
  ``perfbench/worker.py`` import, and the package's ``__all__``.  The
  benchmark's files are not changed: the tracer is loaded by path and the
  other two are read with ``ast``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import sympcrystal

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sympcrystal"


def _imports(tree: ast.Module) -> list[tuple[str | None, int, str, list[str]]]:
    """(enclosing function or None, level, module, names) of every import."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if func is None else f"{func}.{child.name}")
            elif isinstance(child, ast.ImportFrom):
                names = [a.name for a in child.names]
                out.append((func, child.level, child.module or "", names))
            elif isinstance(child, ast.Import):
                out.append((func, 0, "", [a.name for a in child.names]))
            else:
                visit(child, func)

    visit(tree, None)
    return out


@pytest.fixture(scope="module")
def imports() -> dict[str, list]:
    return {p.stem: _imports(ast.parse(p.read_text(), str(p))) for p in sorted(SRC.glob("*.py"))}


def _sibling_edges(imports) -> dict[str, set[str]]:
    """Module -> the sibling modules it imports, at any depth of its code."""
    graph = {name: set() for name in imports}
    for name, entries in imports.items():
        for _, level, module, names in entries:
            if level == 1:
                graph[name].update([module] if module else names)
    return graph


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as a list of modules (first repeated at the end), or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def dfs(u):
        state[u] = 1
        path.append(u)
        for v in sorted(graph.get(u, ())):
            if state.get(v) == 1:
                return path[path.index(v):] + [v]
            if v not in state and (found := dfs(v)):
                return found
        path.pop()
        state[u] = 2
        return None

    for u in sorted(graph):
        if u not in state and (found := dfs(u)):
            return found
    return None


def test_cycle_finder_anchor():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert _find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]


def test_relative_imports_form_no_cycle(imports):
    graph = _sibling_edges(imports)
    assert {"oscillating", "rsk", "tableaux"} <= graph["crystal"]  # the walk sees imports
    assert _find_cycle(graph) is None, " -> ".join(_find_cycle(graph))


def test_only_oracles_imports_private_sibling_names(imports):
    crossing = sorted(
        (name, f"{module}.{n}")
        for name, entries in imports.items() if name != "oracles"
        for _, level, module, names in entries if level == 1
        for n in names if n.startswith("_")
    )
    assert crossing == []


def test_only_crystal_and_oracles_import_the_bracket_and_none_the_codec(imports):
    codec = {"shift_overlap", "strip_pair_multisets", "_first_strip_counts", "pair_multisets"}
    importers = sorted(
        (name, f"{module}.{n}")
        for name, entries in imports.items()
        for _, level, module, names in entries if level == 1
        for n in names if n in codec
    )
    assert importers == [
        ("crystal", "oscillating.pair_multisets"),
        ("oracles", "oscillating.pair_multisets"),
    ]


def test_the_only_function_level_import_is_verify_in_cmd_verify(imports):
    nested = sorted(
        (name, func, level, module)
        for name, entries in imports.items()
        for func, level, module, _ in entries if func is not None
    )
    assert nested == [("cli", "cmd_verify", 1, "verify")]


def test_no_raise_lower_pair_of_functions():
    pairs = []
    for p in sorted(SRC.glob("*.py")):
        names = {node.name for node in ast.walk(ast.parse(p.read_text(), str(p)))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        pairs += [(p.stem, n) for n in sorted(names) if n.replace("raise", "lower") in names - {n}]
    assert pairs == []


def test_trusted_constructors_are_called_only_from_insertion():
    callers = {
        (p.stem, ast.unparse(node.value))
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Attribute) and node.attr == "_from_trusted"
    }
    assert callers == {
        ("bijections", "OscStrip"),
        ("oscillating", "OscStrip"),
        ("rsk", "Tableau"),
    }


def _lookup(module: str, name: str):
    """The attribute or submodule ``name`` of the module ``module``, or None."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return None


def test_names_the_benchmark_binds_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [(mod, fn) for mod, fns in tracer.FUNCTIONS.items() for fn in fns]
    wrapped.append(tuple(tracer.STRIPS.split(".")))
    missing = [f"{mod}.{fn}" for mod, fn in wrapped if _lookup(f"sympcrystal.{mod}", fn) is None]
    for targets in tracer.METHODS.values():
        for mod, cls, attr in targets:
            owner = _lookup(f"sympcrystal.{mod}", cls)
            if owner is None or attr not in vars(owner):
                missing.append(f"{mod}.{cls}.{attr}")
    for script in ("jobs.py", "worker.py"):
        tree = ast.parse((ROOT / "perfbench" / script).read_text())
        missing += [f"{script}: {node.module}.{alias.name}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympcrystal")
                    for alias in node.names if _lookup(node.module, alias.name) is None]
    missing += [name for name in sympcrystal.__all__ if not hasattr(sympcrystal, name)]
    assert missing == []
