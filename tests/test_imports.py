"""Every module of the package and every test module uses each name it imports,
and every private module-level name of the package is read in the package.

No linter ships with the project, so this stands in for an unused-import
check: it parses each module under ``src/kmse`` (except ``__init__.py``,
whose imports are the package's re-exports) and under ``tests`` and collects
the names the module reads. A private helper (``_x``) that no module of the
package reads any more has outlived its last caller.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kmse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import; __future__ is skipped."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nfrom __future__ import x\ne()\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "c"}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private name (``_x``, not dunder) bound at module level -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [leaf.id for target in bound for leaf in ast.walk(target)
                       if isinstance(leaf, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in targets
                      if name.startswith("_") and not name.startswith("__")})
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, imports from another module or reads as an attribute."""
    return (
        {node.id for node in ast.walk(tree)
         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
           for alias in node.names}
    )


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in PACKAGE.glob("*.py")}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    dead = sorted(f"{name}:{line} {private}" for name, tree in trees.items()
                  for private, line in private_definitions(tree).items() if private not in read)
    assert not dead, f"private names nothing in src/kmse reads: {', '.join(dead)}"


def test_detects_an_unread_private_name():
    tree = ast.parse(
        "def _dead(x):\n    return x\n"
        "def _used():\n    pass\n"
        "_CONST, _other = 1, 2\n"
        "_TABLE: dict = {}\n"
        "class _Kept:\n    def _method(self):\n        pass\n"
        "__all__ = []\n"
        "_used()\nmod._CONST\n"
    )
    other = ast.parse("from .m import _Kept\n")
    read = read_names(tree) | read_names(other)
    assert {name for name in private_definitions(tree) if name not in read} == {
        "_dead", "_other", "_TABLE"}


def package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, for every module but ``__init__``."""
    names = {path.stem for path in MODULES}
    graph = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                edges |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = edges & names
    return graph


def test_import_graph_has_no_cycle():
    graph = package_imports()
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    assert "estimators" not in graph["selection"] and "selection" in graph["estimators"]
