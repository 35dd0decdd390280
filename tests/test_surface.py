"""Every top-level function and class of the library has a reader, and
every name a library module imports is read in that module.

A reader of a name is an `ast.Name` or `ast.Attribute` with that name in
some module of `src/fullex` other than `__init__`, outside the name's own
definition, or a word match in a `perfbench/*.py` script, whose tracer
names its targets in strings.  Names that only the tests read belong in
`tests/conftest.py`.  An imported name is read when the module that
imports it holds an `ast.Name` with it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fullex").glob("*.py") if p.name != "__init__.py")


def _names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read as an `ast.Name` or `ast.Attribute` in `tree`,
    outside the subtree `skip`."""
    read: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def unread_definitions() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if re.search(rf"\b{re.escape(name)}\b", bench):
                continue
            if any(name in _names_read(t, node if m == module else None)
                   for m, t in trees.items()):
                continue
            unread.append(f"{module}.{name}")
    return unread


def test_every_library_definition_has_a_reader():
    assert unread_definitions() == []


def unread_imports() -> list[str]:
    unread = []
    for path in sorted((ROOT / "src" / "fullex").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}.{name}")
    return unread


def test_every_library_import_is_read():
    assert unread_imports() == []
