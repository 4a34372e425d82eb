"""Every top-level import of the package and of the tests is used, and
every private top-level name the package defines is read by the package.

A name counts as used when the module reads it or lists it in ``__all__``;
an import statement marked ``# noqa: F401`` is exempt. A private name is
read when some package module loads it as a name or an attribute: one that
only the tests read is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/dlnflow/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    imported = {}
    for node in tree.body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path) == []


def private_names(tree: ast.Module) -> dict[str, int]:
    """The module's top-level ``_name`` definitions, dunders aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def test_every_private_name_is_read_in_the_package():
    read, unread = set(), []
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    for path, tree in trees.items():
        unread += [f"{path.name}: {name} (line {line})"
                   for name, line in private_names(tree).items() if name not in read]
    assert unread == []
