"""No module of the package or of the tests imports a name it never uses, and every
public name of the package has a caller in it."""

import ast
from pathlib import Path

import pytest

import noonring

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "noonring").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read: not as a name, as the base of an
    attribute, in a string annotation, or in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                         node.args.vararg, node.args.kwarg]
            annotations = [node.returns] + [a.annotation for a in arguments if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {name.id for name in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(name, ast.Name)}
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from typing import TYPE_CHECKING\n"
              "def f(x: 'TYPE_CHECKING') -> None:\n    return np.sqrt(pi)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]


def unread_names(sources: list[str], names) -> list[str]:
    """Those of `names` that no source reads, as a name or an attribute, outside the
    definition that binds it."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            read.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(set(names) - read)


def test_every_public_name_has_a_caller_in_the_package():
    sources = [path.read_text() for path in (ROOT / "src" / "noonring").glob("*.py")
               if path.name != "__init__.py"]
    assert unread_names(sources, noonring.__all__) == []


def test_the_scan_finds_an_unread_name():
    source = ("def f(n):\n    return f(n - 1)\n"
              "class C:\n    pass\n"
              "def g():\n    return C()\n")
    assert unread_names([source], ["f", "g", "C"]) == ["f", "g"]
