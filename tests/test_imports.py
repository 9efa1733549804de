"""Every name a module of the package imports, and every private name it
defines at module level, is used in it or re-exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sfwmkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used(tree):
    """Names that `tree` reads anywhere or lists in its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    """Names bound by an import in `source` that it never reads and does not
    list in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - _used(tree))


def unused_private_names(source):
    """Private (one leading underscore) module-level functions, classes and
    constants of `source` that it never reads and does not list in its __all__."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.add(name.id)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - _used(tree))


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\nnp.sin(0)\n"
    assert unused_imports(source) == ["os", "pi"]


def test_checker_finds_an_unused_private_name():
    source = (
        "__all__ = ['_exported']\n"
        "_A, _B = 1, 2\n"
        "_C: int = 3\n"
        "def _helper(x):\n    return _A + x\n"
        "def _unread():\n    _local = 1\n    return _local\n"
        "class _Unread:\n    pass\n"
        "def _exported():\n    return _helper(_C)\n"
        "def public():\n    pass\n"
    )
    assert unused_private_names(source) == ["_B", "_Unread", "_unread"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []
