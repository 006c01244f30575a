"""No linter is installed, so this checks the lint rules the package relies on:
every name a module of the package imports is used there or re-exported, every
private top-level name is referenced somewhere in the package, and every import
sits at module level."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainlock"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ = [...] re-exports what it names
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport math\nmath.pi\n") == ["os (line 1)"]
    assert unused_imports("from .errors import ShapeError\n__all__ = ['ShapeError']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level functions, classes and assignments whose names start with one underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {k: v for k, v in names.items() if k.startswith("_") and not k.startswith("__")}


def references(tree: ast.Module) -> set[str]:
    """Names the module reads, looks up as attributes, or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names of the modules in ``sources`` that no module references."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = set().union(*map(references, trees.values()))
    return [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in refs]


def nested_imports(source: str) -> list[str]:
    """Imports inside a function body."""
    return [f"line {node.lineno}" for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_checker_flags_an_unreferenced_private_name():
    sources = {"a.py": "_used = 1\n_left = 2\ndef _fn():\n    return _used\n",
               "b.py": "from .a import _fn\n"}
    assert unreferenced_private_names(sources) == ["a.py: _left (line 2)"]


def test_checker_flags_a_nested_import():
    assert nested_imports("import os\ndef f():\n    from math import pi\n    return pi\n") \
        == ["line 3"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []
