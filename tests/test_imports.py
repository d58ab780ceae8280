"""Every import in the tree is used.

A stdlib ``ast`` scan of ``src/``, ``tests/``, ``benchmarks/`` and
``examples/``: a name bound by ``import`` or ``from ... import`` must be
read somewhere in its module -- as a name, the root of an attribute
chain, inside a string annotation, or listed in ``__all__``.
``__init__.py`` files are exempt: their imports are the package's
re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _string_annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    yield ast.parse(part.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for root in [tree, *_string_annotations(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                used.add(node.id)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(element.value for element in node.value.elts
                        if isinstance(element, ast.Constant))
    return used


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, name) of every import ``path`` never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


def _modules() -> list[pathlib.Path]:
    return sorted(path for tree in TREES
                  for path in (ROOT / tree).rglob("*.py")
                  if path.name != "__init__.py")


@pytest.mark.parametrize("tree", TREES)
def test_no_unused_imports(tree):
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in _modules()
             if path.relative_to(ROOT).parts[0] == tree
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_an_unused_import(tmp_path):
    """The scan itself: a bare unused import is reported; one read as
    an attribute root, one in a string annotation and one listed in
    ``__all__`` are not."""
    module = tmp_path / "probe.py"
    module.write_text(
        "import json\nimport os\nfrom typing import Any\n"
        "from math import pi\n__all__ = ['pi']\n"
        "def f(x: 'Any') -> None:\n    os.getcwd()\n")
    assert unused_imports(module) == [(1, "json")]
