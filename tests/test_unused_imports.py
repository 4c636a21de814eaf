"""Every name a ``src/repro`` module imports is used in that module.

pyflakes and ruff are not dependencies, so this is a small ``ast`` pass:
an imported name must appear again as a ``Name`` (the ``a`` of
``a.b`` counts), inside a string annotation, or in the module's
``__all__``.  Package ``__init__.py`` files are skipped — their imports
are the package's re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _strings_as_names(node):
    """Names inside every string literal under ``node`` that parses as
    an expression (``"Optional[int]"`` → ``Optional``, ``int``)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def unused_imports(source: str):
    """``[(line, name)]`` for every imported name never mentioned again."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (node.lineno, alias.asname or alias.name.split(".")[0])
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [
                (node.lineno, alias.asname or alias.name)
                for alias in node.names
                if alias.name != "*"
            ]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            annotation = node.value  # exported names are uses too
        if annotation is not None:
            used.update(_strings_as_names(annotation))
    return [(line, name) for line, name in imported if name not in used]


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_checker_counts_string_annotations_attributes_and_all():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from repro.errors import ChainError\n"
        "__all__ = ['ChainError']\n"
        "def f(a: 'Optional[int]') -> 'Dict[str, int]':\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "List")]
