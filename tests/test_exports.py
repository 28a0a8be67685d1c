"""Every name the package re-exports is reached from the package itself,
or is one of the library's entry points. A name only tests use belongs in
tests/oracles.py, not in the export list."""

import ast
from pathlib import Path

import thzplan

ENTRY_POINTS = ("run", "heatmap", "sweep", "associate", "detect_crossover", "CrossoverResult")

PACKAGE = Path(thzplan.__file__).parent


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _uses() -> set[str]:
    """Names read, attributes taken and names imported in the package's
    modules; a def or class statement is not a use of its own name."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_caller_in_the_package():
    exports = _exports()
    assert set(ENTRY_POINTS) <= set(exports)
    used = _uses()
    assert [n for n in exports if n not in used and n not in ENTRY_POINTS] == []
