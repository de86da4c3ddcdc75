"""The package exports only what a command, a criterion or the benchmark
reaches: every name that ``fraclab/__init__.py`` imports is used in the
package's other modules, in ``perfbench/`` or in the acceptance criteria."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fraclab"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _names_used(paths):
    """Every Name, Attribute and import alias in the files at paths."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name, node.asname})
    return used


def test_every_export_is_reached_by_a_command_a_criterion_or_the_benchmark():
    callers = ([p for p in sorted(PACKAGE.glob("*.py"))
                if p.name != "__init__.py"]
               + sorted((ROOT / "perfbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    assert sorted(_exports() - _names_used(callers)) == []
