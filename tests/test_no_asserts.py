"""No `assert` statement in the package: `python -O` strips them, so every
check the engine relies on must raise an error instead."""

import ast
from pathlib import Path

import quartic_torsion

PACKAGE = Path(quartic_torsion.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
