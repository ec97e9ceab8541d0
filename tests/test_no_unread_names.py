"""Every name the package defines is read by the engine or by the benchmark.
A function, class, constant or method that nothing in `src/` or `perfbench/`
reads outside its own definition fails here: it is dead code, leftover data,
or a test oracle, and oracles and test data live in `tests/`.

A string constant counts as a read only when the whole string is a dotted
name, as the benchmark tracer's targets are ("Curve.division_polynomial"), so
no word of a docstring or a dictionary key passes a name as read.  An
attribute read still matches by its bare name, whatever the class: so
`Curve.to_str` passed as read through `RatPoly.to_str`, and `RatPoly.from_str`
through `Curve.from_str`, until both were deleted."""

import ast
import re
from pathlib import Path

import quartic_torsion

PACKAGE = Path(quartic_torsion.__file__).parent
ROOT = PACKAGE.parent.parent
READERS = ("src", "perfbench")
EXEMPT = {"__version__"}


def _definitions(tree):
    """(name, node) for each module-level function, class and constant, and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield item.name, item


def _reads(tree, in_package):
    """(name, line) for each read of a package name: a loaded variable (in a
    file outside the package, only one imported from it), an attribute, or a
    part of a string constant that is a whole dotted name (the benchmark's
    tracer and the tests' monkeypatching name functions by string)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                PACKAGE.name)):
            imported.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if in_package or node.id in imported:
                yield imported.get(node.id, node.id), node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def test_every_package_name_is_read():
    reads = {}  # name -> [(path, line)]
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for name, line in _reads(tree, path.parent == PACKAGE):
                reads.setdefault(name, []).append((path, line))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, node in _definitions(tree):
            if name in EXEMPT:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside for p, line in reads.get(name, ())):
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, f"names nothing reads: {unread}"
