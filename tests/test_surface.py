"""Every public name in the package, and every config setting, has a reader outside the tests.

The tests parse ``src/hiermem`` and the benchmark's non-test modules in
``hmbench/`` and collect every name they reference. One fails on a public
top-level function, class or public method that nothing references apart
from its own body. The other fails on a field of a run-config section that
nothing reads as an attribute outside its own class body: a setting
nothing reads only makes runs that differ in name. ``refcheck`` holds test
oracles and is exempt. Names matched as attributes are matched by name
alone, so a method shares its reference with any same-named attribute; the
checks err towards passing.
"""

import ast
import dataclasses
from pathlib import Path

from hiermem import config as hc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hiermem"

class _References(ast.NodeVisitor):
    """Names and attributes referenced, skipping a function's mentions of itself."""

    def __init__(self):
        self.names: set[str] = set()
        self._defs: list[str] = []

    def _visit_def(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def _add(self, name):
        if name not in self._defs:
            self.names.add(name)

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._add(alias.name)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name


class _AttributeReads(ast.NodeVisitor):
    """Attribute names loaded, outside the bodies of the classes named in ``skip``."""

    def __init__(self, skip: set[str]):
        self.names: set[str] = set()
        self.skip = skip

    def visit_ClassDef(self, node):
        if node.name not in self.skip:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


def _sources() -> dict[Path, ast.Module]:
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "refcheck") + sorted(
        p for p in (ROOT / "hmbench").glob("*.py") if not p.name.startswith("test_")
    )
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _unused() -> list[str]:
    refs = _References()
    trees = {}
    for path, tree in _sources().items():
        refs.visit(tree)
        if path.parent == PACKAGE:
            trees[path.stem] = tree
    return sorted(
        qual
        for module, tree in trees.items()
        for qual, name in _definitions(module, tree)
        if name not in refs.names
    )


def test_every_public_name_has_a_production_caller():
    assert _unused() == []


def _unread_settings() -> list[str]:
    sections = hc._SECTIONS.values()
    reads = _AttributeReads({cls.__name__ for cls in sections})
    for tree in _sources().values():
        reads.visit(tree)
    return sorted(
        f"{cls.__name__}.{f.name}"
        for cls in sections
        for f in dataclasses.fields(cls)
        if f.name not in reads.names
    )


def test_every_config_setting_is_read():
    assert _unread_settings() == []
