"""Every public name in the package has a caller outside the tests.

The test parses ``src/hiermem`` and the benchmark's non-test modules in
``hmbench/``, collects every name they reference, and fails on a public
top-level function, class or public method that nothing references apart
from its own body. ``refcheck`` holds test oracles and is exempt. Names
matched as attributes are matched by name alone, so a method shares its
reference with any same-named attribute; the check errs towards passing.
"""

import ast
from pathlib import Path

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


def _unused() -> list[str]:
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "refcheck") + sorted(
        p for p in (ROOT / "hmbench").glob("*.py") if not p.name.startswith("test_")
    )
    refs = _References()
    trees = {}
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
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
