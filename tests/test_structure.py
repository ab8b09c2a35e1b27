"""Module boundaries inside the package.

A helper shared between modules is public in the module that owns it;
a relative import of another module's underscore name means the helper
lives in the wrong place or is written twice.
"""

import ast
import re
from pathlib import Path

import blockzeta

PACKAGE = Path(blockzeta.__file__).resolve().parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not offenders, offenders


README = PACKAGE.parent.parent / "README.md"


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module loads, each outside the top-level definition of that name."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_public_definition_is_used_or_documented():
    """A public function or class earns its place in the package by being
    run from package code other than its own body, or by being named in
    README.md; the `__init__` import lists do not count.  Test oracles
    live under tests/."""
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "__init__.py":
            used |= _referenced_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
    documented = set(re.findall(r"\w+", README.read_text()))
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in documented
    )
    assert not unused, unused
