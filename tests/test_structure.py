"""Module boundaries inside the package.

A helper shared between modules is public in the module that owns it;
a relative import of another module's underscore name means the helper
lives in the wrong place or is written twice.
"""

import ast
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
