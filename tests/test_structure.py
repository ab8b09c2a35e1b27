"""Module boundaries inside the package.

A helper shared between modules is public in the module that owns it;
a relative import of another module's underscore name means the helper
lives in the wrong place or is written twice.
"""

import ast
import re
import sys
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


ROOT = README.parent


def _imported_top_level(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_tier1_workflow_installs_what_the_tests_import():
    """The CI workflow is read as text (PyYAML is not a test dependency):
    it installs the `test` extra and runs pytest with PYTHONPATH=src, and
    that extra names every third-party module the tests import."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.search(r'pip install (-e )?"?\.\[test\]"?', workflow)
    runs = [line for line in workflow.splitlines() if "python -m pytest" in line]
    assert runs and all("PYTHONPATH=src" in line for line in runs), runs

    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    listed = {
        re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', extra)
    }
    local = {"blockzeta"} | {
        p.stem for folder in (ROOT / "tests", ROOT / "perfbench") for p in folder.glob("*.py")
    }
    imported = set().union(*map(_imported_top_level, (ROOT / "tests").rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"pytest", "hypothesis", "mpmath"} <= third_party
    assert third_party <= listed, sorted(third_party - listed)


def test_tier1_workflow_runs_the_floor_python():
    """The workflow's version matrix includes the floor of pyproject's
    requires-python, quoted (YAML reads an unquoted 3.10 as 3.1)."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+\.\d+)"', pyproject, re.M).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"^\s*python-version: \[(.*)\]", workflow, re.M)
    assert matrix, "tier1.yml has no python-version matrix"
    assert f'"{floor}"' in re.findall(r'"[^"]*"', matrix.group(1)), matrix.group(1)
    assert "python-version: ${{ matrix.python-version }}" in workflow
