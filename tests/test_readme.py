import re
from pathlib import Path
from types import ModuleType

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the documented API: every name the sketch uses must stay exported
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library sketch\s*```python\n(.*?)```", text, re.DOTALL)
    assert match, "README.md has no Library sketch python block"
    exec(compile(match.group(1), str(README), "exec"), {})


def test_star_import_binds_no_module():
    # the sketch's `from blockzeta import *` binds API names, not submodules
    namespace = {}
    exec("from blockzeta import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, ModuleType))
    assert not modules, modules
