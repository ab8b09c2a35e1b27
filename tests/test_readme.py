import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path
from types import ModuleType

from blockzeta import cli

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


def _run(argv: list[str], stdin: str, monkeypatch) -> tuple[int, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_command_line_block_runs(monkeypatch):
    # each line exits 0; a pipe feeds the first command's stdout to the second;
    # on the conversion lines the text after `#` is the exact output
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Command line\s*```sh\n(.*?)```", text, re.DOTALL)
    assert match, "README.md has no Command line sh block"
    lines = [line for line in match.group(1).splitlines() if line.strip()]
    exact = 0
    for line in lines:
        stdout = ""
        for command in line.split("|"):
            argv = shlex.split(command, comments=True)
            assert argv[0] == "blockzeta", line
            code, stdout = _run(argv[1:], stdout, monkeypatch)
            assert code == 0, line
        if argv[1] in ("decompose", "word", "mzv", "regularise"):
            assert stdout == line.split("#", 1)[1].strip() + "\n", line
            exact += 1
    assert exact == 4
