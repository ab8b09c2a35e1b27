"""The traced benchmark pass patches names inside the package.

`perfbench/layers.py` wraps functions under the name each caller looks
up, and fails when a module no longer binds one.  This runs one traced
pass over small calls of the traced layers, so a refactor that unbinds a
patched name fails here too, not only in a traced benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import blockzeta

SRC = Path(blockzeta.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = sys.argv[1:3]
import layers
layers.install_trace()
from blockzeta import cli
calls = [
    ["dkernel", "--lengths", "2,10,3,2", "--set", "cyclic", "--grade", "7", "--collapse"],
    ["table", "--weight", "5"],
    ["verify", "--family", "hoffman", "--b", "0,0,0", "--digits", "30"],
    ["verify", "--family", "symmetric", "--lengths", "2,3,3", "--digits", "30"],
    ["dkernel", "--lengths", "2,3,3", "--set", "closure"],
]
with redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in calls]
print(json.dumps({"codes": codes, "calls": layers.finish()["calls"]}))
"""

TRACED = (
    "derivation.d_r",
    "derivation.canonical_word",
    "lincomb.combine",
    "series.g_init",
    "rank.rank_of",
    "rank.cyclic_rows",
    "rank.altodd_rows",
    "rank.duality_rows",
    "rank.vectorize",
    "rank.basis_compositions",
    "numerics.eval_word",
    "numerics.recognize_rational",
    "reflect.reflective_closure",
)


def test_traced_pass_binds_every_patched_name():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(PERFBENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert all(result["calls"].get(name, 0) > 0 for name in TRACED), result["calls"]
