"""The benchmark's set-up and checks, run against the package.

`perfbench/workloads.py` builds its inputs by calling package functions
directly and checks the program's output against its own references.
This loads it by path, unchanged, builds every workload, and runs the
cheap passes through `cli.run`, so a change to a name or signature the
benchmark uses fails here and not only in a benchmark run.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from blockzeta import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_calls(calls: list[dict], monkeypatch) -> list[dict]:
    """Each call through cli.run, as the benchmark's pass runs it."""
    results = []
    for call in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(call.get("stdin") or ""))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(call["argv"])
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
    return results


def test_every_workload_builds(workloads):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, workloads.DEFAULT_SEEDS)["calls"], name
    assert workloads.perturbed_identity_call()["argv"][0] == "verify"


def test_table_pass_checks_clean(workloads, monkeypatch):
    calls = workloads.build("table-w10", workloads.DEFAULT_SEEDS)["calls"]
    results = _run_calls(calls, monkeypatch)
    assert workloads.check_pass("table-w10", calls, results) == (1, 0), results


def test_criterion_4_dkernel_call_checks_clean(workloads, monkeypatch):
    calls = workloads.build("dkernel-closure", workloads.DEFAULT_SEEDS)["calls"]
    crit4 = [call for call in calls if "residue" in call]
    assert len(crit4) == 1
    results = _run_calls(crit4, monkeypatch)
    assert workloads.check_pass("dkernel-closure", crit4, results) == (1, 0), results


def test_perturbed_identity_is_refuted(workloads, monkeypatch):
    call = workloads.perturbed_identity_call()
    [result] = _run_calls([call], monkeypatch)
    assert result["code"] == 1, result
    assert workloads.check_pass("verify-mixed-d500-j2", [call], [result]) == (1, 1)
