"""One fresh interpreter of the benchmark: set-up, a pass, or the self-check.

    python3 perfbench/child.py setup <workload> <seeds-json> [--trace]
    python3 perfbench/child.py pass [--trace]   < job JSON
    python3 perfbench/child.py selfcheck

`setup` prints the generated calls; `pass` runs each call through
`blockzeta.cli.run` with its argv and stdin, as a user runs the CLI, and
prints exit codes, captured output and timings as one JSON object.
Set-ups and passes carry the speed probe's samples (see speed.py), which
starts before the package is imported.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import speed  # beside this file; started first, so the imports are probed too

speed.start()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402  (lives beside this file)
import workloads  # noqa: E402


def run_calls(calls: list[dict]) -> list[dict]:
    from blockzeta import cli

    results = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(call.get("stdin") or "")
        t0 = time.perf_counter()
        crash = None
        code = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(call["argv"])
        except Exception:  # a crashed call is counted as failed, not fatal
            crash = traceback.format_exc(limit=5)
        elapsed = time.perf_counter() - t0
        sys.stdin = sys.__stdin__
        results.append(
            {"code": code, "out": out.getvalue(), "err": err.getvalue(), "crash": crash, "t": elapsed}
        )
    return results


def usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    traced = "--trace" in argv
    if mode == "setup":
        if traced:
            layers.install_trace()
        job = workloads.build(argv[1], json.loads(argv[2]))
        from blockzeta import series

        job["kernel"] = series.KERNEL
        if traced:
            job["trace"] = layers.finish()
        job["probe"] = speed.stop()
        print(json.dumps(job))
        return 0
    if mode == "pass":
        job = json.load(sys.stdin)
        if any("--jobs" in c["argv"] and c["argv"][c["argv"].index("--jobs") + 1] != "1" for c in job["calls"]):
            speed.spread_over_cpus()  # the pool workers keep every CPU busy
        if traced:
            layers.install_trace()
        results = run_calls(job["calls"])
        probe = speed.stop()
        trace = layers.finish() if traced else None
        print(json.dumps({"results": results, "trace": trace, "probe": probe, **usage()}))
        return 0
    if mode == "selfcheck":
        call = workloads.perturbed_identity_call()
        print(json.dumps({"call": call, "results": run_calls([call])}))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        speed.stop()  # a tick during interpreter shutdown would kill it
    sys.exit(code)
