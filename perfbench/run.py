"""The blockzeta benchmark: one workload per run, checked, timed, traced.

    python3 perfbench/run.py --workload table-w10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from src/.
Every set-up and every pass is a fresh interpreter (see child.py), so
module caches start cold as they do for a CLI user.  Passes run one at a
time; the verify workload with --jobs 2 adds the program's own two pool
workers.  The last line of stdout is the result object; the line before
it records machine, build and host-speed information.

Times are reported at the reference host speed: each raw time is scaled
by the speed the probe in its interpreter saw (see speed.py).  The raw
times are in the info line.

--trace 0 reports the end-to-end metrics of untraced passes.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics, including the tracing overhead (traced minus untraced wall).
See README.md for the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUPS = 7  # set-ups per run; setup_s is the median of their scaled times
PASS_TIMEOUT = 150

# (name, unit) of every per-layer metric, reported on every workload.
PER_LAYER = [
    ("rank.rank_of.calls", "count"), ("rank.rank_of.s", "s"), ("rank.rank_of.cells", "count"),
    ("rank.cyclic_rows.s", "s"), ("rank.altodd_rows.s", "s"), ("rank.duality_rows.s", "s"),
    ("rank.vectorize.calls", "count"), ("rank.vectorize.s", "s"),
    ("rank.basis_compositions.calls", "count"),
    ("regalgebra.stuffle_depth1.calls", "count"), ("regalgebra.stuffle_depth1.s", "s"),
    ("regalgebra.regularise.calls", "count"), ("regalgebra.regularise.s", "s"),
    ("regalgebra.regularise.terms_in", "count"), ("regalgebra.regularise.terms_out", "count"),
    ("regalgebra.regularise_word.calls", "count"), ("regalgebra.regularise_word.reuse_ratio", "ratio"),
    ("regalgebra.regularise_word.distinct", "count"),
    ("lincomb.map_terms.calls", "count"), ("lincomb.map_terms.s", "s"),
    ("lincomb.combine.calls", "count"), ("lincomb.combine.s", "s"),
    ("series.transforms", "count"), ("series.coef_ops", "count"), ("series.s", "s"),
    ("series.g_value.calls", "count"), ("series.g_value.s", "s"),
    ("numerics.eval_word.calls", "count"), ("numerics.eval_word.s", "s"),
    ("numerics.eval_word.distinct", "count"),
    ("numerics.eval_mzv.calls", "count"), ("numerics.eval_mzv.reuse_ratio", "ratio"),
    ("numerics.eval_mzv.distinct", "count"),
    ("numerics.eval_lincomb.calls", "count"), ("numerics.eval_lincomb.s", "s"),
    ("numerics.recognize_rational.calls", "count"), ("numerics.recognize_rational.s", "s"),
    ("numerics.verify.calls", "count"), ("numerics.verify.s", "s"),
    ("cli.verify.parallel_eff", "ratio"),
    ("derivation.d_r.calls", "count"), ("derivation.d_r.s", "s"), ("derivation.d_r.terms_out", "count"),
    ("derivation.canonical_word.calls", "count"),
    ("derivation.kernel_report.calls", "count"), ("derivation.kernel_report.s", "s"),
    ("reflect.reflective_closure.calls", "count"), ("reflect.reflective_closure.s", "s"),
    ("reflect.reflective_closure.closure_size", "count"),
    ("serial.identity_from_json.calls", "count"), ("serial.identity_from_json.s", "s"),
    ("serial.identity_to_json.calls", "count"), ("serial.identity_to_json.s", "s"),
    ("serial.payload_bytes", "bytes"),
    ("identities.generate.calls", "count"), ("identities.generate.s", "s"),
    ("cli.run.calls", "count"), ("cli.run.s", "s"),
    ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("host.drift", "ratio"),
]


class ChildFailed(Exception):
    pass


def child(args: list[str], stdin: str | None = None) -> tuple[float, dict]:
    """Run child.py in a fresh interpreter; (wall seconds, its JSON output)."""
    env = dict(os.environ)
    env.pop("MZV_CACHE_PATH", None)  # a persisted value cache would warm every pass
    t0 = time.perf_counter()
    # own session, so a timed-out child is killed with its pool workers
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args[0]} timed out") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {err[-2000:]}")
    return wall, json.loads(out.splitlines()[-1])


def machine_info(kernel: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "kernel": kernel,
    }


def git_commit() -> str | None:
    """HEAD when the checkout is a git work tree, else None."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the build without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "blockzeta")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".so")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


EMPTY_TRACE = {"calls": {}, "total": {}, "self_s": {}, "counts": {}, "gauges": {}}


class Pass:
    """One fresh-interpreter execution of a workload's calls."""

    def __init__(self, name: str, job: dict, traced: bool):
        sent = {"calls": [{"argv": c["argv"], "stdin": c.get("stdin")} for c in job["calls"]]}
        t0 = time.perf_counter()
        try:
            self.wall, out = child(["pass"] + (["--trace"] if traced else []), json.dumps(sent))
        except ChildFailed as exc:  # every item of the pass counts as failed
            print(f"pass failed: {exc}", file=sys.stderr)
            self.wall = time.perf_counter() - t0
            out = {"results": [], "trace": EMPTY_TRACE, "probe": [], "cpu_s": 0.0, "rss_mb": 0.0}
        self.results = out["results"]
        self.trace = out["trace"]
        self.speed = speed.factor(out["probe"])
        self.cpu_s = out["cpu_s"]
        self.rss_mb = out["rss_mb"]
        self.attempted, self.failed = workloads.check_pass(name, job["calls"], self.results)
        argv = job["calls"][0]["argv"]
        verify = argv[0] == "verify"
        self.jobs = int(argv[argv.index("--jobs") + 1]) if verify else 1
        # Verify items are the program's own per-identity `elapsed_seconds`
        # (rounded to 0.1 ms); other items are timed per CLI call.
        reports = [
            rep for r in self.results if verify
            for rep in workloads.json_lines(r["out"]) if isinstance(rep, dict)
        ]
        self.items = [rep.get("elapsed_seconds", 0.0) for rep in reports] if verify else [r["t"] for r in self.results]
        self.report_elapsed = sum(self.items) if verify else 0.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.speed

    @property
    def parallel_eff(self) -> float:
        return self.report_elapsed / (self.jobs * self.wall)


def run_passes(name: str, job: dict, deadline: float, traced_too: bool):
    """Passes until the next one would end after the deadline (at least one of each kind).

    Returns (untraced passes, traced passes).
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    longest = 0.0
    while True:
        want_traced = traced_too and len(traced) < len(plain)
        p = Pass(name, job, want_traced)
        (traced if want_traced else plain).append(p)
        longest = max(longest, p.wall)
        enough = plain and (traced or not traced_too)
        if enough and time.perf_counter() + longest > deadline:
            return plain, traced


def self_check() -> list[str]:
    """Problems found when known-bad results go through the accounting."""
    problems = []
    ref = workloads.table_reference()
    right_output = {"code": 0, "out": json.dumps(ref) + "\n"}
    wrong = json.loads(json.dumps(ref))
    wrong["overall"] += 1
    if workloads.check_table(right_output, wrong) != (1, 1):
        problems.append("a wrong reference row was not counted as failed")
    if workloads.check_table(right_output, ref) != (1, 0):
        problems.append("the reference row does not match itself")
    try:
        _, out = child(["selfcheck"])
    except ChildFailed as exc:
        return problems + [f"the self-check could not run: {exc}"]
    if workloads.check_verify(out["call"], out["results"][0]) != (1, 1):
        problems.append("a perturbed-rhs identity was not counted as failed")
    return problems


def good(passes: list[Pass]) -> list[Pass]:
    """The passes with no failed item, or all of them when every pass failed."""
    return [p for p in passes if p.failed == 0] or passes


def fastest_items(passes: list[Pass]) -> list[float]:
    """Each item's fastest time over the passes (pooled if a pass lost items)."""
    counts = {len(p.items) for p in passes}
    if len(counts) != 1:
        return [t for p in passes for t in p.items]
    return [min(ts) for ts in zip(*(p.items for p in passes))]


def layer_metrics(p: Pass, setup_trace: dict, setup_speed: float) -> dict[str, float]:
    """A traced pass plus the traced set-up; seconds scaled like wall_s."""
    calls, counts = dict(p.trace["calls"]), dict(p.trace["counts"])
    for field, mine in (("calls", calls), ("counts", counts)):
        for k, v in setup_trace[field].items():
            mine[k] = mine.get(k, 0) + v
    total = {k: v * p.speed for k, v in p.trace["total"].items()}
    for k, v in setup_trace["total"].items():
        total[k] = total.get(k, 0.0) + v * setup_speed
    gauges = {k: sum(v.values()) for k, v in p.trace["gauges"].items()}
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "s":
            out[name] = total.get(base, 0.0)
        elif stat == "distinct":
            out[name] = gauges.get(name, 0)
        else:  # a counter; ratios and run-level figures are filled in below
            out[name] = counts.get(name, 0)
    out["series.s"] = sum(total.get(f"series.{f}", 0.0) for f in ("g_init", "g_append", "g_value"))
    for base in ("regalgebra.regularise_word", "numerics.eval_mzv"):
        n = calls.get(base, 0)
        out[f"{base}.reuse_ratio"] = counts.get(f"{base}.hits", 0) / n if n else 0.0
    return out


def span_table(trace: dict) -> dict:
    return {
        k: {"calls": trace["calls"][k], "total_s": trace["total"].get(k, 0.0), "self_s": trace["self_s"].get(k, 0.0)}
        for k in sorted(trace["calls"])
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every seeded input; default: the acceptance-suite seeds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "blockzeta")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'blockzeta')}", file=sys.stderr)
        return 2
    seeds = dict(workloads.DEFAULT_SEEDS) if args.seed is None else {k: args.seed for k in workloads.DEFAULT_SEEDS}
    start = time.perf_counter()
    deadline = start + args.seconds
    setups = []  # (raw seconds, speed factor) of each set-up
    setup_flag = ["--trace"] if args.trace else []
    for _ in range(SETUPS if not args.trace else 1):
        wall, job = child(["setup", args.workload, json.dumps(seeds)] + setup_flag)
        setups.append((wall, speed.factor(job.pop("probe"))))
    plain, traced = run_passes(args.workload, job, deadline, bool(args.trace))
    problems = self_check()
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = good(plain)
    factors = [f for _, f in setups] + [p.speed for p in passes]
    drift = (max(factors) - min(factors)) / statistics.median(factors)
    wall_s = statistics.median(p.scaled_wall for p in timed)
    items_ms = [t * 1000 for t in fastest_items(timed)] or [wall_s * 1000]
    item_latency = {"item_p50_ms": quantile(items_ms, 0.5), "item_p90_ms": quantile(items_ms, 0.9)}
    info = {
        "workload": args.workload, "seeds": seeds, "seconds": args.seconds,
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "pass_walls_s": [p.wall for p in plain], "pass_speed": [p.speed for p in plain],
        "setup_walls_s": [w for w, _ in setups], "setup_speed": [f for _, f in setups],
        "item_samples": len(items_ms), **item_latency, "host_drift": drift,
        "self_check_problems": problems,
        **machine_info(job["kernel"]),
    }
    if args.trace:
        per_pass = [layer_metrics(p, job["trace"], setups[0][1]) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name, _ in PER_LAYER}
        metrics.update(item_latency)
        metrics["cli.verify.parallel_eff"] = statistics.median(p.parallel_eff for p in timed)
        metrics["trace.overhead_s"] = statistics.median(p.scaled_wall for p in good(traced)) - wall_s
        metrics["host.drift"] = drift
        info["spans"] = span_table(traced[0].trace)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(w * f for w, f in setups),
            "wall_s": wall_s,
            "items_per_s": timed[0].attempted / wall_s,
            "cpu_s": statistics.median(p.cpu_s * p.speed for p in timed),
            "peak_rss_mb": max(p.rss_mb for p in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
