"""Spans and counters around the package's layer functions.

The wrappers are installed from outside the package, under the name each
caller looks up: `from .regalgebra import regularise` gives numerics and
rank their own binding, while `series.g_*` is read through the module,
so each binding is patched where it is read.  Nothing under src/ changes.

Spans are aggregated in memory per name (calls, inclusive seconds of the
outermost activation, self seconds) rather than kept one by one: the
busiest layers run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import os
import time
from functools import wraps

perf = time.perf_counter


class Recorder:
    """Per-process span totals, counters and gauges."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, dict[int, float]] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._depth: dict[str, int] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges.setdefault(name, {})[os.getpid()] = value

    def enter(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, perf(), 0.0])

    def leave(self) -> None:
        name, start, children = self._stack.pop()
        dur = perf() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
        if self._stack:
            self._stack[-1][2] += dur
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.total[name] = self.total.get(name, 0.0) + dur

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "gauges": {k: dict(v) for k, v in self.gauges.items()},
        }

    def merge(self, snap: dict) -> None:
        for field in ("calls", "total", "self_s", "counts"):
            mine = getattr(self, field)
            for k, v in snap[field].items():
                mine[k] = mine.get(k, 0) + v
        for k, per_pid in snap["gauges"].items():
            self.gauges.setdefault(k, {}).update(per_pid)


REC = Recorder()


def _span(name, fn, before=None, after=None):
    """Wrap fn in a span; optional hooks see the arguments and the result."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        REC.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            REC.leave()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(name, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        REC.calls[name] = REC.calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _patch(modules, attr, make):
    """Replace `attr` with one shared wrapper in every module that binds it.

    A listed module that no longer binds the original fails the traced
    run, so a refactor shows as an error rather than a layer reading zero.
    """
    original = getattr(modules[0], attr)
    stale = [m.__name__ for m in modules if getattr(m, attr, None) is not original]
    if stale:
        raise RuntimeError(f"{attr} is no longer bound in {', '.join(stale)}; update layers.py")
    wrapper = make(original)
    for mod in modules:
        setattr(mod, attr, wrapper)


def _ship_from_workers() -> None:
    """Bring back what each `--jobs` pool worker measured, on its report.

    The wrappers reach the workers by fork, the 3.11 Linux default.
    """
    from blockzeta import cli

    payload = cli._verify_payload

    @wraps(payload)
    def shipping_payload(*args, **kwargs):
        REC.reset()  # drop what the worker inherited from its parent at fork
        rep = payload(*args, **kwargs)
        _cache_gauges()
        rep.__dict__["_bench"] = REC.snapshot()
        return rep

    cli._verify_payload = shipping_payload
    base = cli.ProcessPoolExecutor

    class Executor(base):
        """The program's pool, collecting what each worker measured."""

        def __init__(self, *args, **kwargs):
            import multiprocessing

            kwargs.setdefault("mp_context", multiprocessing.get_context("fork"))
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            for rep in super().map(fn, *iterables, **kwargs):
                shipped = rep.__dict__.pop("_bench", None)
                if shipped is not None:
                    REC.merge(shipped)
                yield rep

    cli.ProcessPoolExecutor = Executor


def _cache_gauges() -> None:
    from blockzeta import numerics, regalgebra

    REC.gauge("regalgebra.regularise_word.distinct", len(regalgebra._REG_CACHE))
    REC.gauge("numerics.eval_word.distinct", len(numerics._word_cache))
    REC.gauge("numerics.eval_mzv.distinct", len(numerics._cache._mem))


def install_trace() -> None:
    """Wrap the public functions of each layer for the traced run."""
    from blockzeta import (
        cli, derivation, identities, lincomb, numerics, rank, reflect,
        regalgebra, serial, series,
    )
    from blockzeta.numerics import _digits_bucket

    # rank
    def rank_cells(args, _):
        rows = args[0]
        REC.count("rank.rank_of.cells", len(rows) * (len(rows[0]) if rows else 0))

    _patch([rank], "rank_of", lambda f: _span("rank.rank_of", f, after=rank_cells))
    for fam in ("cyclic_rows", "altodd_rows", "duality_rows"):
        _patch([rank], fam, lambda f, n=fam: _span(f"rank.{n}", f))
    _patch([rank], "vectorize", lambda f: _span("rank.vectorize", f))
    _patch([rank], "basis_compositions", lambda f: _counted("rank.basis_compositions", f))
    _patch([cli], "table_row", lambda f: _span("rank.table_row", f))

    # regalgebra
    def reg_in(args):
        REC.count("regalgebra.regularise.terms_in", len(args[0]))

    def reg_out(_, result):
        REC.count("regalgebra.regularise.terms_out", len(result))

    _patch(
        [regalgebra, numerics, rank],
        "regularise",
        lambda f: _span("regalgebra.regularise", f, before=reg_in, after=reg_out),
    )

    def word_hit(args):
        if args[0] in regalgebra._REG_CACHE:
            REC.count("regalgebra.regularise_word.hits")

    _patch(
        [regalgebra, cli],
        "regularise_word",
        lambda f: _span("regalgebra.regularise_word", f, before=word_hit),
    )
    _patch([regalgebra, rank], "stuffle_depth1", lambda f: _span("regalgebra.stuffle_depth1", f))

    # lincomb
    lincomb.LinComb.map_terms = _span("lincomb.map_terms", lincomb.LinComb.map_terms)
    _patch(
        [lincomb, regalgebra, identities, derivation],
        "combine",
        lambda f: _span("lincomb.combine", f),
    )

    # series: read through the module by numerics
    def transform(args, _):
        REC.count("series.transforms")
        REC.count("series.coef_ops", args[-2])

    def value_ops(args, _):
        REC.count("series.coef_ops", args[-2])

    series.g_init = _span("series.g_init", series.g_init, after=transform)
    series.g_append = _span("series.g_append", series.g_append, after=transform)
    series.g_value = _span("series.g_value", series.g_value, after=value_ops)

    # numerics
    def word_key(args):
        digits = args[1] if len(args) > 1 else numerics.DEFAULT_DIGITS
        if (args[0], _digits_bucket(digits)) in numerics._word_cache:
            REC.count("numerics.eval_word.hits")

    def mzv_key(args):
        digits = args[1] if len(args) > 1 else numerics.DEFAULT_DIGITS
        if (args[0], _digits_bucket(digits)) in numerics._cache._mem:
            REC.count("numerics.eval_mzv.hits")

    _patch([numerics], "eval_word", lambda f: _span("numerics.eval_word", f, before=word_key))
    _patch([numerics], "eval_mzv", lambda f: _span("numerics.eval_mzv", f, before=mzv_key))
    _patch([numerics], "eval_lincomb", lambda f: _span("numerics.eval_lincomb", f))
    _patch([numerics], "recognize_rational", lambda f: _span("numerics.recognize_rational", f))

    # derivation and reflect
    def d_r_out(_, result):
        REC.count("derivation.d_r.terms_out", len(result))

    _patch([derivation], "d_r", lambda f: _span("derivation.d_r", f, after=d_r_out))
    _patch([derivation], "canonical_word", lambda f: _counted("derivation.canonical_word", f))
    _patch([cli], "kernel_report", lambda f: _span("derivation.kernel_report", f))

    def closure_size(_, result):
        REC.count("reflect.reflective_closure.closure_size", len(result))

    _patch(
        [cli],
        "reflective_closure",
        lambda f: _span("reflect.reflective_closure", f, after=closure_size),
    )

    # serial: cli reads these through the module
    serial.identity_from_json = _span("serial.identity_from_json", serial.identity_from_json)
    serial.identity_to_json = _span("serial.identity_to_json", serial.identity_to_json)
    dumps = serial.dumps

    @wraps(dumps)
    def counted_dumps(obj):
        text = dumps(obj)
        REC.count("serial.payload_bytes", len(text))
        return text

    serial.dumps = counted_dumps

    # identities: every generator, as the set-up and the CLI look it up
    for name in [n for n in vars(identities) if n.startswith("gen_")]:
        original = getattr(identities, name)
        wrapper = _span("identities.generate", original)
        for mod in (identities, cli, rank):
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    # cli: the verify call, and each command as a whole
    _patch([cli], "verify", lambda f: _span("numerics.verify", f))
    cli.run = _span("cli.run", cli.run)
    _ship_from_workers()


def finish() -> dict:
    """Snapshot of this process, with the sizes of its value caches."""
    _cache_gauges()
    return REC.snapshot()
