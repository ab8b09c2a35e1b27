"""A speed probe that runs inside each benchmark interpreter.

The shared host runs each CPU at one of two speeds, about 1.6x apart, and
switches between them over seconds to minutes, independently on each CPU.
A pass of several seconds mixes the two in a proportion that changes from
run to run, so its raw wall time says as much about the host as about the
program.  The probe measures that mix where and when the program runs:
every TICK seconds a timer signal interrupts the interpreter between two
bytecodes, which runs a small integer loop twice on the same CPU and times
the second, warm run in thread CPU time, so neither the program's use of
the caches nor preemption enters the sample.  It costs about 0.5% of the
pass.

`factor(samples)` is the mean of REF_S / sample: the time-average of the
host's speed relative to the reference speed, at which the loop takes
REF_S.  A raw time multiplied by it reads as seconds at the reference
speed.

Interval timers are not inherited across fork, so pool workers run
unprobed.  When they are busy on every CPU, `spread_over_cpus()` makes
their parent take each tick on the next CPU in turn, so the factor
averages the CPUs the workers run on.  The parent's own CPU set is
restored before the handler returns, so a worker forked later inherits
the full set.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

TICK = 0.01
REF_S = 20e-6  # the loop's time in the fast state of the reference machine

_cpu = time.thread_time
samples: list[float] = []
_cpus: list[int] = []  # probe these in turn; empty: probe where the program runs


def _kernel() -> None:
    s = 0
    for i in range(300):
        s += i * i % 7


def _tick(signum, frame) -> None:
    if _cpus:
        os.sched_setaffinity(0, {_cpus[len(samples) % len(_cpus)]})
    _kernel()
    t0 = _cpu()
    _kernel()
    samples.append(_cpu() - t0)
    if _cpus:
        os.sched_setaffinity(0, _cpus)


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, TICK, TICK)


def spread_over_cpus() -> None:
    _cpus[:] = sorted(os.sched_getaffinity(0))


def stop() -> list[float]:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return list(samples)


def factor(probe: list[float]) -> float:
    """Mean speed over the samples, relative to the reference speed."""
    return statistics.fmean(REF_S / s for s in probe) if probe else 1.0
