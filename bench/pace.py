"""Machine pace: how fast this core runs right now, read from a fixed kernel.

The benchmark runs on shared cores, where the same code can take up to three
times as long in one phase as in another, and a phase can outlast a whole
run.  :class:`Pacer` therefore times a small fixed kernel just before an
operation, every SAMPLE_INTERVAL_S while it runs (from a SIGALRM handler, so
no second thread competes with it) and just after it.  The operation's time,
less the time spent in those samples, is scaled by REFERENCE_S over the
median sample: reported times are seconds at the pace of a quiet phase.

The kernel mixes what the package spends its time on: numpy calls on tiny
arrays, ``math.fsum`` over generators and scalar libm calls.  It uses no
package code, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 4.0e-4  # median kernel time in a quiet phase of a 2-core x86-64 sandbox, Python 3.11, numpy 2.4
SAMPLE_INTERVAL_S = 0.05
EDGE_SAMPLES = 5


def _kernel() -> float:
    x = np.ones(4)
    acc = 0.0
    for i in range(120):
        x = np.where(x > 0.5, x * 0.999, x + 0.1)
        acc += math.fsum(v * 0.5 for v in (i, i + 1.0, -i))
        acc += math.exp(-1e-3 * i) * (i % 7)
    return acc


def _sample() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Pacer:
    """Runs callables while sampling the pace; must be used from the main thread."""

    def __init__(self) -> None:
        self._edge = [_sample() for _ in range(EDGE_SAMPLES)]

    def run(self, fn):
        """Call ``fn()``; return its result, its own run time and the factor to the reference pace."""
        samples = list(self._edge)
        spent = 0.0

        def on_alarm(signum, frame) -> None:
            nonlocal spent
            start = perf_counter()
            samples.append(_sample())
            spent += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self._edge = [_sample() for _ in range(EDGE_SAMPLES)]
        return result, elapsed - spent, REFERENCE_S / statistics.median(samples + self._edge)
