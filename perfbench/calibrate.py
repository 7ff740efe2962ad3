"""Drift correction: a fixed reference computation timed around every
operation, so that times can be scaled to one reference CPU speed.

The shared host this benchmark is tuned on changes the speed it gives a
process by 15-50% over periods of seconds to minutes, in wall and in CPU
time alike.  A run therefore times ``reference()`` before each operation,
after the last one and, through ``Sampler``, every ``INTERVAL_S`` inside
a running one.  An operation's scaled time is its measured time times
``scale()``, the mean reference speed around and inside it relative to
``NOMINAL_S``: the time it would have taken on a CPU that runs the
reference in ``NOMINAL_S``.  The reference is the benchmark's own code,
never the package's, so a change to ``mwtrees`` cannot move it; it mixes
scalar Python, numpy on arrays shaped like the package's margin tables,
and building and serialising many small objects, the kinds of work the
operations do.

Limitation: work that the measured process does beside the operations
(a background thread, say) slows the reference as well and is partly
scaled away.  Different code also slows by different amounts, so the
correction is partial: over ten seeded runs it cut the spread of the
median latency from 0.17-0.23 to 0.02-0.05 of its median.
"""
from __future__ import annotations

import contextlib
import json
import math
import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

# Reference time of one ``reference()`` call on the CPU that the scaled
# times are expressed on (the median of a quiet minute on the tuning host).
NOMINAL_S = 6.0e-3
# Wall time between two reference samples inside a running operation.
INTERVAL_S = 0.2

_rng = np.random.default_rng(20230904)
_POINTS = [(float(x), float(y)) for x, y in _rng.random((128, 2))]
# a small and a large pair table, like the gate's and the nudge's
_SMALL = (_rng.random((300, 2)), _rng.random((300, 2)), _rng.random((40, 2)))
_LARGE = (_rng.random((700, 2)), _rng.random((700, 2)), _rng.random((60, 2)))


def _margins(P, Q, W) -> float:
    d = np.linalg.norm(Q - P, axis=1)
    dw = np.linalg.norm(W[None, :, :] - P[:, None, :], axis=2)
    return float(np.minimum(d[:, None], dw).min(axis=1).sum())


def reference() -> float:
    """Fixed work of about ``NOMINAL_S``; returns a checksum."""
    s = 0.0
    n = len(_POINTS)
    for i in range(n):
        x0, y0 = _POINTS[i]
        for j in range(i + 1, i + 9):
            x1, y1 = _POINTS[j % n]
            s += math.hypot(x1 - x0, y1 - y0) if x1 > x0 else 0.5 * (x0 - x1)
    for _ in range(2):
        s += _margins(*_SMALL)
    s += _margins(*_LARGE)
    # many small objects, built and serialised, as in the CLI's documents
    rows = [{"id": i, "xy": (i * 0.25, i * 0.5), "tag": "v%d" % i} for i in range(1100)]
    return s + len(json.dumps(rows))


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Sampler:
    """Times ``reference()`` every ``INTERVAL_S`` of wall time while an
    operation runs, from a ``SIGALRM`` handler, so an operation of seconds
    is scaled by the speed during it and not only at its two ends.
    ``start`` and ``stop`` bracket an operation, whose time leaves out the
    time spent in the handler; ticks outside a bracket do nothing.
    """

    def __init__(self):
        self._inside = False
        self._refs: List[float] = []
        self._spent = 0.0
        self._t0 = 0.0

    def _tick(self, signum, frame) -> None:
        if not self._inside:
            return
        self._inside = False  # no nested sample
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self._refs.append(t1 - t0)
        self._spent += time.perf_counter() - t0
        self._inside = True

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> None:
        """An operation begins."""
        self._refs, self._spent = [], 0.0
        self._inside = True
        self._t0 = time.perf_counter()

    def stop(self) -> Tuple[float, List[float]]:
        """The operation ended: its time without the time spent in the
        handler, and the reference times taken while it ran."""
        t1 = time.perf_counter()
        self._inside = False
        return t1 - self._t0 - self._spent, self._refs


def scale(before: float, inside: Sequence[float], after: float) -> float:
    """Scale factor of one execution: the mean of ``NOMINAL_S`` / t over
    the reference times just before it, inside it and just after it, i.e.
    the mean reference speed while it ran.  Only the closest samples track
    the drift; a wider window follows it worse."""
    refs = [before, *inside, after]
    return statistics.fmean(NOMINAL_S / t for t in refs)


def burst(count: int = 21) -> float:
    """Median reference time over ``count`` back-to-back calls."""
    return statistics.median(timed_reference() for _ in range(count))
