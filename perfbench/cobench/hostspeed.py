"""Host-speed adjustment of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop takes 20–50 % longer for tens of seconds at a
time while other tenants are busy, and every time the benchmark measures
drifts with it.  So next to every timing the benchmark runs a short
fixed probe — :func:`unit`: heap operations, integer arithmetic and small
NumPy dot products, none of it ``repro`` code — and reports the time as
it would read at the probe speed of the reference host::

    adjusted = raw * REF_UNIT_S / probe

In the closed loops :class:`Timed` runs the probe on the caller's own
thread right before and right after the timed call, and every
:data:`SAMPLE_EVERY_S` during it from a ``SIGALRM`` handler (between two
bytecodes of the program, on the same thread and CPU); the time those
probes take is taken out of the measured time.  In ``service-open`` the
probe runs only while no request is in flight (see ``service.py``).  A
change that makes the program itself slower therefore moves the adjusted
time as much as the raw one; only the host's speed is divided out.  Raw
times are kept in every result document.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Median seconds of one :func:`unit` on the reference host (2 vCPUs of an
#: Intel Xeon, Python 3.11, NumPy 2.4) in a calm phase.
REF_UNIT_S = 3.4e-4
#: Interval of the probes taken during a timed call (1.4 % of its time).
SAMPLE_EVERY_S = 0.025

_rng = np.random.default_rng(7)
_VECS = [_rng.random(16) for _ in range(8)]
_KEYS = [(i * 7919) % 1009 for i in range(800)]


def unit() -> int:
    """The probe: a fixed third of a millisecond of interpreter, heap and
    NumPy work.  It allocates no object the garbage collector tracks
    (but one list) and runs with the collector off, so a probe taken in
    the middle of a call never runs a collection the program's own
    allocations have made due."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap = _KEYS[:]
        heapq.heapify(heap)
        s = 0
        while heap:
            s += heapq.heappop(heap)
        for i in range(800):
            s += i * i % 7
        for i in range(64):
            s += int(_VECS[i & 7] @ _VECS[(i * 3) & 7])
        return s
    finally:
        if enabled:
            gc.enable()


def probe(units: int = 5) -> float:
    """Median seconds of ``units`` probe units run back to back."""
    took = []
    for _ in range(units):
        t = time.perf_counter()
        unit()
        took.append(time.perf_counter() - t)
    return statistics.median(took)


class Around:
    """Probes before and after an untimed-by-us span of work (a child
    process); ``factor`` uses both."""

    def __init__(self, units: int = 5):
        self.units = units
        self.probes: List[float] = []

    def __enter__(self) -> "Around":
        self.probes.append(probe(self.units))
        return self

    def __exit__(self, *exc) -> None:
        self.probes.append(probe(self.units))

    @property
    def factor(self) -> float:
        return REF_UNIT_S / trimmed_mean(self.probes)


class Timed:
    """Times the body of a ``with`` block on the main thread, with probes
    before, during and after it.

    ``seconds`` is the body's wall time less the probes taken during it;
    ``inside`` is the time those probes took (the program's own clocks
    around the body count it too); ``factor`` is :data:`REF_UNIT_S` over
    the (trimmed) mean probe time, so the probes weigh the body's time
    evenly.
    """

    def __init__(self, units: int = 5):
        self.units = units
        self.probes: List[float] = []
        self.inside = 0.0
        self.seconds = 0.0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        unit()
        took = time.perf_counter() - t
        self.probes.append(took)
        self.inside += took

    def __enter__(self) -> "Timed":
        self.probes.append(probe(self.units))
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.seconds = wall - self.inside
        self.probes.append(probe(self.units))

    @property
    def factor(self) -> float:
        return REF_UNIT_S / trimmed_mean(self.probes)


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of ``values``: a
    probe the host preempted must not weigh like ten."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])
