"""Wall time scaled to a reference host speed.

The benchmark runs on a few vCPUs of a shared host.  The same code runs
up to ~1.8x slower for stretches of seconds to minutes while neighbours
load the machine, and the kernel reports no steal time, so the thread's
CPU time slows down with its wall time.  Averaging over a run does not
help when a slow stretch outlasts the run.

``HostClock`` therefore measures the host's speed while the program
runs: a wall-clock timer interrupts the main thread every ``PERIOD_S``
and times a fixed reference kernel (a pure-Python loop plus small numpy
matrix-vector steps, the same mix of interpreter and tiny-array work as
the program).  A timed region reports

* ``raw_s``: its wall time less the time spent in the kernel, and
* ``scaled_s``: ``raw_s`` times the mean speed of the kernel samples
  around the region (``1 / duration``) times ``REFERENCE_S``,

that is the seconds the region would take on a host that runs the kernel
in ``REFERENCE_S``.  The kernel is benchmark code, so a change to the
program moves ``scaled_s`` and never the yardstick.  Over 60 s of
repeated ~0.8 s training runs the interquartile spread of ``raw_s`` was
0.21-0.34 of its median and that of ``scaled_s`` 0.05-0.06.

Only the main thread runs the kernel, and only while the clock is
entered; nothing else may use ``SIGALRM`` meanwhile.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Interval between kernel samples; the kernel takes ~2% of it.
PERIOD_S = 0.025
#: The kernel's typical duration on the 2-vCPU host the bounds were set
#: on, so scaled seconds read close to that host's wall seconds.
REFERENCE_S = 4.0e-4
#: Samples a region is scaled by at least, centred on the region, so a
#: region shorter than a few periods still gets a steady reading.
MIN_SAMPLES = 8

_rng = np.random.default_rng(0x5EED)
_MATRIX = _rng.standard_normal((16, 16)) / 4.0
_VECTOR = _rng.standard_normal(16)


def reference_kernel() -> float:
    total = 0
    for i in range(3000):
        total += i * i
    v = _VECTOR
    for _ in range(60):
        v = np.tanh(_MATRIX @ v + 0.1)
    return total + float(v[0])


@dataclass
class Region:
    raw_s: float = 0.0
    #: Kernel samples taken before the region began and before it ended.
    first: int = 0
    last: int = 0


class HostClock:
    """Samples host speed on a timer; times regions in reference seconds."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.kernel_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.speeds.append(1.0 / took)
        self.kernel_s += took

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.speeds) < MIN_SAMPLES:  # a run shorter than the window
            for _ in range(MIN_SAMPLES - len(self.speeds)):
                self._sample(signal.SIGALRM, None)

    @contextlib.contextmanager
    def region(self):
        """Time the ``with`` body; read it with ``scaled`` after the clock exits."""
        region = Region(first=len(self.speeds))
        kernel_s = self.kernel_s
        start = time.perf_counter()
        try:
            yield region
        finally:
            wall = time.perf_counter() - start
            region.raw_s = wall - (self.kernel_s - kernel_s)
            region.last = len(self.speeds)

    def speed(self, region: Region) -> float:
        """Mean kernel speed around the region, relative to the reference host."""
        lo, hi = region.first, region.last
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(self.speeds), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return statistics.fmean(self.speeds[lo:hi]) * REFERENCE_S

    def scaled(self, region: Region) -> float:
        return region.raw_s * self.speed(region)
