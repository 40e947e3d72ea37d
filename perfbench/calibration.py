"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's shared 2-core host slows down and speeds up by 10-25% over
tens of seconds, with process CPU time tracking wall time (the process is not
descheduled; it runs slower).  No run length averages that out.  The kernel
has four parts, one per kind of work spanopt does: ``loop``, an interpreted
loop over small numpy rows (as in the Jacobi eigensolver); ``blas``, products
on a cache-resident (1000, 300) block; ``gather``, row gathers and products
from a matrix larger than a core's L2 (as in batch gradients over a large
dataset); ``text``, text-to-number parsing (as in the libsvm loader).

It is sampled on a timer every INTERVAL_S.  Every timed interval, less the
kernel time inside it, is scaled by ``reference_s / median(t)``, where ``t``
is the time of the parts a workload uses, over the samples within WINDOW_S
of the interval: seconds on a host where each part takes REFERENCE_PART_S.
The kernel never touches spanopt, so a change to the program cannot move the
scale.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PARTS = ("loop", "blas", "gather", "text")
# About the median time of one part on the 2-core reference host (Xeon,
# 2.0 GHz, one BLAS thread); only a unit choice, it cancels out of every
# before/after ratio.
REFERENCE_PART_S = 0.0075
INTERVAL_S = 0.4
WINDOW_S = 1.0

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((16, 16))
_BLOCK = _RNG.standard_normal((1000, 300))
_VECTORS = _RNG.standard_normal((300, 16))
# Larger than a core's L2, so gathering from it feels the shared L3 and
# memory bandwidth, as batch gradients over a big dataset do.
_ROWS = _RNG.standard_normal((6000, 300))
_BATCH = np.sort(_RNG.choice(6000, size=1000, replace=False))
_TEXT = " ".join(f"{j}:{k / 8.0!r}" for j, k in enumerate(_RNG.integers(1, 17, 4500).tolist(), start=1))


def kernel() -> list:
    """About 30 ms on the reference host, a quarter in each kind of work.

    Returns the seconds each part took, so a run's details show which kind
    of work the host slowed.
    """
    stamps = [time.perf_counter()]
    m = _SMALL.copy()
    for _ in range(70):
        for p in range(15):
            col = m[:, p].copy()
            m[:, p] = 0.8 * col - 0.6 * m[:, p + 1]
            m[:, p + 1] = 0.6 * col + 0.8 * m[:, p + 1]
    stamps.append(time.perf_counter())
    for _ in range(8):
        _BLOCK.T @ (_BLOCK @ _VECTORS)
    stamps.append(time.perf_counter())
    for _ in range(12):
        rows = _ROWS[_BATCH]
        rows.T @ (rows @ _VECTORS[:, 0])
    stamps.append(time.perf_counter())
    acc = 0.0
    for token in _TEXT.split():
        index, _, value = token.partition(":")
        acc += int(index) * float(value)
    stamps.append(time.perf_counter())
    return [b - a for a, b in zip(stamps, stamps[1:])]


class Calibration:
    """Kernel samples taken on a timer through a run, and the time scale they give.

    While ``sampling()`` is active, SIGALRM runs the kernel every INTERVAL_S,
    between two bytecodes of whatever the main thread is doing, so samples
    land inside long solves as well as between them.  ``busy(start, end)``
    is the kernel time spent inside an interval; timed intervals subtract it.
    """

    def __init__(self, parts=PARTS):
        self.used = [PARTS.index(name) for name in parts]
        self.reference_s = REFERENCE_PART_S * len(self.used)
        self.samples: list[float] = []  # whole kernel, for busy()
        self.scored: list[float] = []  # the parts used, for the scale
        self.stamps: list[float] = []
        self.parts: list[list] = []
        self._in_sample = False

    def sample(self, *_signal_args) -> None:
        if self._in_sample:
            return
        self._in_sample = True
        start = time.perf_counter()
        parts = kernel()
        self.samples.append(time.perf_counter() - start)
        self.stamps.append(start)
        self.parts.append(parts)
        self.scored.append(math.fsum(parts[i] for i in self.used))
        self._in_sample = False

    @contextmanager
    def sampling(self):
        kernel()  # the first call pays for page faults and BLAS start-up
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def busy(self, start: float, end: float) -> float:
        """Kernel seconds inside [start, end]; a sample lies wholly in or out of it."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        return math.fsum(self.samples[lo:hi])

    @property
    def scale(self) -> float:
        """The whole run's scale, for the summary line."""
        return self.reference_s / statistics.median(self.scored)

    def scale_at(self, start: float, end: float) -> float:
        """Scale for an interval: from the samples within WINDOW_S of it."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return self.reference_s / statistics.median(self.scored[lo:hi] or self.scored)
