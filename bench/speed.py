"""Host-speed sampling: times expressed at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a factor of two or
more within seconds (busy neighbours on the same cores), and the drift moves
CPU time as much as wall time.  So while a measured interval runs, a timer
signal runs a small fixed pure-Python kernel every INTERVAL_S seconds and
times it.  `REFERENCE_S / kernel_seconds` is the host's speed at that moment
relative to the reference.  An interval's reference seconds are its measured
seconds, minus the time spent sampling, times the mean speed over its
samples: the time the same work takes on a host running at reference speed.

The kernel does not touch the package, so a change to the package moves
reference seconds exactly as it moves measured seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.04
# The kernel's time at the reference speed: about its fastest on a 2-core
# Xeon (Sapphire Rapids class) KVM guest with Python 3.11.
REFERENCE_S = 0.0004

_TERMS = [Fraction(i * 7 % 13 - 6, 1 + i % 5) for i in range(16)]


def kernel() -> None:
    """Fraction and dict arithmetic, like the package's exact layers."""
    acc = Fraction(0)
    for a in _TERMS:
        for b in _TERMS[:8]:
            acc += a * b
    table: dict[int, int] = {}
    for i in range(400):
        table[i % 31] = table.get(i % 31, 0) + i * i


class SpeedSampler:
    """Samples the host's speed on SIGALRM while started.

    `mark()` takes a sample at once and returns a mark; `elapsed(a, b)` gives
    the measured and the reference seconds between two marks.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []  # kernel seconds, in time order
        self.overhead = 0.0  # seconds spent sampling
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.overhead += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        self.sample()
        return time.perf_counter(), self.overhead, len(self.samples) - 1

    def elapsed(self, a: tuple[float, float, int], b: tuple[float, float, int]) -> tuple[float, float]:
        """(measured seconds without sampling, reference seconds) from a to b."""
        seconds = (b[0] - a[0]) - (b[1] - a[1])
        speed = statistics.fmean(REFERENCE_S / k for k in self.samples[a[2]:b[2] + 1])
        return seconds, seconds * speed
