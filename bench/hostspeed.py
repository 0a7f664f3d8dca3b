"""Step timing that corrects for the shared host's speed of the moment.

On a shared host the same code runs at different speeds from one minute to
the next: neighbours load the cores and caches this process runs on, and a
slow spell can last longer than a whole run, so no choice among a run's own
repeats filters it out.  While the workload runs, ``Sampler`` times a small
fixed reference kernel every SAMPLE_INTERVAL_S from a SIGALRM handler, in
the same thread, so each sample sees the speed the workload sees at that
moment.  A step's time at reference speed is its measured seconds times
REFERENCE_S over the mean kernel time sampled during the step, widened by
SPEED_WINDOW_S on both sides so that a step of a few milliseconds still has
samples.

The kernel is benchmark code, not mingsim code, so no change to the
program moves it: a pure-Python integer loop, a small symmetric eigensolve
and a vectorised cosine over an L2-sized array, the kinds of work the
workloads do.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
SPEED_WINDOW_S = 0.25
# Constants, so that values from different runs and commits compare: the
# kernel's seconds in a quiet spell on the machine where the benchmark was
# written (2 vCPUs of an Intel Xeon, Python 3.11), sampled between workload
# steps, where the workload has left the caches cold, and run back to back
# (``speed_now``).  Corrected seconds then read close to measured ones there.
REFERENCE_S = 8.0e-4
WARM_REFERENCE_S = 5.0e-4

_LOOP = 2000
_MATRIX = np.random.default_rng(0).normal(size=(48, 48))
_MATRIX = _MATRIX @ _MATRIX.T
_ANGLES = np.linspace(0.0, 1.0, 1 << 15)
_COSINES = np.empty_like(_ANGLES)


def reference_seconds() -> float:
    """Seconds of one run of the reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    np.linalg.eigh(_MATRIX)
    np.cos(_ANGLES, out=_COSINES)
    return time.perf_counter() - start


class Sampler:
    """Samples the reference kernel while active; at most one at a time."""

    spent = 0.0  # seconds all samples took so far; steps leave them out

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.seconds.append(reference_seconds())
        self.times.append(start)
        Sampler.spent += time.perf_counter() - start

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference_speed(self, step) -> float:
        """A step's (start, end, seconds) as seconds at reference speed."""
        start, end, seconds = step
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        return seconds * REFERENCE_S / statistics.fmean(self.seconds[lo:hi])


def speed_now(runs: int = 20) -> float:
    """Median seconds of the kernel run back to back, outside any workload."""
    reference_seconds()
    return statistics.median(reference_seconds() for _ in range(runs))


def timed(steps: dict, name: str, fn, *args, **kwargs):
    """Call fn and record steps[name] = (start, end, seconds without samples)."""
    spent = Sampler.spent
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    end = time.perf_counter()
    steps[name] = (start, end, end - start - (Sampler.spent - spent))
    return out
