"""Host speed sampling, so that timings survive a host whose speed drifts.

On a shared VM the same code runs at different speeds from one minute to
the next: a neighbour loads the physical core, and CPU time grows with wall
time (the process is not waiting, it is executing more slowly).  A
``Speedometer`` samples that speed while the timed code runs.  Every
``period`` seconds of process CPU time a ``SIGPROF`` handler runs
``probe()``, a fixed pure-Python loop that never touches the solver, and
records how long it took.  The time spent in the handler is kept apart, so
that callers can subtract it from what they time.

``normalize(seconds, samples)`` turns a measured time into seconds at the
reference speed: ``seconds × REFERENCE_PROBE_S / mean(samples)``.  The probe
does the same kind of work as the solver (rational arithmetic, dictionary
and attribute access, small objects), so its slowdown tracks the solver's.
Because it is fixed code, a change to the solver moves the normalized time
and leaves the probe alone.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

__all__ = ["REFERENCE_PROBE_S", "Speedometer", "normalize", "probe", "sample"]

#: Duration of one ``probe()`` at the undisturbed speed of the recording
#: host (2-vCPU Intel Xeon VM, Python 3.11).  Normalized times therefore
#: read as seconds on that host; on any host they compare like for like.
REFERENCE_PROBE_S = 4.0e-4

#: CPU seconds between two probes: the probes cost 2–3% of the timed work.
PERIOD_S = 0.02

#: Probes per ``sample()``: about 10 ms at the reference speed.
SAMPLE_PROBES = 25

_LOOPS = 60


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def probe() -> int:
    """A fixed workload shaped like the solver's inner loops.

    It runs with the collector off, and everything it allocates is freed
    before it returns, so it neither pays for nor shifts the collections of
    the code it interrupts.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = Fraction(0)
        counts = {}
        points = []
        for i in range(_LOOPS):
            ratio = Fraction(i + 1, i % 7 + 2)
            total += ratio * ratio - Fraction(1, i % 5 + 1)
            key = (i * 31) % 61
            counts[key] = counts.get(key, 0) + 1
            points.append(_Point(i, key))
        points.sort(key=lambda p: (p.y, p.x))
        return total.denominator + len(counts) + points[0].x
    finally:
        if enabled:
            gc.enable()


def sample() -> List[float]:
    """``SAMPLE_PROBES`` probe durations taken back to back."""
    durations = []
    for _ in range(SAMPLE_PROBES):
        started = time.perf_counter()
        probe()
        durations.append(time.perf_counter() - started)
    return durations


def normalize(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` measured while ``samples`` were taken, at reference speed."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(samples)


class Speedometer:
    """Probe the host's speed every ``period`` CPU seconds while active.

    ``samples`` holds every probe duration and ``spent`` their sum, so that
    a caller can read both before and after the code it times.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        duration = time.perf_counter() - started
        self.samples.append(duration)
        self.spent += duration

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
