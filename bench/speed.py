"""Processor-speed sampling, for timing on a shared machine.

On a shared machine the processor can run at half speed for seconds at a
time while a neighbour is busy.  Identical work then takes anywhere from
one to two times as long, and the mean of a run moves by tens of percent.

While a ``Speedometer`` is active, a SIGALRM interval timer runs a short
fixed probe every ``INTERVAL_S`` seconds of wall time: small numpy
expressions and scalar ``math`` steps driven from Python, like rtgle's hot
loops.  The probe's duration tracks the speed the process is getting.  ``reference_seconds`` turns a
measured wall interval into the time the same work would take at the
speed where the probe takes ``REFERENCE_PROBE_S``.  It uses the mean of
the sampled speeds inside the interval, with the probes' own time
removed.  That constant is about the probe's uncontended time on the
machine the first baseline was recorded on.  It only fixes the unit, so it must stay
the same between the commits being compared.

The probe's code is independent of rtgle, so a change to the library
cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 5.0e-4
_PROBE_ITERATIONS = 25


class Speedometer:
    """Samples (start, duration) of the probe while active."""

    def __init__(self):
        self._x = np.linspace(0.05, 5.0, 100)
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def probe(self) -> None:
        x = self._x
        start = perf_counter()
        total = 0.0
        for i in range(_PROBE_ITERATIONS):
            z = np.power((1.0 + i * 1e-4) * x + 0.25 * x * x, 1.3)
            total += float(np.sum(np.log1p(0.5 * z) - z))
            c = 1.0 + i * 1e-3
            for _ in range(30):
                c = max(c - 1e-9 * (math.log1p(0.3 * c) - c), 0.0)
            total += c
        self.samples.append((start, perf_counter() - start))

    def _on_alarm(self, signum, frame):
        self.probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start, end):
        inside = [(s, d) for s, d in self.samples if start <= s and s + d <= end]
        if inside:
            return inside, sum(d for _, d in inside)
        # an interval shorter than the sampling interval: use the nearest
        # probe on each side
        before = [(s, d) for s, d in self.samples if s + d <= start][-1:]
        after = [(s, d) for s, d in self.samples if s >= end][:1]
        if not before + after:
            raise RuntimeError("no speed samples were taken")
        return before + after, 0.0

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed over [start, end], relative to the reference."""
        samples, _ = self._window(start, end)
        return statistics.fmean(REFERENCE_PROBE_S / d for _, d in samples)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the work in [start, end] would take at reference speed."""
        samples, probing = self._window(start, end)
        speed = statistics.fmean(REFERENCE_PROBE_S / d for _, d in samples)
        return (end - start - probing) * speed
