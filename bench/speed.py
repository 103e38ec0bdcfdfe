"""Machine-speed probe, for timing work on a shared machine.

On a machine shared with other tenants the same work can take up to 1.8x
longer for stretches of tens of seconds, which no affordable run length
averages out. The probe times a fixed mix of small eigh calls, small matrix
products and interpreter loops (about 2 ms) just before and after each timed
call and every ``PERIOD_S`` during it, from a timer signal. Python runs a
signal handler between bytecodes of the main thread, never inside numpy, so
the program's state is untouched; the probe's own time is taken out of the
call's time. Each stretch of work is scaled by REFERENCE_PROBE_S over the
probe time around it: the result is the time the work would take at the
reference speed, which tracks the program and not the machine's load.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
# The probe's duration on an unloaded 2.1 GHz Xeon core (numpy 2.4.6,
# OpenBLAS 0.3.31, one thread); it only sets the scale of normalized times.
REFERENCE_PROBE_S = 0.00165


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20170512)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self._h = g + g.conj().T
        self._small = rng.normal(size=(4, 4)) / 8.0
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _work(self) -> None:
        for _ in range(20):
            np.linalg.eigh(self._h)
        b = self._small
        for _ in range(200):
            b = b @ self._small + self._small
        acc = 0
        for i in range(5000):
            acc += i * i

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._work()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def measure(self, fn):
        """Run ``fn()``; return (result, work seconds, normalized seconds)."""
        signal.signal(signal.SIGALRM, self._on_timer)
        first = len(self.samples)
        self.sample()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
        self.sample()
        probes = self.samples[first:]
        # work runs between consecutive probes: from t0 to the first timer
        # probe, between timer probes, and from the last one to t1
        starts = [t0] + [s + d for s, d in probes[1:-1]]
        ends = [s for s, _ in probes[1:-1]] + [t1]
        seconds = units = 0.0
        for k, (a, b) in enumerate(zip(starts, ends)):
            seconds += b - a
            units += (b - a) / (0.5 * (probes[k][1] + probes[k + 1][1]))
        return result, seconds, units * REFERENCE_PROBE_S
