"""Machine-speed sampling, to take host speed changes out of step timings.

Shared virtual hosts switch between speed states (measured on 2-vCPU
guests of 2 GHz Xeons: a fixed loop takes 1.0x or about 1.6x as long, in
stretches of a second to minutes), so raw wall times of identical work
spread 15-50% between runs.  While a ``SpeedSampler`` is running, a SIGALRM timer runs a
fixed probe every ``INTERVAL`` seconds in the main thread, between the
program's bytecodes, and records how long the probe took.

``SpeedSampler.normalise`` turns a step's wall time into seconds at the
reference speed: the wall time minus the probes run inside it, times the
mean of ``REFERENCE_PROBE_S / probe time`` over the probes run inside it
(the share of reference-speed work done per second).  Steps too short to
contain ``MIN_PROBES`` probes use the probes nearest in time.
"""
from __future__ import annotations

import bisect
import signal
import time
from contextlib import nullcontext

import numpy as np
from scipy.special import logsumexp

INTERVAL = 0.05
#: Probe time at the speed all normalised timings are expressed in, about
#: the probe's idle time on a 2 GHz Xeon vCPU.  A constant, so that two
#: commits measured on one machine compare directly.
REFERENCE_PROBE_S = 0.00094
MIN_PROBES = 5
PROBE_SPAN = "speed.probe"
_RNG = np.random.default_rng(0)
_VECTOR = np.linspace(0.0, 1.0, 64)
_TABLE = _RNG.random((6480, 4))
_ROWS = _RNG.integers(0, 6480, size=100)
_MATRIX = _RNG.random((4, 4))
_COUNTS = _RNG.integers(0, 50, size=(6480, 8))


def probe() -> None:
    """Fixed work in the mix the package does: interpreted Python
    arithmetic, and small NumPy and SciPy calls of the kind the scorers and
    the Gibbs sampler make per document or token."""
    s = 0
    for i in range(500):
        s += i * i
    for _ in range(10):
        np.exp(_VECTOR).sum()
    for _ in range(3):
        emission = _TABLE[_ROWS].sum(axis=0)
        logsumexp(emission + _VECTOR[:4])
        belief = _MATRIX @ _VECTOR[:4]
        belief / belief.sum()
    for x in _ROWS[:20]:
        weights = (_COUNTS[x] + 0.05) / (_COUNTS[0] + 324.0) * (_COUNTS[1] + 8.0)
        cumulative = np.cumsum(weights)
        int(np.searchsorted(cumulative, 0.5 * cumulative[-1], side="right"))


class SpeedSampler:
    """``span``, when given, is a context-manager factory each probe runs
    under (a tracer's), so that probe time is not charged to the code it
    interrupted."""

    def __init__(self, span=None):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._span = span or (lambda name: nullcontext())

    def _tick(self, signum, frame):
        with self._span(PROBE_SPAN):
            start = time.perf_counter()
            probe()
            self.starts.append(start)
            self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> tuple[int, int, float]:
        """Probe index range to average over, and the probe time inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        probed = sum(self.durations[lo:hi])
        if hi - lo < MIN_PROBES:
            # Widen symmetrically to the nearest probes outside the interval.
            missing = MIN_PROBES - (hi - lo)
            lo, hi = max(lo - (missing + 1) // 2, 0), min(hi + missing // 2 + 1, len(self.starts))
            lo = max(min(lo, hi - MIN_PROBES), 0)
        if hi <= lo:
            raise RuntimeError("no speed probes recorded")
        return lo, hi, probed

    def speed(self, start: float, end: float) -> float:
        """Reference-speed seconds per second of unprobed time in [start, end]."""
        lo, hi, _ = self._window(start, end)
        return float(np.mean([REFERENCE_PROBE_S / d for d in self.durations[lo:hi]]))

    def normalise(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the interval [start, end]."""
        _, _, probed = self._window(start, end)
        return (end - start - probed) * self.speed(start, end)
