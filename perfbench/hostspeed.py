"""Host-speed normalisation of measured times.

The benchmark runs on virtual CPUs that share their host, and the speed of
the same pure-Python loop swings by about 1.5 to 1.8x in phases that last
from a fraction of a second to minutes.  Medians over a run absorb the short
phases but not the long ones, so raw times of the same code differ between
runs by more than a regression bound.

A Sampler runs a fixed stdlib loop, the probe, between documents and, from a
SIGALRM handler, every INTERVAL_S seconds inside them, in the benchmark's own
thread, and keeps each probe's duration.  The time between two marks is then
reported in reference seconds: its wall time, less the time the probes took
inside it, times the mean of REFERENCE_PROBE_S / duration over the probes
taken inside it and the two taken right before and right after it.  On a
host whose probe always takes REFERENCE_PROBE_S, a reference second is a
wall second; a program that does less work shows a proportionally smaller
time on any host.  The probe does not touch gradedpi.
"""

from __future__ import annotations

import signal
import time
from array import array
from fractions import Fraction
from typing import NamedTuple

INTERVAL_S = 0.01
# Probe duration on the reference host: about the median speed of a 2-vCPU
# virtual machine running CPython 3.11.7.
REFERENCE_PROBE_S = 0.0004


class _Gaussian:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def times(self, other):
        return _Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)


def probe() -> int:
    """A fixed mix of the work gradedpi does: integer arithmetic, Fractions
    with tuple-keyed dicts, and small objects built by method calls.  Each of
    the three kinds alone follows the host's speed less closely than the mix
    does."""
    s = 0
    for i in range(1600):
        s += i * i % 7
    d, x = {}, Fraction(0)
    for i in range(32):
        k = (i & 63, i % 7)
        x += Fraction(i & 15, (i & 7) + 1)
        d[k] = d.get(k, 0) + 1
    z, w = _Gaussian(1, 0), _Gaussian(0, 1)
    for _ in range(250):
        z = z.times(w)
    return s + len(d) + z.re


def probe_seconds(samples: int) -> list[float]:
    """Durations of `samples` probes run back to back."""
    perf = time.perf_counter
    out = []
    for _ in range(samples):
        t0 = perf()
        probe()
        out.append(perf() - t0)
    return out


def speed_factor(durations) -> float:
    """Reference seconds per wall second: the mean of REFERENCE_PROBE_S / d."""
    return sum(REFERENCE_PROBE_S / d for d in durations) / len(durations)


class Mark(NamedTuple):
    wall: float  # perf_counter
    probe_s: float  # time spent in probes so far
    probes: int  # probes taken so far


class Sampler:
    def __init__(self):
        self.durations = array("d")
        self.spent = 0.0
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        """Runs one probe.  Its duration leaves out any probe the timer ran
        inside it."""
        a = self.mark()
        probe()
        d = self.raw(a, self.mark())
        self.durations.append(d)
        self.spent += d

    def start(self) -> None:
        """Starts the timer; one probe runs at once."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def mark(self) -> Mark:
        # A probe can run between any two bytecodes; read again if one ran
        # while the three fields were read, so that they agree.
        while True:
            n, spent, wall = len(self.durations), self.spent, time.perf_counter()
            if len(self.durations) == n:
                return Mark(wall, spent, n)

    def raw(self, a: Mark, b: Mark) -> float:
        """Wall seconds between the marks, less the probes' own time."""
        return (b.wall - a.wall) - (b.probe_s - a.probe_s)

    def scaled(self, a: Mark, b: Mark) -> float:
        """Reference seconds between the marks; a probe must have run right
        before `a` and right after `b`."""
        return self.raw(a, b) * speed_factor(self.durations[a.probes - 1:b.probes + 1])


class WallClock:
    """A Sampler's marks without probes, for traced passes: reference seconds
    are wall seconds."""

    def sample(self) -> None:
        pass

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), 0.0, 0)

    raw = Sampler.raw

    def scaled(self, a: Mark, b: Mark) -> float:
        return self.raw(a, b)
