"""Host-speed sampler: probe time is left out of measured times, and scaled
times follow the probes around them.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostspeed  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_time_is_left_out_and_scaled_time_uses_surrounding_probes():
    sampler = hostspeed.Sampler()
    with sampler:
        sampler.sample()
        a = sampler.mark()
        busy(0.2)
        b = sampler.mark()
        sampler.sample()
    inside = b.probes - a.probes
    assert inside >= 5  # the 10 ms timer ran probes during the busy loop
    assert b.probe_s - a.probe_s > 0
    assert abs(sampler.raw(a, b) - (b.wall - a.wall - (b.probe_s - a.probe_s))) < 1e-12
    around = sampler.durations[a.probes - 1:b.probes + 1]
    assert len(around) == inside + 2
    expected = sampler.raw(a, b) * sum(hostspeed.REFERENCE_PROBE_S / d for d in around) / len(around)
    assert abs(sampler.scaled(a, b) - expected) < 1e-12
    assert all(d > 0 for d in sampler.durations)


def test_timer_is_off_after_stop():
    sampler = hostspeed.Sampler()
    with sampler:
        busy(0.05)
    taken = len(sampler.durations)
    busy(0.05)
    assert len(sampler.durations) == taken


def test_wall_clock_reports_wall_seconds():
    clock = hostspeed.WallClock()
    clock.sample()
    a = clock.mark()
    busy(0.02)
    b = clock.mark()
    assert clock.scaled(a, b) == clock.raw(a, b) >= 0.02
