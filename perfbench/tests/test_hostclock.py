"""The host clock's sampling and arithmetic."""

import signal
import time

import pytest

import hostclock


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_lap_excludes_sampling_and_measures_speed():
    clock = hostclock.HostClock()
    clock.start()
    try:
        started = time.perf_counter()
        _busy(0.3)
        lap = clock.lap()
        elapsed = time.perf_counter() - started
    finally:
        clock.stop()
    # At least the timer's samples and the lap's own one ran.
    assert lap.sampling_s > 0
    assert lap.wall_s + lap.sampling_s == pytest.approx(elapsed, abs=0.01)
    assert lap.speed > 0
    assert lap.ref_s() == pytest.approx(lap.wall_s * lap.speed)


def test_each_lap_covers_only_its_own_phase():
    clock = hostclock.HostClock()
    clock.start()
    try:
        _busy(0.2)
        first = clock.lap()
        second = clock.lap()
    finally:
        clock.stop()
    assert first.wall_s > 0.15
    assert second.wall_s < 0.05


def test_stop_leaves_no_timer_or_handler():
    clock = hostclock.HostClock()
    clock.start()
    clock.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_reference_seconds_scale_with_speed():
    lap = hostclock.Lap(wall_s=2.0, sampling_s=0.1, speed=1.5)
    assert lap.ref_s() == 3.0
    assert lap.ref_s(4.0) == 6.0
