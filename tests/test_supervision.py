"""repro.supervision: the shared heartbeat thread and backoff rule, no processes."""

from __future__ import annotations

import threading
import time

import pytest

from repro.supervision import BEATS_PER_TIMEOUT, backoff, heartbeat


def beater_alive(name: str) -> bool:
    return any(thread.name == name for thread in threading.enumerate())


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def wait_for_exit(name: str) -> bool:
    return wait_until(lambda: not beater_alive(name))


def test_beats_per_timeout_over_a_fixed_window():
    timeout_s, window_s = 2.0, 1.0
    expected = window_s / (timeout_s / BEATS_PER_TIMEOUT)  # 10 beats
    beats = []
    with heartbeat(timeout_s, lambda: beats.append(time.monotonic()), "hb-count"):
        time.sleep(window_s)
    assert expected // 2 <= len(beats) <= expected + 1


def test_thread_ends_when_beat_returns_false():
    calls = []

    def beat():
        calls.append(1)
        return len(calls) < 3

    with heartbeat(0.2, beat, "hb-false"):
        assert wait_for_exit("hb-false")
        assert len(calls) == 3


def test_thread_ends_when_beat_raises_oserror():
    calls = []

    def beat():
        calls.append(1)
        raise BrokenPipeError("watcher gone")

    with heartbeat(0.2, beat, "hb-oserror"):
        assert wait_for_exit("hb-oserror")
        assert len(calls) == 1


def test_thread_ends_when_the_event_is_set():
    calls = []
    with heartbeat(0.2, lambda: calls.append(1), "hb-event") as stop:
        assert wait_until(lambda: calls)
        stop.set()
        assert wait_for_exit("hb-event")
        silenced_at = len(calls)
        time.sleep(0.05)  # five beat intervals
        assert len(calls) == silenced_at


def test_thread_ends_when_the_block_exits():
    with heartbeat(0.2, lambda: None, "hb-exit"):
        assert beater_alive("hb-exit")
    assert not beater_alive("hb-exit")


@pytest.mark.parametrize(
    "base_s, cap_s",
    [(0.02, 0.5), (0.05, 2.0)],  # the Router's and the Supervisor's defaults
)
def test_backoff_equals_both_old_formulas(base_s, cap_s):
    for attempt in range(1, 9):
        router = min(base_s * (2 ** max(0, attempt - 1)), cap_s)
        supervisor = min(base_s * 2 ** (attempt - 1), cap_s)
        assert backoff(attempt, base_s, cap_s) == router == supervisor
