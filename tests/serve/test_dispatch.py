"""Router dispatch rule: least-loaded live incarnation, never one already tried.

Runs the router over a stub pool whose ``workers()`` returns live slots
and whose ``dispatch()`` records each call, so no process starts and the
supervisor tick is driven by hand.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import Router
from repro.serve.cluster import checksum
from repro.serve.router import BACKOFF_CAP_S

SERIES = np.zeros((16, 2))


class StubPool:
    """Live worker slots that record dispatches; starts no process."""

    def __init__(self, n_workers: int = 2) -> None:
        self.generations = dict.fromkeys(range(n_workers), 0)
        self.sent: list[tuple[int, int]] = []  #: (worker_id, req_id) per dispatch
        self.listener = None

    def start(self) -> "StubPool":
        return self

    def workers(self):
        return [(worker_id, generation, True, True)
                for worker_id, generation in self.generations.items()]

    def alive_count(self) -> int:
        return len(self.generations)

    def dispatch(self, worker_id, req_id, endpoint, payload):
        self.sent.append((worker_id, req_id))
        return (worker_id, self.generations[worker_id])

    def sent_to(self) -> list[int]:
        return [worker_id for worker_id, _ in self.sent]

    def reply(self, router: Router, worker_id: int, req_id: int) -> np.ndarray:
        payload = np.full((1, 3), float(req_id))
        key = (worker_id, self.generations[worker_id])
        router.on_result(key, req_id, "ok", payload, checksum(payload))
        return payload


@pytest.fixture
def stub():
    pool = StubPool()
    router = Router(pool, attempt_timeout_s=1.0)
    yield pool, router
    router.close()


@pytest.mark.parametrize("backoff_base_s", [-1.0, BACKOFF_CAP_S + 0.1])
def test_router_rejects_a_backoff_base_outside_zero_to_the_cap(backoff_base_s):
    pool = StubPool()
    with pytest.raises(ConfigError, match="backoff_base_s"):
        Router(pool, backoff_base_s=backoff_base_s)
    assert pool.listener is None  # rejected before attaching to the pool


def test_idle_workers_take_turns(stub):
    pool, router = stub
    for _ in range(4):
        router.submit("classify", SERIES)
    assert pool.sent_to() == [0, 1, 0, 1]


def test_a_reply_frees_its_worker_for_the_next_submit(stub):
    pool, router = stub
    futures = [router.submit("classify", SERIES) for _ in range(4)]
    assert pool.sent == [(0, 1), (1, 2), (0, 3), (1, 4)]  # (worker_id, req_id)
    payload = pool.reply(router, 0, 1)
    assert np.array_equal(futures[0].result(timeout=1.0), payload)
    router.submit("classify", SERIES)
    assert pool.sent_to()[-1] == 0
    pool.reply(router, 1, 2)
    router.submit("classify", SERIES)
    assert pool.sent_to()[-1] == 1


def test_a_tried_incarnation_is_never_chosen_again(stub):
    pool, router = stub
    router.submit("classify", SERIES)
    assert pool.sent == [(0, 1)]

    # The attempt times out.  Both workers are idle and the tie would go
    # to worker 0, but the request already tried incarnation (0, 0).
    router.tick(time.monotonic() + 2.0)
    router.tick(time.monotonic() + 10.0)
    assert pool.sent == [(0, 1), (1, 1)]

    # The second attempt times out too: every live incarnation has been
    # tried, so the request waits instead of being sent again...
    router.tick(time.monotonic() + 20.0)
    router.tick(time.monotonic() + 30.0)
    assert len(pool.sent) == 2
    assert router.inflight() == 1

    # ... until worker 0 comes back as a new incarnation.
    pool.generations[0] = 1
    router.tick(time.monotonic() + 40.0)
    assert pool.sent == [(0, 1), (1, 1), (0, 1)]
