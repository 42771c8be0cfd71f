"""The two timing rules every supervisor in the package shares.

Four supervisors watch work they cannot see into: the serving
:class:`~repro.serve.cluster.WorkerPool`, the
:class:`~repro.serve.router.Router`'s retries, the training
:class:`~repro.train.supervisor.Supervisor` and the experiment-grid
worker.  Each watcher takes one liveness timeout, and the watched side
beats :data:`BEATS_PER_TIMEOUT` times per timeout (:func:`heartbeat`),
so a beat interval can never be configured at or above the timeout
that judges it.  Each retry waits :func:`backoff`.

Stdlib only, rank 0 in the layer DAG: any layer may import it.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator

__all__ = ["BEATS_PER_TIMEOUT", "backoff", "heartbeat"]

#: Beats per liveness timeout, so a few late or lost beats never read
#: as death.
BEATS_PER_TIMEOUT = 20


@contextlib.contextmanager
def heartbeat(
    timeout_s: float, beat: Callable[[], object], name: str
) -> Iterator[threading.Event]:
    """Call ``beat()`` every ``timeout_s / BEATS_PER_TIMEOUT`` s on a daemon thread.

    Yields the thread's stop event.  The thread stops when the block
    exits, when the caller sets the event (an injected silence: the
    watcher must notice), when ``beat`` returns ``False`` (what it
    refreshes is no longer ours) or when ``beat`` raises
    :class:`OSError` (the watcher's end of the channel is gone).
    """
    interval_s = timeout_s / BEATS_PER_TIMEOUT
    stop = threading.Event()

    def run() -> None:
        while not stop.wait(interval_s):
            try:
                if beat() is False:
                    return
            except OSError:
                return

    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.start()
    try:
        yield stop
    finally:
        stop.set()
        thread.join()


def backoff(attempt: int, base_s: float, cap_s: float) -> float:
    """Seconds to wait before retry ``attempt`` (1-based): doubling, capped."""
    return min(base_s * 2 ** (attempt - 1), cap_s)
