"""Bounded admission queue with dynamic micro-batch coalescing.

The service's scheduler thread blocks on :meth:`AdmissionQueue.next_batch`
which implements the batch-window/max-batch policy: once the first
request arrives, the drain waits up to ``window`` seconds for more to
coalesce (so concurrent clients share one ``run_batch`` call) but never
longer — a lone request pays at most the window in added latency, and a
burst is capped at ``max_batch`` per drain so no single drain starves the
queue behind it.

Admission is strictly non-blocking: :meth:`AdmissionQueue.offer` either
enqueues or returns ``False`` immediately when the bound is hit — the
*reject-when-full* half of the service's backpressure story.  Drains pop
by descending ``priority`` (FIFO within a level).

The queue reads time through an injectable ``clock`` (default
``time.monotonic``): the batch-window deadline is computed against it, so
a service under a fake clock keeps every timing decision — deadline
expiry *and* window elapse — on the same timeline.  Condition waits
still sleep in real time (a thread cannot block on a fake clock), so a
clock that fails to advance across a timed-out wait is treated as an
elapsed window rather than looping forever.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ServiceError

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """A bounded, priority-aware request queue for the scheduler thread.

    Items must expose ``priority`` (higher drains first); arrival order
    breaks ties.  All methods are thread-safe; ``offer`` never blocks.
    ``clock`` injects the time source used for the batch-window deadline
    (the service passes its own, so tests can drive both deadlines and
    window waits from one fake clock).
    """

    def __init__(self, max_queue: int, *, clock=None):
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = int(max_queue)
        self._clock = clock if clock is not None else time.monotonic
        self._items: list = []
        self._seq = 0
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, item) -> bool:
        """Enqueue ``item`` or return ``False`` when the queue is full.

        Never blocks — this is the admission-control edge: a ``False``
        here becomes a typed ``overloaded`` response upstream.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("queue is closed")
            if len(self._items) >= self.max_queue:
                return False
            self._items.append((item, self._seq))
            self._seq += 1
            self._nonempty.notify()
            return True

    def next_batch(
        self, *, max_batch: int, window: float, poll: float = 0.05
    ) -> list:
        """Drain up to ``max_batch`` items under the batch-window policy.

        Blocks up to ``poll`` seconds for a first item (returning ``[]``
        on timeout, so the caller can check its stop flag); once one is
        present, waits until either ``window`` seconds have passed on the
        injected clock since the drain began or ``max_batch`` items are
        queued, then pops the highest-priority ``max_batch`` items (FIFO
        within a priority).
        """
        with self._nonempty:
            if not self._items:
                if self._closed:
                    return []
                self._nonempty.wait(timeout=poll)
                if not self._items:
                    return []
            now = self._clock()
            deadline = now + window
            while len(self._items) < max_batch and not self._closed:
                remaining = deadline - now
                if remaining <= 0:
                    break
                notified = self._nonempty.wait(timeout=min(remaining, poll))
                previous, now = now, self._clock()
                if not notified and now <= previous:
                    # The injected clock did not move across a real timed
                    # wait: it is frozen, so the window can never elapse
                    # on its own.  Treat it as elapsed.
                    break
            # Stable sort on -priority keeps FIFO order within a level.
            self._items.sort(key=lambda pair: (-pair[0].priority, pair[1]))
            taken = self._items[:max_batch]
            del self._items[: len(taken)]
            return [item for item, _ in taken]

    def close(self) -> None:
        """Refuse further offers and wake any blocked drain."""
        with self._lock:
            self._closed = True
            self._nonempty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
