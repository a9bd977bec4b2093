"""Bounded event queues with backpressure.

The pipeline's producer (a sensor source) and consumer (the window
assembler) are decoupled by a bounded FIFO so a slow consumer cannot
grow memory without bound.  The queue holds opaque items — the stream
puts sighting batches and camera frames in it — so its capacity and
its ``offered``/``shed`` tallies count items, not events.  Two
overflow policies, mirroring the serving layer's admission queue
semantics (:mod:`repro.service.server`):

* ``"block"`` — the producer waits for space (lossless backpressure;
  the default, and the mode the checkpoint/equivalence guarantees
  assume);
* ``"shed"`` — the newest item is dropped and counted, like the
  service shedding a request when its admission queue is full
  (bounded loss under overload, never unbounded latency).

A ``None`` item is the end-of-stream sentinel.
"""

from __future__ import annotations

import queue
import threading
from typing import Optional

#: Accepted overflow policies.
POLICIES = ("block", "shed")


class BoundedEventQueue:
    """Thread-safe bounded FIFO between one producer and one consumer.

    Args:
        capacity: maximum buffered items.
        policy: ``"block"`` or ``"shed"`` (see module docstring).
    """

    def __init__(self, capacity: int = 1024, policy: str = "block") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.capacity = capacity
        self.policy = policy
        # Data puts compete for `capacity` slots via the semaphore; the
        # underlying queue keeps one extra slot so the end-of-stream
        # sentinel can always land even when the buffer is full.
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity + 1)
        self._slots = threading.Semaphore(capacity)
        self._lock = threading.Lock()
        self._offered = 0
        self._shed = 0

    def put(self, item) -> bool:
        """Offer one item; returns ``False`` when it was shed."""
        with self._lock:
            self._offered += 1
        if self.policy == "block":
            self._slots.acquire()
        elif not self._slots.acquire(blocking=False):
            with self._lock:
                self._shed += 1
            return False
        self._queue.put(item)
        return True

    def put_sentinel(self) -> None:
        """Signal end-of-stream; always delivered, even when full."""
        self._queue.put(None)

    def get(self, timeout: Optional[float] = None):
        """Take the next item (or the ``None`` sentinel)."""
        item = self._queue.get(timeout=timeout)
        if item is not None:
            self._slots.release()
        return item

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    @property
    def offered(self) -> int:
        """Items the producer has offered (shed ones included)."""
        with self._lock:
            return self._offered

    @property
    def shed(self) -> int:
        """Items dropped by the ``shed`` policy."""
        with self._lock:
            return self._shed
