"""A bounded priority queue with explicit backpressure.

Unlike :class:`queue.PriorityQueue`, this queue

* *rejects* instead of blocking when full — the HTTP layer turns
  :class:`QueueFull` into a 429 with a ``Retry-After`` — because a
  service that buffers unboundedly under overload fails later and
  worse,
* supports O(log n) removal of cancelled jobs so a cancel reclaims the
  queue slot immediately,
* reports its depth and the age of its oldest entry, which drive the
  readiness probe and the degradation-tier selection.

Orders by ``(priority, arrival ordinal)`` — lower priority numbers
dispatch first, FIFO within a priority class.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Any

__all__ = ["BACKGROUND_PRIORITY", "BoundedPriorityQueue", "QueueFull"]

#: Priorities at or above this value form the *background band*: batch
#: work submits here.  The dispatcher only accepts background entries
#: while at least one worker slot stays free for interactive jobs, so
#: batch work never starves users.
#: Interactive priorities (< this value) always sort ahead of background
#: ones in the heap, so the band check reduces to inspecting the top.
BACKGROUND_PRIORITY = 10


class QueueFull(Exception):
    """The queue is at capacity; carries a ``retry_after`` hint."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"queue full; retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class BoundedPriorityQueue:
    """Heap of ``(priority, seq, job_id, item)`` under one condition."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Condition()
        self._heap: list[list[Any]] = []
        self._live: dict[str, list[Any]] = {}
        self._seq = 0
        self._closed = False
        #: EWMA of recent job service seconds, fed by the runtime; the
        #: ``Retry-After`` hint and tier selection scale with it.
        self._service_seconds = 1.0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def put(self, job_id: str, priority: int, item: Any,
            workers: int = 1) -> int:
        """Enqueue; returns the depth after insert.

        Raises :class:`QueueFull` at capacity with a ``retry_after``
        estimated from the current backlog and service rate, and
        :class:`RuntimeError` once the queue is closed for draining.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if len(self._live) >= self.capacity:
                raise QueueFull(self._retry_after_locked(workers))
            self._seq += 1
            entry = [priority, self._seq, job_id, item, time.monotonic()]
            self._live[job_id] = entry
            heapq.heappush(self._heap, entry)
            # notify_all: a waiter restricted to the interactive band may
            # decline a background entry, so every waiter must recheck.
            self._lock.notify_all()
            return len(self._live)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def get(self, timeout: float | None = None, *,
            background_ok: bool = True) -> Any | None:
        """Pop the best entry, blocking up to ``timeout``; None on idle.

        ``background_ok=False`` restricts the pop to the interactive
        band (priority < :data:`BACKGROUND_PRIORITY`); interactive
        entries always sort ahead of background ones, so inspecting the
        heap top suffices.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._heap and self._heap[0][3] is None:
                    heapq.heappop(self._heap)  # tombstoned (removed) entry
                if self._heap and (background_ok
                                   or self._heap[0][0] < BACKGROUND_PRIORITY):
                    entry = heapq.heappop(self._heap)
                    del self._live[entry[2]]
                    return entry[3]
                if self._closed:
                    return None
                if deadline is None:
                    self._lock.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._lock.wait(remaining)

    def remove(self, job_id: str) -> bool:
        """Drop a queued job (cancellation); True if it was queued."""
        with self._lock:
            entry = self._live.pop(job_id, None)
            if entry is None:
                return False
            entry[3] = None  # tombstone; popped lazily by get()
            return True

    def drain(self) -> list[Any]:
        """Remove and return every queued item (immediate shutdown)."""
        with self._lock:
            items = [entry[3] for entry in self._heap
                     if entry[3] is not None]
            self._heap.clear()
            self._live.clear()
            return items

    def close(self) -> None:
        """Stop accepting puts; blocked getters drain then see None."""
        with self._lock:
            self._closed = True
            self._lock.notify_all()

    # ------------------------------------------------------------------
    # pressure signals
    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return len(self._live)

    def interactive_depth(self) -> int:
        """Queued entries in the interactive band only."""
        with self._lock:
            return sum(1 for entry in self._live.values()
                       if entry[0] < BACKGROUND_PRIORITY)

    def oldest_wait_seconds(self) -> float:
        """Age of the oldest still-queued entry (0 when empty)."""
        with self._lock:
            oldest = None
            for entry in self._live.values():
                if oldest is None or entry[4] < oldest:
                    oldest = entry[4]
            if oldest is None:
                return 0.0
            return max(time.monotonic() - oldest, 0.0)

    def note_service_seconds(self, seconds: float) -> None:
        """Fold one completed job's service time into the EWMA."""
        with self._lock:
            self._service_seconds = (
                0.7 * self._service_seconds + 0.3 * max(seconds, 0.01)
            )

    def estimated_wait_seconds(self, workers: int) -> float:
        """Backlog drain estimate used for tier selection / Retry-After."""
        with self._lock:
            return self._estimated_wait_locked(workers)

    def _estimated_wait_locked(self, workers: int) -> float:
        return len(self._live) * self._service_seconds / max(workers, 1)

    def _retry_after_locked(self, workers: int) -> float:
        # One service interval must pass before a slot can free up; cap
        # the hint so clients poll at a sane rate even under pile-ups.
        estimate = self._service_seconds / max(workers, 1)
        return min(max(estimate, 0.5), 60.0)
