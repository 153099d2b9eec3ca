"""Deterministic discrete-event kernel: clock, calendar, and FIFO server pools.

Events fire in non-decreasing time order with FIFO tie-breaking by insertion
sequence.  Pools hand out servers in strict request order, record every
waiting time, and integrate queue length over time so long-run queue
statistics (Little's law checks) come for free.  A request that finds a free
server is granted at once and gets no handle; only a request that has to
queue returns a `PoolRequest`, which can cancel it.  A pool's capacity is
fixed when it is built; `math.inf` makes a pool that never queues.

Every pooled lot step of the twin is one seize-hold-release:
`ResourcePool.serve` seizes a server, holds it for the time its `hold`
callback returns at the grant, releases it, and only then runs the step's
continuation.  The ledger's authority queues are not pools: nothing cancels
them, so `hemptwin.ledger` works out each record's finish time in closed form
when the record arrives.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["EventCalendar", "ResourcePool", "PoolRequest", "TimeInPastError"]


class TimeInPastError(ValueError):
    """Attempt to schedule an event before the current clock."""


class EventCalendar:
    """Pending events ordered by (time, insertion sequence)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, at_time: float, action: Callable[[], None]) -> None:
        """Fire `action` at exactly `at_time` (>= current clock)."""
        if at_time < self.now:
            raise TimeInPastError(f"schedule at {at_time} < clock {self.now}")
        heapq.heappush(self._heap, (at_time, self._seq, action))
        self._seq += 1

    def schedule_in(self, delay: float, action: Callable[[], None]) -> None:
        self.schedule(self.now + delay, action)

    def step(self) -> bool:
        """Fire the next event; returns False when the calendar is empty."""
        if not self._heap:
            return False
        at_time, _, action = heapq.heappop(self._heap)
        self.now = at_time
        action()
        return True

    def run(self, stop: Callable[[], bool] | None = None) -> None:
        """Run until the calendar empties or `stop()` turns true."""
        while self._heap:
            if stop is not None and stop():
                return
            self.step()


@dataclass(slots=True, eq=False)
class PoolRequest:
    """A queued request for one server of `pool`."""

    pool: "ResourcePool" = field(repr=False)
    entity_id: object = None
    enqueue_time: float = 0.0
    on_grant: Callable[[], None] = field(default=None, repr=False)
    granted: bool = False

    def cancel(self) -> None:
        """Withdraw the request if it is still queued."""
        queue = self.pool.queue
        if self in queue:
            self.pool._advance_areas()
            queue.remove(self)


@dataclass(slots=True, eq=False)
class _Service:
    """One `ResourcePool.serve` step: called at the grant it starts the hold,
    called again at the end of the hold it releases the server and continues.
    One object, not two closures with their cells, is what a step keeps alive."""

    pool: "ResourcePool"
    hold: Callable[[], float]
    then: Callable[[], None]
    held: bool = False

    def __call__(self) -> None:
        if self.held:
            self.pool.release()
            self.then()
        else:
            self.held = True
            self.pool.calendar.schedule_in(self.hold(), self)


@dataclass
class ResourcePool:
    """Multi-server FIFO pool with immediate grants and no preemption.

    `capacity` is fixed at construction; `math.inf` means unbounded.  A
    request queues only while every server is busy, so a non-empty queue
    means `busy == capacity`.  Buffers are unbounded -- any loss behaviour
    belongs to the callers via timeout events.
    """

    calendar: EventCalendar
    name: str
    capacity: float
    busy: int = 0
    queue: deque = field(default_factory=deque)
    waits: list = field(default_factory=list)
    _queue_area: float = 0.0
    _last_t: float = 0.0

    def _advance_areas(self) -> None:
        now = self.calendar.now
        dt = now - self._last_t
        if dt > 0:
            self._queue_area += dt * len(self.queue)
            self._last_t = now

    def request(
        self, entity_id: object, on_grant: Callable[[], None]
    ) -> PoolRequest | None:
        """Ask for one server; `on_grant` runs when one is assigned.  A free
        server is granted at once, before this returns None; a request that
        queues returns its handle, usable for cancellation.  A server is free
        only while the queue is empty, so the queue-length area stays put."""
        if self.busy < self.capacity:
            self.busy += 1
            self.waits.append((entity_id, 0.0))
            on_grant()
            return None
        self._advance_areas()
        req = PoolRequest(self, entity_id, self.calendar.now, on_grant)
        self.queue.append(req)
        return req

    def serve(
        self, entity_id: object, hold: Callable[[], float], then: Callable[[], None]
    ) -> PoolRequest | None:
        """Seize one server, hold it, release it, then continue.

        At the grant `hold()` runs and returns the hold time; when that time
        is up the server is released -- granting it to the queue head, whose
        `hold()` runs at once -- and then `then()` runs.  Returns like
        `request`: None for an immediate grant, the queued request's handle
        otherwise.  A cancelled request never calls `hold` or `then`."""
        return self.request(entity_id, _Service(self, hold, then))

    def release(self) -> None:
        """Return one server: it goes straight to the queue head, FIFO, or
        becomes free when nobody waits."""
        if self.busy <= 0:
            raise RuntimeError(f"pool {self.name!r}: release without busy server")
        if not self.queue:
            self.busy -= 1
            return
        self._advance_areas()
        req = self.queue.popleft()
        req.granted = True
        self.waits.append((req.entity_id, self.calendar.now - req.enqueue_time))
        req.on_grant()

    def average_queue_length(self) -> float:
        self._advance_areas()
        return self._queue_area / self._last_t if self._last_t > 0 else 0.0

    def average_wait(self) -> float:
        return sum(w for _, w in self.waits) / len(self.waits) if self.waits else 0.0
