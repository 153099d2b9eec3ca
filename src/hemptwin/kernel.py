"""Deterministic discrete-event kernel: clock, calendar, and FIFO server pools.

Events fire in non-decreasing time order with FIFO tie-breaking by insertion
sequence; a time before the clock, NaN included, is refused.  `run` fires
them until the calendar empties or an event calls `halt()`.  Pools hand out
servers in strict request order and keep no statistics.  A pool's capacity
is fixed when it is built; `math.inf` makes a pool that never queues.

Every pooled lot step of the twin is one seize-hold-release, and one
`PoolRequest`: `ResourcePool.request` seizes a server, holds it for the time
its `hold` callback returns at the grant, releases it, and only then runs the
step's continuation.  A step that finds a free server is granted at once and
gets no handle; only a step that has to queue returns its `PoolRequest`,
which can cancel it.  The ledger's authority queues are not pools: nothing
cancels them, so `hemptwin.ledger` works out each record's finish time in
closed form when the record arrives.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["EventCalendar", "ResourcePool", "PoolRequest", "TimeInPastError"]


class TimeInPastError(ValueError):
    """Attempt to schedule an event before the current clock."""


class EventCalendar:
    """Pending events ordered by (time, insertion sequence).  `order` hands
    out the sequence numbers, also to timed work kept off the calendar."""

    def __init__(self) -> None:
        self.now = 0.0
        self.fired = -1  # sequence number of the event that fired last
        self.order = itertools.count()
        self._halted_after: int | None = None  # `fired` at the last `halt()`
        self._heap: list[tuple[float, int, Callable[[], None]]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, at_time: float, action: Callable[[], None]) -> None:
        """Fire `action` at exactly `at_time` (>= current clock; NaN is not)."""
        if not at_time >= self.now:
            raise TimeInPastError(f"schedule at {at_time}, not at or after clock {self.now}")
        heapq.heappush(self._heap, (at_time, next(self.order), action))

    def schedule_in(self, delay: float, action: Callable[[], None]) -> None:
        self.schedule(self.now + delay, action)

    def step(self) -> bool:
        """Fire the next event; returns False when the calendar is empty."""
        if not self._heap:
            return False
        self.now, self.fired, action = heapq.heappop(self._heap)
        action()
        return True

    @property
    def halted(self) -> bool:
        """Whether the event that fired last called `halt()`; `run` resets it."""
        return self._halted_after == self.fired

    def halt(self) -> None:
        """Stop `run` once the event firing now returns."""
        self._halted_after = self.fired

    def run(self) -> None:
        """Fire events until the calendar empties or one calls `halt()`;
        `halted` tells which."""
        self._halted_after = None
        while self._halted_after != self.fired:
            if not self._heap:
                return
            self.step()


@dataclass(slots=True, eq=False)
class PoolRequest:
    """One pooled step: a server of `pool` held for `hold()` days, then `then()`.

    The step is its own end-of-hold event, and a queued step's handle."""

    pool: "ResourcePool" = field(repr=False)
    hold: Callable[[], float] = field(repr=False)
    then: Callable[[], None] = field(repr=False)
    granted: bool = False

    def __call__(self) -> None:
        """End of the hold: release the server, then continue."""
        self.pool.release()
        self.then()

    def cancel(self) -> None:
        """Withdraw the step if it is still queued."""
        queue = self.pool.queue
        if self in queue:
            queue.remove(self)


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

    def request(
        self, hold: Callable[[], float], then: Callable[[], None]
    ) -> PoolRequest | None:
        """Seize one server, hold it, release it, then continue.

        At the grant `hold()` runs and returns the hold time; when that time
        is up the server is released -- granting it to the queue head, whose
        `hold()` runs at once -- and then `then()` runs.  A free server is
        granted before this returns None; a step that queues returns its
        handle, whose `cancel` withdraws it before it ever calls `hold` or
        `then`.  A `hold` that raises, or whose time the calendar refuses,
        leaves the pool as it was: the server is counted only once its end
        is scheduled."""
        if self.busy < self.capacity:
            self.calendar.schedule_in(hold(), PoolRequest(self, hold, then, True))
            self.busy += 1
            return None
        step = PoolRequest(self, hold, then)
        self.queue.append(step)
        return step

    def release(self) -> None:
        """Return one server: the queue head, FIFO, is granted it and starts
        its hold, or the server becomes free when nobody waits.  A head whose
        `hold` raises or is refused stays queued, and the server stays
        counted, so the release can be made again."""
        if self.busy <= 0:
            raise RuntimeError(f"pool {self.name!r}: release without busy server")
        if not self.queue:
            self.busy -= 1
            return
        step = self.queue[0]
        self.calendar.schedule_in(step.hold(), step)
        self.queue.popleft()
        step.granted = True
