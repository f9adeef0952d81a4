"""The one contended resource of the testbed: a node's CPUs.

Every CPU charge of the application-server, router and database
workstations goes through :meth:`Resource.use`, the only hold.  It is a
single generator frame: when a unit is free it takes it by arithmetic —
no request event — then yields the validated duration as a bare float
(the kernel's cheapest wait) and releases in a ``finally``.  When every
unit is busy it queues a plain event, FIFO, which the releasing holder
succeeds; the waiter takes the unit when it resumes, at the instant of
the release.  The busy-time integral behind :meth:`Resource.utilization`
is a float sum, hence order-sensitive; ``tests/simnet/test_wait_path.py``
checks it and the FIFO hand-off against a request/release reference
under CPU contention.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from .kernel import Environment, Event

__all__ = ["Resource"]

_INF = float("inf")


class Resource:
    """A capacity-limited resource with utilization accounting (e.g. a 2-CPU server).

    Process code holds one unit for ``duration`` ms with
    ``yield from resource.use(duration)``.  The resource tracks total
    busy time so utilization can be reported, as the paper does ("CPU
    utilization never exceeded 40%").
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._free = capacity
        self._waiters: Deque[Event] = deque()
        self._busy = 0
        self._busy_time = 0.0
        self._last_change = env.now
        self._started = env.now

    def utilization(self) -> float:
        """Mean fraction of capacity busy since creation (0..1)."""
        now = self.env.now
        self._busy_time += self._busy * (now - self._last_change)
        self._last_change = now
        elapsed = now - self._started
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire, hold for ``duration`` ms, release.  ``yield from`` this."""
        env = self.env
        if self._free > 0 and not self._waiters:
            # Uncontended: take the unit synchronously instead of round-
            # tripping a grant event through the ready queue (an
            # allocation plus a full dispatch for every CPU charge).
            self._free -= 1
        else:
            grant = Event(env)
            self._waiters.append(grant)
            yield grant
        now = env.now
        self._busy_time += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy += 1
        try:
            if not 0 <= duration < _INF:
                raise ValueError(f"hold duration must be finite and non-negative: {duration!r}")
            yield float(duration)
        finally:
            now = env.now
            self._busy_time += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy -= 1
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._free += 1
