"""Concurrency primitives built on the simulation kernel.

These model the contended resources of the testbed: CPUs on the
application-server workstations, database connection pools, bean instance
pools, and message queues.

All primitives hand out :class:`~repro.simnet.kernel.Event` objects, so
they compose with ``yield`` / ``yield from`` in process code.  The one
exception is the hot one: :meth:`Resource.use`, the only hold primitive
(every CPU charge goes through it), is a single generator frame.  When a
unit is free it takes it by arithmetic — no request event — then yields
the validated duration as a bare float (the kernel's cheapest wait) and
releases in a ``finally``.  Its grant and release are the statements of
:meth:`Resource.request` and :meth:`Resource.release` in the same order,
so the busy-time integral behind :meth:`Resource.utilization` — a float
sum, hence order-sensitive — and the FIFO hand-off to a queued waiter
are exactly theirs; ``tests/simnet/test_wait_path.py`` checks both
against the method-by-method version under CPU contention.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Tuple

from .kernel import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Semaphore", "Latch"]


class Semaphore:
    """Counted semaphore.

    ``acquire()`` returns an event that fires when a permit is available;
    ``release()`` returns one permit.  FIFO fairness.
    """

    def __init__(self, env: Environment, permits: int):
        if permits < 0:
            raise ValueError("permits must be non-negative")
        self.env = env
        self._permits = permits
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Number of free permits."""
        return self._permits

    @property
    def queue_length(self) -> int:
        """Number of acquirers currently blocked."""
        return len(self._waiters)

    def acquire(self) -> Event:
        event = self.env.event()
        if self._permits > 0 and not self._waiters:
            self._permits -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._permits += 1


class Resource:
    """A capacity-limited resource with monitoring (e.g. a 2-CPU server).

    Typical use from process code::

        with_req = resource.request()
        yield with_req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()

    or via the :meth:`use` helper which wraps exactly that pattern.

    The resource tracks total busy time so utilization can be reported, as
    the paper does ("CPU utilization never exceeded 40%").
    """

    def __init__(self, env: Environment, capacity: int, name: str = "resource"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._semaphore = Semaphore(env, capacity)
        self._busy = 0
        self._busy_time = 0.0
        self._last_change = env.now
        self._started = env.now
        # Running sum/count instead of a sample list: only the mean is
        # ever reported, and the list grew with every completed request.
        self._wait_total = 0.0
        self._wait_count = 0

    # -- accounting --------------------------------------------------------
    def _account(self) -> None:
        now = self.env.now
        self._busy_time += self._busy * (now - self._last_change)
        self._last_change = now

    @property
    def in_use(self) -> int:
        """Number of units currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of requesters currently waiting."""
        return self._semaphore.queue_length

    def utilization(self) -> float:
        """Mean fraction of capacity busy since creation (0..1)."""
        self._account()
        elapsed = self.env.now - self._started
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    def mean_wait(self) -> float:
        """Mean queueing delay experienced by completed requests (ms)."""
        if not self._wait_count:
            return 0.0
        return self._wait_total / self._wait_count

    # -- protocol ------------------------------------------------------------
    def request(self) -> Event:
        """Event that fires once a unit has been granted to the caller."""
        semaphore = self._semaphore
        if semaphore._permits > 0 and not semaphore._waiters:
            # Uncontended: the grant fires this instant, so do the busy
            # bookkeeping now (same timestamp, zero wait) and skip the
            # per-request callback closure.  Simulated time is identical;
            # _account() at an unchanged `now` accumulates nothing.
            semaphore._permits -= 1
            self._account()
            self._busy += 1
            self._wait_count += 1
            event = Event(self.env)
            event.succeed()
            return event
        start = self.env.now
        event = self.env.event()
        semaphore._waiters.append(event)

        def _granted(_event: Event) -> None:
            self._account()
            self._busy += 1
            self._wait_total += self.env.now - start
            self._wait_count += 1

        event.add_callback(_granted)
        return event

    def release(self) -> None:
        """Return one previously granted unit."""
        if self._busy <= 0:
            raise SimulationError(f"release of un-acquired resource {self.name!r}")
        self._account()
        self._busy -= 1
        self._semaphore.release()

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Acquire, hold for ``duration`` ms, release.  ``yield from`` this.

        Grant, sleep and release are inlined in the order :meth:`request`,
        ``env.sleep`` and :meth:`release` run them (module docstring).
        """
        semaphore = self._semaphore
        env = self.env
        if semaphore._permits > 0 and not semaphore._waiters:
            # Uncontended: grant the unit synchronously instead of round-
            # tripping an already-succeeded request event through the
            # ready queue (an allocation plus a full dispatch step for
            # every CPU charge and quiet shaper port).
            semaphore._permits -= 1
            now = env.now
            self._busy_time += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy += 1
            self._wait_count += 1
        else:
            yield self.request()
        try:
            if duration < 0:
                raise ValueError(f"negative sleep delay: {duration!r}")
            yield float(duration)
        finally:
            if self._busy <= 0:
                raise SimulationError(f"release of un-acquired resource {self.name!r}")
            now = env.now
            self._busy_time += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy -= 1
            if semaphore._waiters:
                semaphore._waiters.popleft().succeed()
            else:
                semaphore._permits += 1


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    Used for message queues (JMS topics deliver into per-subscriber
    stores) and worker in-boxes.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            self.total_got += 1
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        event = self.env.event()
        if self._items:
            self.total_got += 1
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            self.total_got += 1
            return True, self._items.popleft()
        return False, None


class Latch:
    """A count-down latch: fires its event after ``count`` arrivals.

    Used to wait for N parallel replica updates to acknowledge (the
    blocking push-based update protocol of section 4.3).
    """

    def __init__(self, env: Environment, count: int):
        if count < 0:
            raise ValueError("count must be non-negative")
        self.env = env
        self._remaining = count
        self.event = env.event()
        if count == 0:
            self.event.succeed()

    @property
    def remaining(self) -> int:
        return self._remaining

    def count_down(self) -> None:
        if self._remaining <= 0:
            raise SimulationError("latch already open")
        self._remaining -= 1
        if self._remaining == 0:
            self.event.succeed()
