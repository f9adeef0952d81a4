"""Discrete-event simulation kernel.

The kernel executes *processes* — Python generator functions that yield
:class:`Event` objects — against a single global virtual clock.  It is the
substrate on which every other subsystem (network links, the database
engine, EJB containers, HTTP clients) is built, and it offers only what
they use: timed waits (``env.sleep`` / ``env.timeout``), one-shot events,
joins on processes and ``any_of`` / ``all_of``.  :meth:`Environment.run`
is the one place items are dequeued and dispatched; it runs until
nothing is pending.

Design notes
------------

* Time is a ``float`` in **simulated milliseconds**.  Nothing in the kernel
  depends on the unit, but every caller in this repository uses ms.
* A process yields an :class:`Event`; the kernel suspends the process until
  the event fires and resumes it with the event's value (or throws the
  event's exception into it).  Sub-routines compose with ``yield from``.
* Event ordering is deterministic: events scheduled for the same timestamp
  fire in schedule order (a monotonically increasing sequence number breaks
  ties), which makes simulations reproducible byte-for-byte.
* Scheduling is two-tier: items due *now* (triggered events, deferred
  calls, zero-delay timeouts) live in a FIFO ready deque; items due
  strictly later live in one binary heap of ``(time, sequence, item)``
  triples.  When the ready deque drains, the clock advances to the
  heap's minimum and **every** entry due at that instant is moved to
  the deque in one batch.  Because future entries are always scheduled
  at ``now + delay`` with ``delay > 0``, nothing can land *at* the
  current instant afterwards, so the deque's FIFO order alone
  reproduces global ``(time, sequence)`` order — no per-pop merge
  between the two tiers is needed.  Sequence numbers are unique, so the
  heap never compares two items.

Example
-------

>>> env = Environment()
>>> log = []
>>> def proc(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(proc(env, 'b', 2.0))
>>> _ = env.process(proc(env, 'a', 1.0))
>>> env.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


_INF = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with a value
    (:meth:`succeed`) or an exception (:meth:`fail`).  Processes waiting on
    the event are resumed by the kernel in FIFO order.

    The callback list is lazy (``None`` until the first waiter) because
    most events in a simulation have exactly zero or one waiter and the
    empty-list allocation is pure overhead on the hot path.
    """

    __slots__ = (
        "env",
        "_callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_dispatched",
    )

    # Class-level default read by the dispatch loop: only Process instances
    # (whose per-instance slot shadows this) can ever be asleep.
    _sleeping = False

    def __init__(self, env: "Environment"):
        self.env = env
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._dispatched = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self._triggered:
            raise SimulationError("event value is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._ready.append(self)
        return self

    # -- waiting ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been dispatched the callback runs at the
        current instant, behind every item already ready.
        """
        if self._dispatched:
            self.env._ready.append(partial(callback, self))
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` ms after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and non-negative: {delay!r}")
        # Inlined Event.__init__ plus scheduling: timeouts are the single
        # most-allocated object in a simulation.
        self.env = env
        self._callbacks = None
        # The value is fixed now, but the event only *triggers* when the
        # kernel dispatches it at now+delay (AnyOf/AllOf rely on this).
        self._value = value
        self._exception = None
        self._triggered = False
        self._dispatched = False
        self.delay = delay
        if delay == 0.0:
            # Due this very instant: the ready deque, not the heap.
            env._ready.append(self)
        else:
            env._sequence = sequence = env._sequence + 1
            heappush(env._heap, (env.now + delay, sequence, self))


class Process(Event):
    """A running generator.  Also an event that fires when the generator ends.

    The process event's value is the generator's return value; if the
    generator raises, the process event fails with that exception (unless a
    waiter is present, failures propagate and crash the simulation — errors
    should never pass silently).
    """

    # _sleeping and _send lead the slot layout so the run loop's two
    # hot loads land on the same cache line — at 10^6 concurrent
    # processes every dispatch touches a cold Process object, and one
    # miss per wake is measurably cheaper than two.
    __slots__ = (
        "_sleeping",
        "_send",
        "generator",
        "name",
    )

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() requires a generator; got %r. Did you forget to "
                "call the generator function?" % (generator,)
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._send = generator.send
        # Bootstrap: start the generator at the current simulation time.
        # A brand-new process is indistinguishable from one sleeping for
        # zero delay — the run loop's fast lane primes the generator
        # with ``send(None)``, with no deferred-call allocation and no
        # ``_step`` frame.
        self._sleeping = True
        env._ready.append(self)

    # -- stepping machinery ----------------------------------------------
    def _on_event(self, event: Event) -> None:
        exception = event._exception
        if exception is not None:
            self._step(None, exception)
        else:
            self._step(event._value, None)

    def _finish(self, error: BaseException) -> None:
        """Handle an exception the generator raised out of send/throw.

        StopIteration is normal completion; anything else fails the
        process event if someone is waiting on it, or crashes the
        simulation loudly if nobody is.
        """
        if isinstance(error, StopIteration):
            value = getattr(error, "value", None)
        elif self._callbacks:
            self.fail(error)
            return
        else:
            # No waiter to deliver the failure to: crash loudly.
            raise error
        # Inlined succeed(): completion is once-per-process but at
        # million-session scale that is a million dispatches.
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        if self._callbacks is None:
            # Nobody is waiting: skip the ready-deque dispatch entirely.
            # Marking the event dispatched keeps add_callback()-after-
            # completion working (it schedules the callback itself).
            self._dispatched = True
        else:
            self.env._ready.append(self)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                # Cold path: a bound throw per process would cost ~80 B
                # at every live process for a call few of them make.
                target = self.generator.throw(exc)
            else:
                target = self._send(value)
        except BaseException as error:
            self._finish(error)
            return
        if target.__class__ is float:
            # Pure-delay fast lane (`yield env.sleep(d)` / a bare float —
            # ints stay errors, they are the classic yielded-a-non-event
            # bug): no Event object, no callback list, no dispatch — the
            # process itself is the heap entry (one tuple) or the ready
            # item (nothing at all); the run loop recognises a sleeping
            # process by its ``_sleeping`` flag and resumes it directly.
            env = self.env
            if target > 0:
                self._sleeping = True
                env._sequence = sequence = env._sequence + 1
                heappush(env._heap, (env.now + target, sequence, self))
            elif target == 0:
                self._sleeping = True
                env._ready.append(self)
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {target!r}"
                )
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Suspend until ``target`` (an Event) fires.

        The non-float half of target handling, shared by :meth:`_step`
        and the run loop's inlined resume of sleeping processes.
        """
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (use env.timeout / env.process / ...)"
            )
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event from another Environment")
        # Inlined add_callback: this registration runs once per event wait.
        if target._dispatched:
            self.env._ready.append(partial(self._on_event, target))
        elif target._callbacks is None:
            target._callbacks = [self._on_event]
        else:
            target._callbacks.append(self._on_event)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError(
                    f"conditions combine Event instances, got {event!r}; "
                    "env.sleep() delays cannot be combined — use "
                    "env.timeout() instead"
                )
            event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event._triggered and event._exception is None
        }


class AnyOf(_Condition):
    """Fires when the first of ``events`` fires.

    Value is a dict ``{index: value}`` of all events triggered so far.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when every one of ``events`` has fired.

    Value is a dict ``{index: value}`` of every event's value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Environment:
    """The simulation world: a clock, a ready deque, and a timer heap.

    Items due at the current instant live in ``_ready`` (a FIFO deque of
    bare items); items due strictly later live in ``_heap`` as
    ``(time, sequence, item)`` triples.  An *item* is either an
    :class:`Event` to dispatch or a zero-argument callable.  Whenever
    the clock advances, every heap entry due at the new instant moves to
    the deque in one batch — future entries are always strictly later
    than ``now``, so deque FIFO order alone equals global
    ``(time, sequence)`` order.

    ``now`` — the current simulated time in milliseconds — is a plain
    slot the dequeue writes, not a property: every layer above reads the
    clock several times per message, and an attribute load costs no
    Python call.  Only this module assigns it.
    """

    __slots__ = (
        "now",
        "_ready",
        "_sequence",
        "_heap",
    )

    def __init__(self):
        self.now = 0.0
        self._ready: deque = deque()
        self._sequence = 0
        # Never reassigned: ``run`` caches it as a local.
        self._heap: List[tuple] = []

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> float:
        """A pure delay for ``yield env.sleep(delay)`` — the cheapest wait.

        Unlike :meth:`timeout` no :class:`Event` is allocated: the kernel
        treats a yielded bare number as "resume me ``delay`` ms from
        now".  A sleeping process carries no event identity, so it
        cannot be waited on mid-sleep or combined with
        ``any_of``/``all_of``.  Use :meth:`timeout` for that.
        (``yield some_float`` directly is equivalent; this method just
        documents intent and validates eagerly.)
        """
        if not 0 <= delay < _INF:
            raise ValueError(f"sleep delay must be finite and non-negative: {delay!r}")
        return float(delay)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------
    def run(self) -> None:
        """Dequeue and dispatch every item until nothing is pending.

        This loop is the only dequeue.  It is the workhorse under
        open-loop load — ~10^7 dispatches per million-session run — so
        the heap pop, same-instant batching and the dispatch are inlined
        here without a method call.  A process that wants to look at the
        simulation at time ``t`` sleeps until ``t`` and reads it, as the
        telemetry sampler does.
        """
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        heap = self._heap
        time = self.now
        while True:
            while ready:
                item = popleft()
                # Inlined dispatch: the single hottest loop in the
                # repo.  The ``_sleeping`` load doubles as the item
                # discriminator — every Event carries the attribute
                # (False as a class default), deferred callables lack
                # it, and since process bootstrap rides the sleep lane,
                # callables are rare enough that the exception path
                # costs nothing in aggregate.
                try:
                    sleeping = item._sleeping
                except AttributeError:
                    item()
                    continue
                if sleeping:
                    # A process parked by `yield env.sleep(d)`: resume
                    # the generator right here — no event dispatch, no
                    # callbacks, no _step frame.  The flag stays set
                    # while the slice runs so a re-sleep costs zero
                    # flag writes; every exit that is *not* another
                    # sleep clears it.  Kept in lockstep with
                    # Process._step's float lane.
                    try:
                        target = item._send(None)
                    except BaseException as error:
                        item._sleeping = False
                        item._finish(error)
                        continue
                    if target.__class__ is float:
                        if target > 0:
                            self._sequence = sequence = self._sequence + 1
                            heappush(heap, (time + target, sequence, item))
                        elif target == 0:
                            append(item)
                        else:
                            item._sleeping = False
                            raise SimulationError(
                                f"process {item.name!r} yielded a "
                                f"negative delay: {target!r}"
                            )
                    else:
                        item._sleeping = False
                        item._wait_on(target)
                    continue
                item._triggered = True
                item._dispatched = True
                callbacks = item._callbacks
                if callbacks is not None:
                    item._callbacks = None
                    for callback in callbacks:
                        callback(item)
            # Ready drained: advance the clock to the heap's minimum and
            # move the whole batch of entries due at that instant to the
            # ready deque, in sequence order.  Dispatch order is
            # identical to popping one at a time: anything a batch
            # member schedules at ``now`` appends *behind* the batch,
            # exactly where its later sequence number would have put it.
            if not heap:
                return
            entry = heappop(heap)
            time = entry[0]
            self.now = time
            append(entry[2])
            while heap and heap[0][0] == time:
                append(heappop(heap)[2])

    # -- introspection ------------------------------------------------------
    def pending(self) -> bool:
        """True while any ready item or heap entry is outstanding."""
        return bool(self._ready or self._heap)

    def stats(self) -> dict:
        """Kernel self-statistics: cheap, read-only, canonical keys.

        ``sequence`` counts heap entries ever scheduled — a proxy for
        event volume that the time-series sampler differentiates into
        events/interval; ``ready`` and ``scheduled`` are the ready-deque
        and heap lengths at the instant of the call.
        """
        return {
            "now": self.now,
            "sequence": self._sequence,
            "ready": len(self._ready),
            "scheduled": len(self._heap),
        }
