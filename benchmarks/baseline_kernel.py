"""Frozen copy of the seed tree's simulation kernel.

This is the seed tree's ``repro.simnet.kernel`` — a single binary heap
of ``(time, sequence, item)`` entries, with per-sleep ``Timeout`` event
allocation — kept verbatim so ``bench_scale.py`` can measure the live
kernel against the exact baseline it replaced, on the same machine, in
the same process.  Do not modify it and do not import it from product
code; it exists only as a measurement yardstick.

Original module docstring follows.

Discrete-event simulation kernel.

The kernel executes *processes* — Python generator functions that yield
:class:`Event` objects — against a single global virtual clock.  It is the
substrate on which every other subsystem (network links, the database
engine, EJB containers, HTTP clients) is built.

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
  calls, zero-delay timeouts) go to a FIFO ready queue; only items with a
  strictly positive delay pay for the heap.  The run loop merges the two
  in global (time, sequence) order, so the observable execution order is
  exactly that of a single unified priority queue.

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
    "Interrupt",
    "SimulationError",
    "StopProcess",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the interrupting party's reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised internally to terminate a process early with a value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


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
        "_scheduled",
        "_dispatched",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._scheduled = False
        self._dispatched = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

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
        self._scheduled = True
        self._value = value
        env = self.env
        env._sequence = sequence = env._sequence + 1
        env._ready.append((sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._scheduled = True
        self._exception = exception
        env = self.env
        env._sequence = sequence = env._sequence + 1
        env._ready.append((sequence, self))
        return self

    # -- waiting ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been dispatched the callback runs at the
        next scheduling opportunity (still in virtual time ``now``).
        """
        if self._dispatched:
            self.env._schedule_call(partial(callback, self))
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
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ plus scheduling: timeouts are the single
        # most-allocated object in a simulation.
        self.env = env
        self._callbacks = None
        # The value is fixed now, but the event only *triggers* when the
        # kernel dispatches it at now+delay (AnyOf/AllOf rely on this).
        self._value = value
        self._exception = None
        self._triggered = False
        self._scheduled = True
        self._dispatched = False
        self.delay = delay
        env._sequence = sequence = env._sequence + 1
        if delay == 0.0:
            env._ready.append((sequence, self))
        else:
            heappush(env._heap, (env._now + delay, sequence, self))


class Process(Event):
    """A running generator.  Also an event that fires when the generator ends.

    The process event's value is the generator's return value; if the
    generator raises, the process event fails with that exception (unless a
    waiter is present, failures propagate and crash the simulation — errors
    should never pass silently).
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send", "_throw", "_interrupts")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() requires a generator; got %r. Did you forget to "
                "call the generator function?" % (generator,)
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._send = generator.send
        self._throw = generator.throw
        self._interrupts: Optional[List[Interrupt]] = None
        # Bootstrap: start the generator at the current simulation time.
        env._schedule_call(self._resume_initial)

    def _resume_initial(self) -> None:
        self._step(None, None)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None:
            # Stop listening to whatever we were waiting on.
            callbacks = target._callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._on_event)
                except ValueError:
                    pass
            self._waiting_on = None
        if self._interrupts is None:
            self._interrupts = []
        self._interrupts.append(Interrupt(cause))
        self.env._schedule_call(self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        self._step(None, self._interrupts.pop(0))

    # -- stepping machinery ----------------------------------------------
    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        exception = event._exception
        if exception is not None:
            self._step(None, exception)
        else:
            self._step(event._value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except StopProcess as stop:
            self.generator.close()
            self.succeed(stop.value)
            return
        except BaseException as error:
            if self._callbacks:
                self.fail(error)
            else:
                # No waiter to deliver the failure to: crash loudly.
                raise
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (use env.timeout / env.process / ...)"
            )
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._waiting_on = target
        # Inlined add_callback: this registration runs once per kernel step.
        if target._dispatched:
            self.env._schedule_call(partial(self._on_event, target))
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
            event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self.events)
            if event._triggered and event._exception is None
        }

    def _check(self, event: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


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
    """The simulation world: a clock, a ready queue, and a pending heap.

    Items due at the current instant live in ``_ready`` (a FIFO deque of
    ``(sequence, item)`` pairs); items due strictly later live in
    ``_heap`` as ``(time, sequence, item)`` triples.  An *item* is either
    an :class:`Event` to dispatch or a zero-argument callable.  Sequence
    numbers are assigned globally, so merging the two queues in
    ``(time, sequence)`` order reproduces exactly the behaviour of one
    unified priority queue.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List[tuple] = []
        self._ready: deque = deque()
        self._sequence = 0
        self._active = True

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._sequence = sequence = self._sequence + 1
        if delay == 0.0:
            self._ready.append((sequence, event))
        else:
            heappush(self._heap, (self._now + delay, sequence, event))

    def _schedule_call(self, func: Callable[[], None], delay: float = 0.0) -> None:
        self._sequence = sequence = self._sequence + 1
        if delay == 0.0:
            self._ready.append((sequence, func))
        else:
            heappush(self._heap, (self._now + delay, sequence, func))

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until both queues drain or the clock passes ``until``.

        Returns the final simulation time.  Events scheduled exactly at
        ``until`` still execute.
        """
        heap = self._heap
        ready = self._ready
        while True:
            if ready:
                # Heap entries landing exactly *now* with an older sequence
                # number must run before younger ready entries.
                if heap and heap[0][0] == self._now and heap[0][1] < ready[0][0]:
                    item = heappop(heap)[2]
                else:
                    item = ready.popleft()[1]
            elif heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self._now = until
                    return until
                item = heappop(heap)[2]
                self._now = time
            else:
                break
            if isinstance(item, Event):
                # Inlined dispatch: the single hottest loop in the repo.
                item._triggered = True
                item._dispatched = True
                callbacks = item._callbacks
                if callbacks is not None:
                    item._callbacks = None
                    for callback in callbacks:
                        callback(item)
            else:
                item()
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def step(self) -> bool:
        """Execute one scheduled item.  Returns False if nothing is pending."""
        heap = self._heap
        ready = self._ready
        if ready:
            if heap and heap[0][0] == self._now and heap[0][1] < ready[0][0]:
                item = heappop(heap)[2]
            else:
                item = ready.popleft()[1]
        elif heap:
            time, _sequence, item = heappop(heap)
            self._now = time
        else:
            return False
        if isinstance(item, Event):
            self._dispatch(item)
        else:
            item()
        return True

    def peek(self) -> Optional[float]:
        """Time of the next scheduled item, or None if nothing is pending."""
        if self._ready:
            return self._now
        return self._heap[0][0] if self._heap else None

    def _dispatch(self, event: Event) -> None:
        event._triggered = True
        event._dispatched = True
        callbacks = event._callbacks
        if callbacks is not None:
            event._callbacks = None
            for callback in callbacks:
                callback(event)
