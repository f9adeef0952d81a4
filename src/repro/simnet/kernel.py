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
  strictly later live in a calendar-queue timer wheel (see below).  When
  the ready deque drains, the clock advances to the wheel's minimum and
  **every** entry due at that instant is moved to the deque in one batch.
  Because future entries are always scheduled at ``now + delay`` with
  ``delay > 0``, nothing can land *at* the current instant afterwards, so
  the deque's FIFO order alone reproduces global ``(time, sequence)``
  order — no per-pop merge between the two tiers is needed.

The timer wheel
---------------

``heapq`` costs O(log n) per operation and, far worse at scale, keeps a
single n-entry array that every push/pop churns — at 10^5..10^6 pending
timers the comparisons and cache misses dominate the whole simulation.
The wheel replaces it with an epoch-based calendar queue:

* ``_cur`` — the *current bucket*: a list of ``(time, seq, item)``
  entries sorted **once**, when the bucket is promoted, in descending
  time so its minimum is ``_cur[-1]`` and removal is an O(1)
  ``list.pop()``.  Nothing is ever inserted into it afterwards.
* ``_hot`` — a small binary heap (``heapq``) of the same triples for
  pushes that land *below* ``_cur_top`` after the promotion: LAN hops,
  CPU charges and sub-second sleeps, ~95% of all pushes in the full
  stack.  The dequeue takes the smaller of ``_cur[-1]`` and
  ``_hot[0]``, so an event costs O(log |_hot|) — the handful of
  near-term timers in flight — however many sleepers are parked in
  ``_cur``.  (Appending such pushes to ``_cur`` and re-sorting it
  lazily would cost O(|_cur|) per event instead: one in-span push
  between two dequeues dirties the whole bucket.)
* ``_buckets`` — equal-width future buckets whose exclusive upper edges
  are precomputed in ``_bounds`` (ascending); appends are O(1) with a
  single C ``bisect_right`` to route, and a bucket is sorted only once,
  when it is promoted to become the current bucket.
* ``_overflow`` — an unsorted spill list for entries beyond ``_limit``.
  When every bucket has been consumed the wheel *re-epochs*: the
  overflow is sorted **once** (C timsort — adaptive, since the previous
  epoch's tail is already ordered) and carved into fresh buckets by
  binary-search slicing, so re-epoching does no per-entry Python work
  at all.  The new width is derived from the exact 87.5th-percentile
  span of the pending set (automatic bucket-width resizing), so both
  uniform and heavy-tailed delay distributions get O(1) amortized
  scheduling.

Invariants (each proves the dequeue order correct): every ``_cur`` and
``_hot`` entry has ``time < _cur_top``; bucket ``i`` holds
``_bounds[i-1] <= time < _bounds[i]`` with ``i >= _idx``; overflow
entries have ``time >= _limit == _bounds[-1]``; hence the global minimum
is always ``_cur[-1]`` or ``_hot[0]``, and a bucket is promoted only
when both are empty.  Two entries with equal time can sit in different
tiers only as ``_cur`` and ``_hot``, and there the order is fixed:
``_cur_top`` never decreases, so a ``_hot`` entry due at ``t`` was
pushed when ``t`` was already below ``_cur_top`` — after the bucket
covering ``t`` was promoted, hence after every ``_cur`` entry due at
``t`` was pushed.  At equal times every ``_cur`` entry therefore has a
lower sequence than every ``_hot`` entry: drain the ``_cur`` group, then
the ``_hot`` group (the heap orders that one by sequence itself).
Rebuild slicing and push routing share the *same* boundary floats
(``_bounds``), so an entry can never straddle the two rules.

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

from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter
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


# Sort/bisect key for wheel entries (C-speed single-float comparisons).
_entry_time = itemgetter(0)
_entry_item = itemgetter(2)

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
            # Due this very instant: the ready deque, not the wheel.
            env._ready.append(self)
        else:
            # Wheel push: the same routing as Process._step's float lane
            # and the run loop's sleep lane.
            time = env.now + delay
            env._sequence = sequence = env._sequence + 1
            if time < env._cur_top:
                heappush(env._hot, (time, sequence, self))
            elif time < env._limit:
                index = bisect_right(env._bounds, time)
                if index < env._idx:
                    index = env._idx
                env._buckets[index].append((time, sequence, self))
            else:
                env._overflow.append((time, sequence, self))


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
        "_throw",
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
        self._throw = generator.throw
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
                target = self._throw(exc)
            else:
                target = self._send(value)
        except BaseException as error:
            self._finish(error)
            return
        if target.__class__ is float:
            # Pure-delay fast lane (`yield env.sleep(d)` / a bare float —
            # ints stay errors, they are the classic yielded-a-non-event
            # bug): no Event object, no callback list, no dispatch — the
            # process itself is the wheel entry (one tuple) or the ready
            # item (nothing at all); the run loop recognises a sleeping
            # process by its ``_sleeping`` flag and resumes it directly.
            env = self.env
            if target > 0:
                self._sleeping = True
                # Wheel push: the same routing as Timeout and the run
                # loop's sleep lane.
                time = env.now + target
                env._sequence = sequence = env._sequence + 1
                if time < env._cur_top:
                    heappush(env._hot, (time, sequence, self))
                elif time < env._limit:
                    index = bisect_right(env._bounds, time)
                    if index < env._idx:
                        index = env._idx
                    env._buckets[index].append((time, sequence, self))
                else:
                    env._overflow.append((time, sequence, self))
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
    """The simulation world: a clock, a ready deque, and a timer wheel.

    Items due at the current instant live in ``_ready`` (a FIFO deque of
    bare items); items due strictly later live in the calendar-queue
    wheel as ``(time, sequence, item)`` triples (see the module
    docstring).  An *item* is either an :class:`Event` to dispatch or a
    zero-argument callable.  Whenever the clock advances, every wheel
    entry due at the new instant moves to the deque in one batch —
    future entries are always strictly later than ``now``, so deque FIFO
    order alone equals global ``(time, sequence)`` order.

    ``now`` — the current simulated time in milliseconds — is a plain
    slot the dequeue writes, not a property: every layer above reads the
    clock several times per message, and an attribute load costs no
    Python call.  Only this module assigns it.
    """

    __slots__ = (
        "now",
        "_ready",
        "_sequence",
        "_cur",
        "_hot",
        "_cur_top",
        "_buckets",
        "_bounds",
        "_idx",
        "_limit",
        "_overflow",
    )

    def __init__(self):
        self.now = 0.0
        self._ready: deque = deque()
        self._sequence = 0
        # -- timer-wheel state (see module docstring) ---------------------
        self._cur: List[tuple] = []  # descending (time, seq, item) stack
        self._hot: List[tuple] = []  # heapq of pushes below _cur_top
        self._cur_top = 0.0  # exclusive upper bound of _cur's and _hot's span
        self._buckets: List[List[tuple]] = []
        self._bounds: List[float] = []  # bucket i's exclusive upper edge
        self._idx = 0  # next bucket to promote
        self._limit = 0.0  # == _bounds[-1] once an epoch exists
        self._overflow: List[tuple] = []  # unsorted, time >= _limit
        # With _cur_top == _limit == now, the first pushes spill to the
        # overflow list and the first dequeue re-epochs with a width fit
        # to the actual pending set.

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

    # -- dequeue -----------------------------------------------------------
    def _wheel_min(self) -> Optional[tuple]:
        """An entry due at the wheel's minimum time, or None if empty.

        The minimum is ``_cur[-1]`` or ``_hot[0]``; only when both are
        empty does this promote the next bucket (or re-epoch the
        overflow).  Never touches the clock.  Promotion sorts the new
        ``_cur`` — the only sort it ever gets — with a *stable*
        descending sort on the time alone (~3x faster than whole-tuple
        comparisons), so entries due at the same instant sit in
        ascending-sequence order left to right — push order, because
        buckets are appended to in sequence order.  ``run`` therefore
        takes an equal-time ``_cur`` group from its *left* edge, and any
        ``_hot`` entries due at that instant after it; the entry
        returned here is only guaranteed minimal in time.
        """
        cur = self._cur
        hot = self._hot
        while True:
            if hot:
                if cur and cur[-1][0] <= hot[0][0]:
                    return cur[-1]
                return hot[0]
            if cur:
                return cur[-1]
            buckets = self._buckets
            index = self._idx
            count = len(buckets)
            while index < count and not buckets[index]:
                index += 1
            if index < count:
                # Promote the next non-empty bucket to current.  A bucket
                # untouched since the rebuild is already ascending, so
                # the reverse sort is an O(k) single-run pass.
                cur = buckets[index]
                buckets[index] = []
                self._cur = cur
                self._idx = index + 1
                self._cur_top = self._bounds[index]
                cur.sort(key=_entry_time, reverse=True)
                continue
            # Every bucket consumed: pushes below _limit now belong in
            # _hot (keep the routing invariant before re-epoching).
            self._idx = count
            self._cur_top = self._limit
            if not self._overflow:
                return None
            self._rebuild()
            cur = self._cur

    def _rebuild(self) -> None:
        """Re-epoch: sort the overflow once and slice it into buckets.

        The sort is C timsort — adaptive, because everything the last
        epoch could not place is appended behind an already-ordered
        tail — and the per-bucket carve is a binary search plus a list
        slice, so the rebuild does **no per-entry Python work**.  The
        epoch is sized automatically: ~256 entries per bucket, with the
        width derived from the exact 87.5th-percentile span of the
        pending set so a few far-future stragglers cannot stretch every
        bucket into uselessness — they simply stay in the overflow.
        Push routing reuses the very same ``_bounds`` floats the slicer
        used, so the two can never disagree about an entry's bucket.
        """
        items = self._overflow
        # Stable sort on the time alone == (time, sequence) order, because
        # overflow entries are appended in sequence order (and a previous
        # epoch's leftover prefix is both already sorted and lower-sequence
        # than everything appended after it).  The single-float key sorts
        # ~3x faster than whole-tuple comparisons at 10^6 entries.
        items.sort(key=_entry_time)
        n = len(items)
        lo = items[0][0]
        hi = items[(7 * n) // 8][0]
        buckets_wanted = n // 256
        count = 8
        while count < buckets_wanted and count < (1 << 16):
            count <<= 1
        span = hi - lo
        width = span / count if span > 0.0 else 1.0
        self._bounds = bounds = [lo + (i + 1) * width for i in range(count)]
        self._limit = limit = bounds[-1]
        self._idx = 0
        self._cur_top = lo
        # A 1-tuple compares below every real entry with the same time,
        # so bisecting on (boundary,) keeps boundary-equal entries in
        # the later bucket — exactly matching push routing's `<`.
        split = bisect_left(items, (limit,))
        self._overflow = items[split:]
        buckets = []
        start = 0
        for boundary in bounds:
            end = bisect_left(items, (boundary,), start, split)
            buckets.append(items[start:end])
            start = end
        self._buckets = buckets

    # -- execution ---------------------------------------------------------
    def run(self) -> None:
        """Dequeue and dispatch every item until nothing is pending.

        This loop is the only dequeue.  It is the workhorse under
        open-loop load — ~10^7 dispatches per million-session run — so
        the wheel dequeue is inlined here alongside the dispatch:
        cur-stack pop, hot-heap merge, and same-instant batching happen
        without a method call, and bucket promotion / re-epoch (once per
        ~256 events) goes through _wheel_min.  A process that wants to
        look at the simulation at time ``t`` sleeps until ``t`` and
        reads it, as the telemetry sampler does.
        """
        ready = self._ready
        popleft = ready.popleft
        wheel_min = self._wheel_min
        time = self.now
        # Wheel-state locals: these only change inside _wheel_min /
        # _rebuild (the dequeue side, reached through the both-empty
        # branch below), so they are refreshed there and nowhere else.
        # Pushes from foreign code (timeouts created inside a resumed
        # generator, callbacks) push onto the same _hot list object —
        # which is never replaced — or append to these same bucket /
        # overflow lists, and touch only _sequence, re-read every time.
        cur = self._cur
        hot = self._hot
        cur_top = self._cur_top
        limit = self._limit
        bounds = self._bounds
        buckets = self._buckets
        idx = self._idx
        overflow = self._overflow
        append = ready.append
        extend = ready.extend
        third = _entry_item
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
                            wake = time + target
                            self._sequence = sequence = self._sequence + 1
                            if wake < cur_top:
                                heappush(hot, (wake, sequence, item))
                            elif wake < limit:
                                index = bisect_right(bounds, wake)
                                if index < idx:
                                    index = idx
                                buckets[index].append((wake, sequence, item))
                            else:
                                overflow.append((wake, sequence, item))
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
            # Ready drained: advance the wheel to the smaller of
            # cur[-1] and hot[0].  The whole batch of entries due at
            # that timestamp moves to the ready deque — cur's group in
            # one C-level slice + map splice, so the same-instant case
            # (ms-quantized think times pile dozens of wakes on one
            # tick) never pays per-entry interpreter cost; equal-time
            # cur entries sit in ascending-sequence order left to right
            # (see _wheel_min), so the forward slice IS fifo order —
            # then hot's group, which at equal time is younger than all
            # of cur's (module docstring).  Dispatch order is identical
            # to popping one at a time: anything a batch member
            # schedules at ``now`` appends *behind* the batch, exactly
            # where its later sequence number would have put it.
            if hot:
                if not cur or hot[0][0] < cur[-1][0]:
                    entry = heappop(hot)
                    time = entry[0]
                    self.now = time
                    append(entry[2])
                    while hot and hot[0][0] == time:
                        append(heappop(hot)[2])
                    continue
            elif not cur:
                if wheel_min() is None:
                    return
                cur = self._cur
                cur_top = self._cur_top
                limit = self._limit
                bounds = self._bounds
                buckets = self._buckets
                idx = self._idx
                overflow = self._overflow
                continue
            time = cur[-1][0]
            self.now = time
            i = len(cur) - 1
            if i and cur[i - 1][0] == time:
                while i and cur[i - 1][0] == time:
                    i -= 1
                extend(map(third, cur[i:]))
                del cur[i:]
            else:
                append(cur.pop()[2])
            while hot and hot[0][0] == time:
                append(heappop(hot)[2])

    # -- introspection ------------------------------------------------------
    def pending(self) -> bool:
        """True while any ready item or wheel entry is outstanding.

        This never promotes buckets or re-epochs the overflow, so it is
        safe to call from *inside* a running process:
        the ``run`` loop's cached wheel locals stay valid.  (The
        telemetry sampler uses it to decide whether it is the only thing
        left alive — a mutating check there could swap ``_overflow`` /
        ``_buckets`` out from under the loop and lose the next push.)
        """
        if self._ready or self._cur or self._hot or self._overflow:
            return True
        for bucket in self._buckets[self._idx :]:
            if bucket:
                return True
        return False

    def stats(self) -> dict:
        """Kernel self-statistics: cheap, read-only, canonical keys.

        Safe mid-run for the same reason as :meth:`pending`.
        ``sequence`` counts wheel entries ever scheduled — a proxy for
        event volume that the time-series sampler differentiates into
        events/interval; the remaining numbers describe ready-deque and
        calendar-queue occupancy at the instant of the call
        (``current_bucket`` is everything below ``_cur_top``: the sorted
        ``_cur`` stack plus the ``_hot`` heap).
        """
        future = 0
        occupied = 0
        for bucket in self._buckets[self._idx :]:
            if bucket:
                occupied += 1
                future += len(bucket)
        return {
            "now": self.now,
            "sequence": self._sequence,
            "ready": len(self._ready),
            "current_bucket": len(self._cur) + len(self._hot),
            "future_entries": future,
            "buckets_occupied": occupied,
            "buckets_live": max(0, len(self._buckets) - self._idx),
            "overflow": len(self._overflow),
        }
