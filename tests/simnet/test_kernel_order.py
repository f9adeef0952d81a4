"""Kernel dispatch order vs a reference heapq model.

The kernel's scheduler (a FIFO ready deque plus one ``(time, sequence)``
heap, drained one same-instant batch at a time) promises exactly the
ordering a classic ``(time, sequence)`` binary heap replayed one entry
at a time would produce.  These tests hold it to that promise:

* hypothesis properties drive both the kernel and a plain-``heapq``
  replay of the seed kernel's scheduling discipline over random sleep
  plans whose delays span eleven orders of magnitude, and over plans
  that park a population and then land short pushes on the very
  instants the parked sleepers are due, and require identical wake
  logs — through ``Environment.run``, the kernel's one dequeue;
* a directed plan does the same with 640 parked sleepers and a pinger;
* deterministic regressions pin the zero-delay FIFO fast path, the
  bare-float sleep lane's error handling and the eager rejection of
  delays that are negative or not finite.
"""

import heapq
import time
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simnet.kernel import Environment, SimulationError

# Delay magnitudes from a microsecond to a day: near-term timers mix
# with far-future ones in the same heap.  The small-integer arm makes
# *equal* wake times across different processes common — quantized
# think times do exactly this — so the same-instant batch dispatch's
# FIFO ordering is exercised hard.
_delay = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=8).map(float),
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    st.floats(min_value=10.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=1e4, max_value=1e8, allow_nan=False),
)
_mixed_plans = st.lists(
    st.lists(_delay, min_size=0, max_size=12), min_size=1, max_size=24
)
# The mixed plans above rarely park a population first.  Here dozens of
# sleepers park on integer instants 100..140 and each then issues short
# integer delays, while a few pingers tick in halves and wholes from
# time zero — many of those pushes land on an instant a parked sleeper
# is due at, so equal-time entries pushed far apart in sequence meet in
# one batch.
_parked = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=1, max_value=4).map(float), max_size=4),
).map(lambda plan: [100.0 + plan[0]] + plan[1])
_pinger = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=20, max_size=120)
_parked_plans = st.tuples(
    st.lists(_parked, min_size=40, max_size=160),
    st.lists(_pinger, min_size=1, max_size=3),
).map(lambda groups: groups[0] + groups[1])
_plans = st.one_of(_mixed_plans, _parked_plans)


def _reference_wakes(plans):
    """Replay the seed kernel's scheduling discipline on a plain heapq.

    Process bootstrap is a FIFO deque; every sleep — zero-delay
    included — is a ``(time, sequence, process)`` heap entry with the
    sequence assigned at push time.  This is exactly the ordering the
    seed kernel produced, so equality here is the byte-identity
    argument for the ready deque and the batch dequeue: zero-delay
    continuations land
    *behind* timers already due at the same instant, because those
    timers carry earlier sequence numbers.
    """
    ready = deque(range(len(plans)))
    positions = [0] * len(plans)
    heap = []
    sequence = 0
    now = 0.0
    log = []
    while ready or heap:
        if ready:
            pid = ready.popleft()
        else:
            now, _, pid = heapq.heappop(heap)
        log.append((now, pid))
        position = positions[pid]
        if position >= len(plans[pid]):
            continue
        positions[pid] += 1
        delay = plans[pid][position]
        sequence += 1
        heapq.heappush(heap, (now + delay, sequence, pid))
    return log


def _spawn(plans, use_timeout=False):
    """An environment with one logging process per plan, not yet run."""
    env = Environment()
    log = []

    def proc(env, pid, delays):
        log.append((env.now, pid))
        for delay in delays:
            if use_timeout:
                yield env.timeout(delay)
            else:
                yield env.sleep(delay)
            log.append((env.now, pid))

    for pid, delays in enumerate(plans):
        env.process(proc(env, pid, delays))
    return env, log


def _kernel_wakes(plans, use_timeout):
    env, log = _spawn(plans, use_timeout)
    env.run()
    return log


@given(plans=_plans)
@settings(max_examples=120, deadline=None)
def test_sleep_lane_matches_heapq_reference(plans):
    assert _kernel_wakes(plans, use_timeout=False) == _reference_wakes(plans)


@given(plans=_plans)
@settings(max_examples=120, deadline=None)
def test_timeout_events_match_heapq_reference(plans):
    assert _kernel_wakes(plans, use_timeout=True) == _reference_wakes(plans)


def test_parked_sleepers_and_a_pinger_match_heapq_reference():
    """640 sleepers park eight to an integer instant in 1000..1079 and
    each re-sleeps 1.0 twice, onto its neighbours' instants; a pinger
    ticks in halves across the whole span.  Entries pushed long apart
    meet at the same instant, and dispatch in ``(time, sequence)``
    order."""
    plans = [[1000.0 + (pid % 80), 1.0, 1.0] for pid in range(640)]
    plans.append([0.5] * 2400)
    assert _kernel_wakes(plans, use_timeout=False) == _reference_wakes(plans)


def test_pending_and_stats_count_scheduled_entries():
    """An entry in the heap is pending and counted in ``scheduled``;
    a ready item is counted in ``ready``.  A probe process reads both at
    its own wake times, as the telemetry sampler does."""
    env = Environment()
    seen = []

    def sleeper(env):
        yield env.sleep(0.5)

    def probe(env):
        yield env.sleep(10.0)
        env.process(sleeper(env))
        stats = env.stats()
        seen.append((env.pending(), stats["ready"], stats["scheduled"]))
        yield env.sleep(0.0)  # the sleeper's bootstrap runs first
        stats = env.stats()
        seen.append((env.pending(), stats["ready"], stats["scheduled"]))
        yield env.sleep(1.0)
        stats = env.stats()
        seen.append((env.pending(), stats["ready"], stats["scheduled"]))

    env.process(probe(env))
    env.run()
    assert seen == [(True, 1, 0), (True, 0, 1), (False, 0, 0)]
    assert env.now == 11.0
    assert env.stats() == {"now": 11.0, "sequence": 3, "ready": 0, "scheduled": 0}


def _pinger_seconds_per_event(parked, pings=5_000):
    """Best-of-three host seconds per ping with ``parked`` sleepers
    pending.

    The open-loop shape: an anchor is pending at 8000 while almost
    nothing else is, *then* the population arrives and parks, due in
    [1500, 1600).  The pinger wakes at 1400 and ticks through 50
    simulated ms, timing itself; no sleeper wakes meanwhile.
    """
    elapsed = []

    def sleeper(env, delay):
        yield env.sleep(delay)

    def spawner(env):
        yield env.sleep(1.0)
        for index in range(parked):
            env.process(sleeper(env, 1500.0 + 100.0 * index / parked))

    def pinger(env):
        yield env.sleep(1400.0)
        started = time.perf_counter()
        for _ in range(pings):
            yield env.sleep(0.01)
        elapsed.append(time.perf_counter() - started)

    for _ in range(3):
        env = Environment()
        env.process(sleeper(env, 8000.0))
        env.process(spawner(env))
        env.process(pinger(env))
        env.run()
    return min(elapsed) / pings


@pytest.mark.slow
def test_per_event_cost_does_not_grow_with_the_parked_population():
    """Every ping lands just ahead of the parked population.  A
    scheduler that re-sorted the parked entries per ping would make an
    event cost O(parked sleepers); a heap push and pop cost O(log n), so
    a hundredfold population costs about the same per event."""
    small = _pinger_seconds_per_event(200)
    large = _pinger_seconds_per_event(20_000)
    assert large < 3.0 * small, (small, large)


def test_clustered_and_far_future_entries_fire_in_order():
    """A dense cluster 1 ms apart in thousandths plus stragglers up to
    500 s out: every entry fires at its own time, in time order."""
    env = Environment()
    fired = []

    def one(env, delay):
        yield env.sleep(delay)
        fired.append((env.now, delay))

    delays = [1.0 + 0.001 * i for i in range(500)]
    delays += [10_000.0 * (i + 1) for i in range(50)]
    for delay in delays:
        env.process(one(env, delay))
    env.run()
    assert [d for _, d in fired] == sorted(delays)
    assert env.now == max(delays)


def test_zero_delay_timeouts_dispatch_fifo():
    """Satellite regression: zero-delay Timeouts keep strict FIFO order."""
    env = Environment()
    order = []

    def proc(env, pid):
        yield env.timeout(0)
        order.append(pid)

    for pid in range(16):
        env.process(proc(env, pid))
    env.run()
    assert order == list(range(16))


def test_same_instant_wakes_then_zero_sleeps_keep_fifo():
    """Same-timestamp batch dispatch preserves schedule order, and the
    zero-delay continuations run after the batch, still in order."""
    env = Environment()
    order = []

    def proc(env, pid):
        yield env.sleep(5.0)
        order.append(("wake", pid))
        yield env.sleep(0.0)
        order.append(("zero", pid))

    for pid in range(8):
        env.process(proc(env, pid))
    env.run()
    expected = [("wake", pid) for pid in range(8)]
    expected += [("zero", pid) for pid in range(8)]
    assert order == expected


def test_sleep_rejects_negative_delay_eagerly():
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-1.0)


@pytest.mark.parametrize("delay", [float("inf"), float("-inf"), float("nan")])
def test_sleep_and_timeout_reject_non_finite_delays(delay):
    """An infinite wake time would resume a process at ``t = inf`` and a
    NaN one compares false with every time: both are refused at the
    call."""
    env = Environment()
    with pytest.raises(ValueError, match="finite and non-negative"):
        env.sleep(delay)
    with pytest.raises(ValueError, match="finite and non-negative"):
        env.timeout(delay)
    assert not env.pending()


def test_bare_negative_float_yield_fails_the_process():
    env = Environment()

    def proc(env):
        yield -1.0

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()
    del process
