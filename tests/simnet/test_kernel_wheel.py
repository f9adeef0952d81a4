"""Calendar-queue scheduler vs a reference heapq model.

The kernel's two-tier scheduler (ready deque + calendar-queue wheel)
promises exactly the ordering a classic ``(time, sequence)`` binary heap
would produce.  These tests hold it to that promise:

* a hypothesis property drives both the kernel and a plain-``heapq``
  replay of its scheduling discipline over random sleep plans whose
  delays span six orders of magnitude — so timers cross bucket
  boundaries, land in the overflow list, and force re-epochs with fresh
  bucket widths mid-run — and requires identical wake logs;
* a directed plan parks a population in the current bucket and then
  lands in-span pushes (the ``_hot`` heap) on the very instants the
  parked sleepers are due, through every dequeue entry point;
* deterministic regressions pin the zero-delay FIFO fast path and the
  bare-float sleep lane's error handling.
"""

import heapq
import time
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.simnet.kernel import Environment, SimulationError

# Delay magnitudes from sub-bucket to far-overflow values: small deltas
# exercise the current bucket, mid-range ones the bucket array, and the
# huge ones always land in overflow and stretch the next re-epoch's
# bucket width.  The small-integer arm makes *equal* wake times across
# different processes common — quantized think times do exactly this —
# so the same-instant batch dispatch's FIFO ordering is exercised hard.
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
# The mixed plans above rarely build a non-trivial *current* bucket: a
# population has to be parked first.  Here dozens of sleepers park on
# integer instants 100..140 (so whole buckets of them get promoted) and
# each then issues short integer delays, while a few pingers tick in
# halves and wholes from time zero — every one of those pushes lands
# inside the current bucket's span, many on an instant a parked sleeper
# is due at.
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
    pre-wheel kernel produced, so equality here is the byte-identity
    argument for the calendar queue: zero-delay continuations land
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


def test_equal_time_ties_across_cur_and_hot_dispatch_in_sequence_order():
    """Parked sleepers promoted into ``_cur`` and later in-span pushes in
    ``_hot`` due at the same integer instant: the ``_cur`` group goes
    first, then the ``_hot`` group — ``(time, sequence)`` order — through
    ``run``, ``run(until=...)``, ``step`` and ``peek`` alike.

    640 sleepers park eight to an integer instant in 1000..1079 and each
    re-sleeps 1.0 twice, onto its neighbours' instants; a pinger ticks
    in halves across the whole span."""
    plans = [[1000.0 + (pid % 80), 1.0, 1.0] for pid in range(640)]
    plans.append([0.5] * 2400)
    expected = _reference_wakes(plans)

    env, log = _spawn(plans)
    env.run()
    assert log == expected

    env, log = _spawn(plans)
    horizon = 0.0
    while env.pending():
        horizon += 7.25
        assert env.run(until=horizon) == horizon
    assert log == expected

    env, log = _spawn(plans)
    cross_tier_ties = 0
    while True:
        if env._cur and env._hot and env._cur[-1][0] == env._hot[0][0]:
            cross_tier_ties += 1
        upcoming = env.peek()
        if upcoming is None:
            break
        assert env.step()
        assert log[-1][0] == upcoming == env.now
    assert not env.step()
    assert log == expected
    assert cross_tier_ties >= 80  # the scenario really straddles the tiers


def test_pending_and_stats_count_the_hot_heap():
    """An entry that lives only in ``_hot`` is still pending, counted in
    ``current_bucket`` and seen by ``peek``."""
    env = Environment()

    def proc(env):
        yield env.sleep(10.0)
        yield env.sleep(0.5)

    env.process(proc(env))
    assert env.step()  # bootstrap: parks at 10.0
    assert env.step()  # wakes at 10.0, re-sleeps inside the promoted span
    assert not env._cur and not env._ready and len(env._hot) == 1
    assert env.pending()
    assert env.stats()["current_bucket"] == 1
    assert env.peek() == 10.5
    assert env.step()
    assert not env.pending()
    assert env.stats()["current_bucket"] == 0


def _pinger_seconds_per_event(parked, pings=5_000):
    """Best-of-three host seconds per ping with ``parked`` sleepers in
    the current bucket.

    The open-loop shape: the epoch is sized while almost nothing is
    pending (an anchor at 8000 makes eight ~1000-wide buckets), *then*
    the population arrives and parks in one bucket, due in [1500, 1600).
    The pinger wakes at 1400 — that bucket is now current — and ticks
    through 50 simulated ms, timing itself; no sleeper wakes meanwhile.
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
    """Every ping lands inside the current bucket's span.  Re-sorting
    that bucket per ping made an event cost O(parked sleepers in it);
    with in-span pushes in ``_hot`` a hundredfold population costs about
    the same per event."""
    small = _pinger_seconds_per_event(200)
    large = _pinger_seconds_per_event(20_000)
    assert large < 3.0 * small, (small, large)


def test_wheel_survives_epoch_crossing_burst():
    """A dense cluster plus far-future stragglers: several re-epochs.

    The cluster picks a narrow bucket width at the first rebuild; the
    stragglers all land in overflow and must come back, in order,
    through later rebuilds with much wider buckets.
    """
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


def test_bare_negative_float_yield_fails_the_process():
    env = Environment()

    def proc(env):
        yield -1.0

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()
    del process


def test_interrupt_while_sleeping_is_an_error():
    env = Environment()

    def sleeper(env):
        yield env.sleep(100.0)

    def meddler(env, target):
        yield env.timeout(1.0)
        target.interrupt("nope")

    target = env.process(sleeper(env))
    env.process(meddler(env, target))
    with pytest.raises(SimulationError):
        env.run()
