"""Property-based tests (hypothesis) for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import Environment
from repro.simnet.primitives import Resource

_settings = settings(max_examples=60, deadline=None)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=40))
@_settings
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=25))
@_settings
def test_all_of_resolves_at_maximum(delays):
    env = Environment()

    def proc(env):
        yield env.all_of([env.timeout(d) for d in delays])
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=25))
@_settings
def test_any_of_resolves_at_minimum(delays):
    env = Environment()
    resolved_at = []

    def proc(env):
        yield env.any_of([env.timeout(d) for d in delays])
        resolved_at.append(env.now)

    env.process(proc(env))
    env.run()
    assert resolved_at == [min(delays)]


@given(
    capacity=st.integers(min_value=1, max_value=5),
    durations=st.lists(st.floats(min_value=0.1, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20),
)
@_settings
def test_resource_total_busy_time_conserved(capacity, durations):
    """Work is neither lost nor duplicated under contention."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def worker(env, duration):
        yield from resource.use(duration)

    for duration in durations:
        env.process(worker(env, duration))
    env.run()
    busy = resource.utilization() * env.now * capacity
    assert abs(busy - sum(durations)) < 1e-6 * max(1.0, sum(durations))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_simulation_determinism_under_any_seed(seed):
    """Two identical builds produce identical event logs."""
    from repro.simnet.rng import Streams

    def build():
        env = Environment()
        streams = Streams(seed)
        log = []

        def proc(env, name):
            for _ in range(5):
                yield env.timeout(streams.uniform(name, 0.1, 10.0))
                log.append((round(env.now, 9), name))

        for name in ("a", "b", "c"):
            env.process(proc(env, name))
        env.run()
        return log

    assert build() == build()
