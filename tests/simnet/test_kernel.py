"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
)


def test_clock_starts_at_zero(env):
    assert env.now == 0.0


def test_timeout_advances_clock(env):
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0]


def test_events_fire_in_time_order(env):
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append(name)

    env.process(proc(env, "late", 10.0))
    env.process(proc(env, "early", 1.0))
    env.process(proc(env, "middle", 5.0))
    env.run()
    assert log == ["early", "middle", "late"]


def test_same_time_events_fire_in_schedule_order(env):
    log = []

    def proc(env, name):
        yield env.timeout(3.0)
        log.append(name)

    for name in ("first", "second", "third"):
        env.process(proc(env, name))
    env.run()
    assert log == ["first", "second", "third"]


def test_zero_delay_timeout_runs_immediately(env):
    log = []

    def proc(env):
        yield env.timeout(0.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]


def test_negative_timeout_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value(env):
    def proc(env):
        yield env.timeout(1.0)
        return 42

    process = env.process(proc(env))
    env.run()
    assert process.value == 42


def test_yield_from_composition(env):
    def inner(env):
        yield env.timeout(2.0)
        return "inner-result"

    def outer(env):
        result = yield from inner(env)
        return result + "!"

    process = env.process(outer(env))
    env.run()
    assert process.value == "inner-result!"
    assert env.now == 2.0


def test_process_waits_on_another_process(env):
    def worker(env):
        yield env.timeout(7.0)
        return "done"

    def waiter(env):
        value = yield env.process(worker(env))
        return value

    process = env.process(waiter(env))
    env.run()
    assert process.value == "done"


def test_unhandled_process_exception_crashes_run(env):
    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_waited_on_failure_propagates_to_waiter(env):
    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner failure")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except ValueError as error:
            return f"caught: {error}"

    process = env.process(waiter(env))
    env.run()
    assert process.value == "caught: inner failure"


def test_event_succeed_delivers_value(env):
    event = env.event()
    log = []

    def waiter(env, event):
        value = yield event
        log.append(value)

    def trigger(env, event):
        yield env.timeout(3.0)
        event.succeed("payload")

    env.process(waiter(env, event))
    env.process(trigger(env, event))
    env.run()
    assert log == ["payload"]


def test_event_cannot_trigger_twice(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises(env):
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_fail_requires_exception(env):
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_any_of_fires_on_first(env):
    def proc(env):
        first = env.timeout(2.0, value="fast")
        second = env.timeout(9.0, value="slow")
        result = yield env.any_of([first, second])
        return result

    process = env.process(proc(env))
    env.run()
    assert process.value == {0: "fast"}
    # AnyOf resolved at the first event; the env continues to the second.
    assert env.now == 9.0


def test_all_of_waits_for_every_event(env):
    def proc(env):
        events = [env.timeout(delay, value=delay) for delay in (1.0, 4.0, 2.0)]
        result = yield env.all_of(events)
        return (env.now, result)

    process = env.process(proc(env))
    env.run()
    now, result = process.value
    assert now == 4.0
    assert result == {0: 1.0, 1: 4.0, 2: 2.0}


def test_all_of_empty_fires_immediately(env):
    def proc(env):
        yield env.all_of([])
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 0.0


def test_joining_a_finished_process_resumes_behind_ready_items(env):
    """A process that finished with no waiter is already dispatched: a
    later join resumes at the same instant with its return value, behind
    every item that was ready before the join."""
    log = []

    def quick(env):
        return "result"
        yield  # pragma: no cover - makes this a generator

    def bystander(env):
        log.append(("bystander", env.now))
        yield env.sleep(0.0)
        log.append(("bystander again", env.now))

    def joiner(env):
        done = env.process(quick(env))
        yield env.sleep(5.0)
        assert done.triggered
        env.process(bystander(env))
        value = yield done
        log.append(("joined", env.now, value))

    env.process(joiner(env))
    env.run()
    assert log == [
        ("bystander", 5.0),
        ("joined", 5.0, "result"),
        ("bystander again", 5.0),
    ]


def test_add_callback_after_dispatch_runs_behind_ready_items(env):
    event = env.event()
    event.succeed("v")
    log = []

    def bystander(env):
        log.append(("bystander", env.now))
        yield env.sleep(0.0)

    def late(env):
        yield env.sleep(2.0)
        env.process(bystander(env))
        event.add_callback(lambda fired: log.append(("callback", env.now, fired.value)))
        log.append(("registered", env.now))
        yield env.sleep(0.0)
        log.append(("after", env.now))

    env.process(late(env))
    env.run()
    assert log == [
        ("registered", 2.0),
        ("bystander", 2.0),
        ("callback", 2.0, "v"),
        ("after", 2.0),
    ]


def test_process_requires_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_is_an_error(env):
    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="must\\s+yield Event"):
        env.run()


def test_cross_environment_event_rejected(env):
    other = Environment()
    foreign = other.event()

    def proc(env):
        yield foreign

    env.process(proc(env))
    foreign.succeed()
    with pytest.raises(SimulationError):
        env.run()


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        log = []

        def proc(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((env.now, name))

        env.process(proc(env, "a", 1.5))
        env.process(proc(env, "b", 2.5))
        env.run()
        return log

    assert build() == build()
