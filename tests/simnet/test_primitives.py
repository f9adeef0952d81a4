"""Unit tests for the CPU resource."""

import pytest

from repro.simnet.primitives import Resource


def test_resource_serializes_beyond_capacity(env):
    resource = Resource(env, capacity=1)
    log = []

    def worker(env, name):
        yield from resource.use(10.0)
        log.append((env.now, name))

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert log == [(10.0, "a"), (20.0, "b")]


def test_resource_parallel_within_capacity(env):
    resource = Resource(env, capacity=2)
    log = []

    def worker(env, name):
        yield from resource.use(10.0)
        log.append((env.now, name))

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert log == [(10.0, "a"), (10.0, "b")]


def test_resource_utilization_accounting(env):
    resource = Resource(env, capacity=2)

    def worker(env):
        yield from resource.use(50.0)

    def probe(env):
        yield env.sleep(100.0)
        return resource.utilization()

    env.process(worker(env))
    reading = env.process(probe(env))
    env.run()
    # One unit busy for 50 of 100 ms over capacity 2 => 25%.
    assert reading.value == pytest.approx(0.25)


def test_resource_zero_capacity_rejected(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_released_on_exception(env):
    resource = Resource(env, capacity=1)
    log = []

    def failing(env):
        try:
            yield from resource.use(float("nan"))
        except ValueError:
            log.append(("failed", env.now))

    def check(env):
        yield from resource.use(1.0)
        log.append(("held", env.now))

    env.process(failing(env))
    env.process(check(env))
    env.run()
    # The failed hold gave its unit back at once: the next one never waited.
    assert log == [("failed", 0.0), ("held", 1.0)]
    assert resource._busy == 0


@pytest.mark.parametrize("duration", [float("inf"), float("nan"), -1.0])
def test_resource_rejects_a_hold_that_is_negative_or_not_finite(env, duration):
    resource = Resource(env, capacity=1)
    hold = resource.use(duration)
    with pytest.raises(ValueError, match="finite and non-negative"):
        next(hold)
    assert resource._busy == 0 and resource._free == 1
