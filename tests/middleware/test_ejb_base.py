"""Unit tests for the bean base classes and method dispatch helper."""

import pytest

from repro.middleware.ejb import (
    BeanError,
    EntityBean,
    StatefulSessionBean,
    StatelessSessionBean,
    run_business_method,
)
from repro.simnet.kernel import Environment
from tests.helpers import run_process


class _Sample(StatelessSessionBean):
    def plain(self, ctx, value):
        return value * 2

    def generator(self, ctx, value):
        yield ctx  # any event-like; tests drive manually
        return value + 1

    def delegating(self, ctx, value):
        # A plain method handing back another method's generator.
        return self.generator(ctx, value)

    def _private(self, ctx):
        return "secret"


def test_plain_methods_are_wrapped_into_generators(env):
    runner = run_business_method(_Sample(), "plain", None, (21,))

    def proc():
        result = yield from runner
        return result

    assert run_process(env, proc()) == 42


def test_generator_methods_compose(env):
    def proc():
        result = yield from run_business_method(
            _WaitingBean(), "wait_then", _RealCtx(env), (5,)
        )
        return result

    start = env.now
    assert run_process(env, proc()) == 6
    assert env.now == start + 3.0  # the bean's cpu() wait really happened


class _RealCtx:
    def __init__(self, env):
        self.env = env

    def cpu(self, ms):
        yield self.env.timeout(ms)


class _WaitingBean(StatelessSessionBean):
    def wait_then(self, ctx, value):
        yield from ctx.cpu(3.0)
        return value + 1


def test_plain_methods_may_return_a_generator():
    runner = run_business_method(_Sample(), "delegating", "event", (1,))
    assert next(runner) == "event"
    with pytest.raises(StopIteration) as finished:
        runner.send(None)
    assert finished.value.value == 2


def test_missing_method_raises():
    # Twice: the per-(class, method) memo must not swallow the error.
    for _ in range(2):
        with pytest.raises(BeanError, match="_Sample has no business method 'nope'"):
            run_business_method(_Sample(), "nope", None, ())


def test_private_methods_rejected():
    for _ in range(2):
        with pytest.raises(BeanError, match="not a public"):
            run_business_method(_Sample(), "_private", None, ())


# ---------------------------------------------------------------------------
# EntityBean state protocol
# ---------------------------------------------------------------------------


def _entity():
    bean = EntityBean()
    bean.primary_key = 7
    bean.state = {"a": 1, "b": "x"}
    return bean


def test_entity_get_set_field():
    bean = _entity()
    assert bean.get_field("a") == 1
    bean.set_field("a", 2)
    assert bean.get_field("a") == 2
    assert bean.is_dirty
    assert bean.dirty_fields == ("a",)


def test_entity_set_same_value_is_not_dirty():
    bean = _entity()
    bean.set_field("a", 1)
    assert not bean.is_dirty


def test_entity_unknown_field_rejected():
    bean = _entity()
    with pytest.raises(BeanError):
        bean.get_field("missing")
    with pytest.raises(BeanError):
        bean.set_field("missing", 0)


def test_entity_clear_dirty():
    bean = _entity()
    bean.set_field("b", "y")
    bean.clear_dirty()
    assert not bean.is_dirty
    assert bean.get_field("b") == "y"  # value change survives


def test_entity_get_state_returns_copy():
    bean = _entity()
    snapshot = bean.get_state(None)
    snapshot["a"] = 999
    assert bean.get_field("a") == 1


def test_stateful_bean_initial_state():
    bean = StatefulSessionBean()
    assert bean.state == {}
    assert bean.session_id is None
