"""Unit tests for the bean base classes and how containers dispatch to them."""

import pytest

from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.descriptors import ComponentDescriptor, ComponentKind
from repro.middleware.ejb import (
    BeanError,
    EntityBean,
    StatefulSessionBean,
    StatelessSessionBean,
    business_method,
)
from repro.middleware.session import StatelessSessionContainer
from tests.helpers import run_process, tiny_system


class _Sample(StatelessSessionBean):
    def plain(self, ctx, value):
        return value * 2

    def generator(self, ctx, value):
        yield from ctx.cpu(3.0)
        return value + 1

    def delegating(self, ctx, value):
        # A plain method handing back another method's generator.
        return self.generator(ctx, value)

    def _private(self, ctx):
        return "secret"


@pytest.fixture
def sample():
    """``call(method, *args)`` through a stateless container of ``_Sample``."""
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    main = system.main
    container = StatelessSessionContainer(
        main,
        ComponentDescriptor(
            name="Sample", kind=ComponentKind.STATELESS_SESSION, impl=_Sample
        ),
    )
    ctx = InvocationContext(
        env=env,
        server=main,
        request=RequestInfo("p", "g", "s", "client-main-0"),
        costs=main.costs.variant(bean_method_base=0.0, instance_creation=0.0),
    )

    def call(method, *args):
        return run_process(env, container.invoke(ctx, method, args))

    call.env = env
    call.container = container
    return call


def test_plain_methods_are_wrapped_into_generators(sample):
    assert business_method(_Sample, "plain")[1] is False
    assert sample("plain", 21) == 42


def test_generator_methods_compose(sample):
    assert business_method(_Sample, "generator")[1] is True
    start = sample.env.now
    assert sample("generator", 5) == 6
    assert sample.env.now == start + 3.0  # the bean's cpu() wait really happened


def test_plain_methods_may_return_a_generator(sample):
    start = sample.env.now
    assert sample("delegating", 1) == 2
    assert sample.env.now == start + 3.0


def test_missing_method_raises(sample):
    # Twice: the container's per-method plan must not swallow the error.
    for _ in range(2):
        with pytest.raises(BeanError, match="_Sample has no business method 'nope'"):
            sample("nope")
    assert sample.container.invocations == 2


def test_private_methods_rejected(sample):
    for _ in range(2):
        with pytest.raises(BeanError, match="not a public"):
            sample("_private")


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
