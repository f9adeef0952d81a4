"""Unit tests for one link direction of the emulated router (``Hop``)."""

import pytest

from repro.simnet.router import Hop
from tests.helpers import run_process


def cross(env, hop, size, kind="data"):
    """Send one message across ``hop``; returns the arrival time."""

    def proc():
        delay = hop.cross(size, kind)
        if delay > 0:
            yield delay
        return env.now

    return run_process(env, proc())


def test_fixed_delay_adds_latency(env):
    hop = Hop(env, bandwidth=1e12, delay=100.0)
    assert cross(env, hop, 0) == 100.0


def test_fixed_delay_zero_is_free(env):
    hop = Hop(env, bandwidth=1000.0, delay=0.0)
    assert cross(env, hop, 0) == 0.0


def test_fixed_delay_rejects_negative(env):
    with pytest.raises(ValueError):
        Hop(env, bandwidth=1000.0, delay=-1.0)


def test_bandwidth_shaper_transmission_time(env):
    hop = Hop(env, bandwidth=1000.0, delay=0.0)  # bytes/ms
    assert cross(env, hop, 5000) == pytest.approx(5.0)


def test_bandwidth_shaper_serializes_packets(env):
    hop = Hop(env, bandwidth=1000.0, delay=2.0)
    finish_times = []

    def sender(size):
        yield hop.cross(size, "data")
        finish_times.append(env.now)

    env.process(sender(5000))
    env.process(sender(5000))
    env.run()
    # The second message queues behind the first for the port, not for
    # the propagation delay.
    assert finish_times == [pytest.approx(7.0), pytest.approx(12.0)]


def test_bandwidth_shaper_rejects_zero(env):
    with pytest.raises(ValueError):
        Hop(env, bandwidth=0.0, delay=1.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_hop_rejects_a_non_finite_bandwidth_or_delay(env, value):
    with pytest.raises(ValueError, match="finite"):
        Hop(env, bandwidth=value, delay=1.0)
    with pytest.raises(ValueError, match="finite"):
        Hop(env, bandwidth=1000.0, delay=value)


def test_counter_counts_packets_and_bytes(env):
    hop = Hop(env, bandwidth=1000.0, delay=1.0)
    hop.cross(700, "rmi")
    hop.cross(300, "http")
    hop.cross(100, "rmi")
    assert hop.packets == 3
    assert hop.bytes == 1100
    assert hop.by_kind == {"rmi": [2, 800], "http": [1, 300]}


def test_hop_composes_transmission_and_propagation(env):
    hop = Hop(env, bandwidth=1000.0, delay=100.0)
    assert cross(env, hop, 5000) == pytest.approx(105.0)


def test_hop_queueing_wait_comes_first_in_the_sum(env):
    """``(wait + tx) + delay``, left to right: the float order is the model."""
    hop = Hop(env, bandwidth=3.0, delay=0.1)
    hop.cross(1, "data")
    wait = hop._free_at - env.now
    assert hop.cross(1, "data") == (wait + 1 / 3.0) + 0.1


def test_link_directions_are_independent(env, network):
    link = network.link_between("a", "b")
    forward, backward = link.hop("a", "b"), link.hop("b", "a")
    assert forward is not backward
    first = forward.cross(50_000, "http")
    # A saturated a->b port does not delay b->a traffic.
    assert backward.cross(50_000, "http") == first
    assert (forward.packets, backward.packets) == (1, 1)


def test_utilization_excludes_the_pending_backlog(env):
    hop = Hop(env, bandwidth=1000.0, delay=0.0)

    def proc():
        yield 10.0
        hop.cross(5000, "data")  # transmits over [10, 15)
        yield 2.0
        during = hop.utilization()
        yield 8.0
        return during, hop.utilization()

    assert hop.utilization() == 0.0
    during, after = run_process(env, proc())
    assert during == pytest.approx(2.0 / 12.0)
    assert after == pytest.approx(5.0 / 20.0)
