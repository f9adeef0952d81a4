"""Unit tests for nodes, links, routing and transfers."""

import random

import pytest

from repro.simnet.network import NetworkError
from repro.simnet.router import PacketLoss
from tests.helpers import run_process


def test_add_duplicate_node_rejected(env, network):
    with pytest.raises(NetworkError):
        network.add_node("a")


def test_link_requires_existing_nodes(env, network):
    with pytest.raises(NetworkError):
        network.add_link("a", "zz", 1.0, 1000.0)


def test_self_link_rejected(env, network):
    with pytest.raises(NetworkError):
        network.add_link("a", "a", 1.0, 1000.0)


def test_route_is_hop_minimal(env, network):
    path = network.route("a", "c")
    assert [link.name for link in path] == ["a<->b", "b<->c"]


def test_route_unreachable_raises(env, network):
    network.add_node("island")
    with pytest.raises(NetworkError):
        network.route("a", "island")


def test_route_same_node_is_empty(env, network):
    assert network.route("a", "a") == []


def test_path_latency_sums_links(env, network):
    assert network.path_latency("a", "c") == pytest.approx(105.0)


def test_add_link_clears_the_path_latency_memo(env, network):
    assert network.path_latency("a", "c") == pytest.approx(105.0)
    network.add_link("a", "c", latency=1.0, bandwidth=10_000.0)
    assert network.path_latency("a", "c") == pytest.approx(1.0)


def test_transfer_takes_latency_plus_transmission(env, network):
    def proc():
        yield from network.transfer("a", "b", 10_000)
        return env.now

    # 10_000 bytes / 10_000 bytes-per-ms = 1 ms transmission + 5 ms latency.
    assert run_process(env, proc()) == pytest.approx(6.0)


def test_transfer_multihop_store_and_forward(env, network):
    def proc():
        yield from network.transfer("a", "c", 10_000)
        return env.now

    # Hop1: 1 + 5; hop2: 0.8 + 100.
    assert run_process(env, proc()) == pytest.approx(6.0 + 0.8 + 100.0)


def test_loopback_transfer_is_free(env, network):
    def proc():
        yield from network.transfer("a", "a", 1_000_000)
        return env.now

    assert run_process(env, proc()) == 0.0


def test_transfer_negative_size_rejected(env, network):
    def proc():
        yield from network.transfer("a", "b", -1)

    with pytest.raises(ValueError):
        run_process(env, proc())


def test_bandwidth_contention_on_shared_link(env, network):
    finish = []

    def sender(env):
        yield from network.transfer("a", "b", 10_000)
        finish.append(env.now)

    env.process(sender(env))
    env.process(sender(env))
    env.run()
    # Second transfer queues behind the first's 1 ms transmission.
    assert finish == [pytest.approx(6.0), pytest.approx(7.0)]


def test_directions_do_not_contend(env, network):
    finish = []

    def sender(env, src, dst):
        yield from network.transfer(src, dst, 10_000)
        finish.append(env.now)

    env.process(sender(env, "a", "b"))
    env.process(sender(env, "b", "a"))
    env.run()
    assert finish == [pytest.approx(6.0), pytest.approx(6.0)]


def test_traffic_report_counts_per_direction(env, network):
    def proc():
        yield from network.transfer("a", "b", 500, kind="http")
        yield from network.transfer("b", "a", 900, kind="http")

    run_process(env, proc())
    report = network.traffic_report()["a<->b"]
    assert report["a->b"] == (1, 500)
    assert report["b->a"] == (1, 900)


def test_lossy_link_drops_a_seeded_share_of_messages(env, network):
    link = network.link_between("a", "b")
    link.set_loss(0.5, random.Random(9))
    outcomes = []

    def proc():
        for _ in range(200):
            try:
                yield from network.transfer("a", "b", 100)
                outcomes.append(True)
            except PacketLoss:
                outcomes.append(False)

    run_process(env, proc())
    assert link.dropped_packets == outcomes.count(False)
    assert 60 < link.dropped_packets < 140
    # A dropped message never reached the hop: only arrivals are counted.
    assert link.hop("a", "b").packets == outcomes.count(True)
    link.clear_loss()
    assert not link.faulted


def test_a_faulted_link_crosses_its_hop_once_per_message(env, network):
    link = network.link_between("a", "b")
    link.set_latency_fault(2.0)

    def proc():
        yield from network.transfer("a", "b", 10_000, kind="rmi")
        return env.now

    # latency 5 + transmission 1 + the fault's extra 2.
    assert run_process(env, proc()) == pytest.approx(8.0)
    hop = link.hop("a", "b")
    assert (hop.packets, hop.bytes, hop.by_kind) == (1, 10_000, {"rmi": [1, 10_000]})


def test_packet_loss_names_the_message_endpoints_and_protocol(env, network):
    network.link_between("b", "c").set_loss(1.0, random.Random(1))

    def proc():
        yield from network.transfer("a", "c", 100, kind="jdbc")

    with pytest.raises(PacketLoss) as caught:
        run_process(env, proc())
    assert (caught.value.src, caught.value.dst, caught.value.kind) == ("a", "c", "jdbc")
    # The first hop was crossed before the second dropped the message.
    assert network.link_between("a", "b").hop("a", "b").packets == 1


def test_loss_probability_must_be_a_probability(env, network):
    link = network.link_between("a", "b")
    for probability in (-0.1, 1.5):
        with pytest.raises(NetworkError):
            link.set_loss(probability, random.Random(1))
    with pytest.raises(NetworkError):
        link.set_loss(0.5, None)  # draws need a seeded rng


def test_node_compute_charges_cpu(env, network):
    node = network.node("a")

    def proc():
        yield from node.compute(10.0)
        return env.now

    assert run_process(env, proc()) == 10.0


def test_node_compute_rejects_negative(env, network):
    def proc():
        yield from network.node("a").compute(-1.0)

    with pytest.raises(ValueError):
        run_process(env, proc())


def test_unknown_node_raises(env, network):
    with pytest.raises(NetworkError):
        network.node("nope")
