"""Unit tests for connections and connection pools."""

import pytest

from repro.simnet.transport import Connection, ConnectionPool, TransportError
from tests.helpers import run_process


def _noop_handler(env, work=0.0):
    def handler():
        if work:
            yield env.timeout(work)
        return "result"

    return handler


def test_open_costs_one_round_trip(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.open()
        return env.now

    # SYN (64B) + SYN-ACK (64B): two one-way trips of ~5 ms latency each.
    finished = run_process(env, proc())
    assert finished == pytest.approx(2 * 5.0, abs=0.5)
    assert connection.is_open


def test_double_open_rejected(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.open()
        yield from connection.open()

    with pytest.raises(TransportError):
        run_process(env, proc())


def test_request_on_closed_connection_rejected(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.request(100, _noop_handler(env), response_size=100)

    with pytest.raises(TransportError):
        run_process(env, proc())


def test_request_round_trip_and_handler(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.open()
        start = env.now
        result = yield from connection.request(
            1000, _noop_handler(env, work=3.0), response_size=1000
        )
        return result, env.now - start

    result, elapsed = run_process(env, proc())
    assert result == "result"
    # one round trip (2 x 5 ms) + handler 3 ms + transmission.
    assert elapsed == pytest.approx(13.0, abs=0.5)


def test_response_size_of_uses_result(env, network):
    connection = Connection(network, "a", "b")
    seen = {}

    def proc():
        yield from connection.open()
        yield from connection.request(
            100,
            _noop_handler(env),
            response_size_of=lambda r: seen.setdefault("size", 2048) and 2048,
        )

    run_process(env, proc())
    assert seen["size"] == 2048


def test_missing_response_size_is_an_error(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.open()
        yield from connection.request(100, _noop_handler(env))

    with pytest.raises(TransportError):
        run_process(env, proc())


def test_pool_reuses_connections(env, network):
    pool = ConnectionPool(network, kind="rmi")

    def proc():
        first = yield from pool.checkout("a", "b")
        pool.checkin(first)
        second = yield from pool.checkout("a", "b")
        pool.checkin(second)
        return first is second

    assert run_process(env, proc()) is True
    assert pool.opened == 1
    assert pool.reused == 1


def test_pool_distinguishes_pairs(env, network):
    pool = ConnectionPool(network, kind="rmi")

    def proc():
        first = yield from pool.checkout("a", "b")
        pool.checkin(first)
        other = yield from pool.checkout("b", "c")
        pool.checkin(other)
        return first is other

    assert run_process(env, proc()) is False
    assert pool.opened == 2


def test_pool_exchange_is_cheaper_when_warm(env, network):
    pool = ConnectionPool(network, kind="rmi")
    times = []

    def proc():
        for _ in range(2):
            start = env.now
            yield from pool.exchange(
                "a", "b", 500, _noop_handler(env), response_size=500
            )
            times.append(env.now - start)

    run_process(env, proc())
    assert times[1] < times[0]  # no handshake the second time


def test_pool_cap_closes_extras(env, network):
    pool = ConnectionPool(network, kind="rmi", max_per_pair=1)

    def proc():
        first = yield from pool.checkout("a", "b")
        second = yield from pool.checkout("a", "b")
        pool.checkin(first)
        pool.checkin(second)  # exceeds cap; should be closed
        return second.is_open

    assert run_process(env, proc()) is False


def test_transport_errors_name_the_pair_and_kind(env, network):
    connection = Connection(network, "a", "b", kind="rmi")

    def double_open():
        yield from connection.open()
        yield from connection.open()

    with pytest.raises(TransportError, match=r"rmi connection a->b is already open"):
        run_process(env, double_open())

    closed = Connection(network, "a", "b", kind="jdbc")

    def request_closed():
        yield from closed.request(100, _noop_handler(env), response_size=100)

    with pytest.raises(TransportError, match=r"closed jdbc connection a->b"):
        run_process(env, request_closed())


def test_no_deadline_never_times_out(env, network):
    connection = Connection(network, "a", "b")

    def proc():
        yield from connection.open()
        result = yield from connection.request(
            100, _noop_handler(env, work=10_000.0), response_size=100
        )
        return result

    assert run_process(env, proc()) == "result"


def test_pool_refuses_connections_to_down_nodes(env, network):
    from repro.simnet.transport import NodeUnavailable

    down = {"b"}
    pool = ConnectionPool(network, kind="rmi", availability=lambda node: node not in down)

    def refused():
        yield from pool.checkout("a", "b")

    with pytest.raises(NodeUnavailable, match=r"rmi connection a->b refused: node b is down"):
        run_process(env, refused())
    assert pool.refused == 1
    assert pool.opened == 0

    down.clear()

    def allowed():
        connection = yield from pool.checkout("a", "b")
        pool.checkin(connection)
        return connection.is_open

    assert run_process(env, allowed()) is True
    assert pool.opened == 1


def test_pool_reuse_after_close_opens_fresh(env, network):
    pool = ConnectionPool(network, kind="rmi")

    def proc():
        first = yield from pool.checkout("a", "b")
        first.close()
        pool.checkin(first)  # closed connections are not pooled
        second = yield from pool.checkout("a", "b")
        pool.checkin(second)
        return first is second

    assert run_process(env, proc()) is False
    assert pool.opened == 2
    assert pool.reused == 0


def test_drop_connections_to_closes_idle(env, network):
    pool = ConnectionPool(network, kind="rmi")

    def proc():
        to_b = yield from pool.checkout("a", "b")
        to_c = yield from pool.checkout("b", "c")
        pool.checkin(to_b)
        pool.checkin(to_c)
        dropped = pool.drop_connections_to("b")
        fresh = yield from pool.checkout("a", "b")
        pool.checkin(fresh)
        return dropped, to_b.is_open, to_c.is_open, fresh is to_b

    dropped, b_open, c_open, reused_dead = run_process(env, proc())
    assert dropped == 1
    assert b_open is False
    assert c_open is True  # only connections *to* b are dropped
    assert reused_dead is False


def test_pool_exchange_closes_the_connection_on_a_mid_exchange_fault(env, network):
    # A partition that opens while the handler runs fails the response
    # transfer: the socket is in an unknown state and must not be pooled.
    from repro.simnet.network import LinkDown

    pool = ConnectionPool(network, kind="http")
    link = network.link_between("a", "b")

    def partitioning_handler():
        link.set_down(True)
        return "result"
        yield  # pragma: no cover - generator form

    def proc():
        warm = yield from pool.checkout("a", "b")
        pool.checkin(warm)
        with pytest.raises(LinkDown):
            yield from pool.exchange(
                "a", "b", 500, partitioning_handler, response_size=500
            )
        link.set_down(False)
        fresh = yield from pool.checkout("a", "b")
        return warm.is_open, fresh is warm

    broken_open, broken_reused = run_process(env, proc())
    assert broken_open is False
    assert broken_reused is False
    assert pool.opened == 2
