"""Each layer in isolation: host rate of its public calls.

One function per metric.  Each builds what the layer needs outside the
timed region, then times a fixed number of operations through the
layer's public entry point and returns ``(operations, host seconds)``.
``run_all`` repeats every function ``REPEATS`` times (interleaved, so
host drift hits all alike) and reports the median rate.

Operation counts scale with ``scale``; at scale 1.0 each timing takes
0.5-1 s on the sizing host.  These are host-time numbers: they say how
fast the simulator's layer runs, never how fast the modelled deployment
would be.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.apps import petstore, rubis
from repro.core.distribution import distribute
from repro.experiments import calibration
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.descriptors import (
    ApplicationDescriptor,
    ComponentDescriptor,
    ComponentKind,
)
from repro.middleware.ejb import StatelessSessionBean
from repro.middleware.web import WebRequest, http_get
from repro.obs.spans import SpanRecorder
from repro.rdbms import sql
from repro.rdbms.engine import Database
from repro.rdbms.jdbc import DataSource
from repro.rdbms.server import DatabaseServer
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from repro.simnet.transport import Connection
from repro.workload.openloop import TransitionMatrixPattern

REPEATS = 5
SEED = 2003

Timing = Tuple[int, float]

_clock = time.perf_counter


def _ops(full: int, scale: float) -> int:
    return max(1, int(full * scale))


def _timed_run(env: Environment) -> float:
    started = _clock()
    env.run()
    return _clock() - started


def _drive(env: Environment, body) -> float:
    """Host seconds to run one process to completion."""
    process = env.process(body)
    elapsed = _timed_run(env)
    if not process.triggered:
        raise RuntimeError("micro-benchmark process did not finish")
    return elapsed


# -- simnet -------------------------------------------------------------------

def kernel_events(scale: float) -> Timing:
    """Sleeping processes x 10 wakes: the open-loop engine's think pattern."""
    sessions, wakes = _ops(100_000, scale), 10
    env = Environment()
    rng = Streams(SEED).get("micro-think")

    def session(think: float):
        for _ in range(wakes):
            yield env.sleep(think)

    for _ in range(sessions):
        env.process(session(float(int(rng.expovariate(1.0 / 7_000.0)) + 1)))
    return sessions * (wakes + 1), _timed_run(env)


def net_transfers(scale: float) -> Timing:
    """Network.transfer client -> edge -> WAN router -> main."""
    count = _ops(60_000, scale)
    env = Environment()
    network = build_testbed(env).network

    def body():
        for _ in range(count):
            yield from network.transfer("client-edge1-0", "main", 1_000)

    return count, _drive(env, body())


def net_requests(scale: float) -> Timing:
    """Connection.open + one request/response exchange over the LAN."""
    count = _ops(40_000, scale)
    env = Environment()
    network = build_testbed(env).network

    def handler():
        return None
        yield

    def body():
        for _ in range(count):
            connection = Connection(network, "client-edge1-0", "edge1")
            yield from connection.open()
            yield from connection.request(300, handler, response_size=2_000)
            connection.close()

    return count, _drive(env, body())


# -- middleware ---------------------------------------------------------------

class _EchoBean(StatelessSessionBean):
    def ping(self, ctx):
        return None


def _echo_application() -> ApplicationDescriptor:
    app = ApplicationDescriptor(name="micro")
    app.add(
        ComponentDescriptor(
            name="Echo",
            kind=ComponentKind.STATELESS_SESSION,
            impl=_EchoBean,
            remote_interface=True,
        )
    )
    app.validate()
    return app


def _context(env: Environment, server) -> InvocationContext:
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("micro", "micro", "micro-session", "client-edge1-0"),
        costs=server.costs,
        trace=server.trace,
    )


def _rubis_system(level: int):
    """RUBiS deployed and warmed as run_configuration does it.

    Returns ``(env, system, catalog, seconds spent in distribute())``.
    """
    streams = Streams(SEED)
    database, catalog = rubis.populate_rubis(streams, None)
    env = Environment()
    testbed = build_testbed(env, calibration.rubis_testbed_config())
    application = rubis.build_application(level, catalog=catalog)
    started = _clock()
    system = distribute(
        env,
        testbed,
        application,
        level,
        database,
        costs=calibration.RUBIS_COSTS,
        db_cost_model=calibration.RUBIS_DB_COSTS,
        streams=streams,
    )
    distribute_s = _clock() - started
    system.warm_replicas()
    return env, system, catalog, distribute_s


def rmi_calls(scale: float) -> Timing:
    """RemoteRef.call across the WAN to a no-op stateless bean."""
    count = _ops(7_000, scale)
    env = Environment()
    system = distribute(
        env, build_testbed(env), _echo_application(), 2, Database("micro"),
        costs=calibration.RUBIS_COSTS,
    )
    edge = system.servers["edge1"]
    ctx = _context(env, edge)

    def body():
        ref = yield from edge.lookup(ctx, "Echo")
        if not ref.is_remote:
            raise RuntimeError("Echo resolved locally; the micro needs a RemoteRef")
        for _ in range(count):
            yield from ref.call(ctx, "ping")

    return count, _drive(env, body())


def container_invocations(scale: float) -> Timing:
    """LocalRef.call into an edge's read-only Item replica at level 5."""
    count = _ops(60_000, scale)
    env, system, catalog, _distribute_s = _rubis_system(5)
    edge = system.servers["edge1"]
    ctx = _context(env, edge)
    item_ids = catalog.item_ids

    def body():
        home = yield from edge.lookup(ctx, "RubisItem")
        if home.is_remote:
            raise RuntimeError("RubisItem resolved remotely; no replica on the edge")
        for index in range(count):
            item = home.entity(item_ids[index % len(item_ids)])
            yield from item.call(ctx, "get_bid_summary")

    return count, _drive(env, body())


def web_gets(scale: float) -> Timing:
    """http_get of the RUBiS Main page at an edge entry server."""
    count = _ops(15_000, scale)
    env, system, _catalog, _distribute_s = _rubis_system(5)
    client = "client-edge1-0"
    server = system.entry_server_for(client)

    def body():
        for index in range(count):
            request = WebRequest(
                page="Main", params={}, session_id=f"m{index}", client_node=client
            )
            yield from http_get(env, server, request, client_group="remote-browser")

    return count, _drive(env, body())


# -- rdbms --------------------------------------------------------------------

_POINT = "SELECT * FROM items WHERE id = ?"
_RANGE = "SELECT id, name, max_bid FROM items WHERE id BETWEEN ? AND ?"
_JOIN = (
    "SELECT bids.id, bids.bid, bids.date, u.nickname "
    "FROM bids JOIN users u ON bids.user_id = u.id WHERE bids.item_id = ?"
)
_WRITE = "UPDATE items SET max_bid = ?, nb_of_bids = ? WHERE id = ?"


def _statement_texts() -> Tuple[str, ...]:
    """The RUBiS application's own cached-query texts plus the micro ones."""
    app = rubis.build_application(5)
    return tuple(sorted(app.queries.values())) + (_POINT, _RANGE, _JOIN, _WRITE)


def sql_parses(scale: float) -> Timing:
    texts = _statement_texts()
    rounds = _ops(1_600, scale)
    started = _clock()
    for _ in range(rounds):
        for text in texts:
            sql.parse(text)
    return rounds * len(texts), _clock() - started


def sql_cached_parses(scale: float) -> Timing:
    texts = _statement_texts()
    rounds = _ops(400_000, scale)
    started = _clock()
    for _ in range(rounds):
        for text in texts:
            sql.parse_cached(text)
    return rounds * len(texts), _clock() - started


def _execute_micro(statement: str, params_of: Callable, full: int, scale: float) -> Timing:
    count = _ops(full, scale)
    database, catalog = rubis.populate_rubis(Streams(SEED), None)
    params = [params_of(catalog, index) for index in range(count)]
    execute = database.execute
    started = _clock()
    for item in params:
        execute(statement, item)
    return count, _clock() - started


def exec_point_selects(scale: float) -> Timing:
    return _execute_micro(
        _POINT, lambda c, i: (c.item_ids[i % len(c.item_ids)],), 45_000, scale
    )


def exec_range_selects(scale: float) -> Timing:
    def params(catalog, index):
        low = catalog.item_ids[index % (len(catalog.item_ids) - 20)]
        return (low, low + 19)

    return _execute_micro(_RANGE, params, 10_000, scale)


def exec_join_selects(scale: float) -> Timing:
    return _execute_micro(
        _JOIN, lambda c, i: (c.item_ids[i % len(c.item_ids)],), 14_000, scale
    )


def exec_writes(scale: float) -> Timing:
    return _execute_micro(
        _WRITE,
        lambda c, i: (float(i), i, c.item_ids[i % len(c.item_ids)]),
        40_000,
        scale,
    )


def wire_roundtrips(scale: float) -> Timing:
    """JdbcConnection.execute from the main server to a database on its LAN."""
    count = _ops(15_000, scale)
    database, catalog = rubis.populate_rubis(Streams(SEED), None)
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=False))
    server = DatabaseServer(
        env, testbed.network.node(testbed.db_server), database,
        cost_model=calibration.RUBIS_DB_COSTS,
    )
    source = DataSource(testbed.network, testbed.main_server, server)
    item_ids = catalog.item_ids

    def body():
        connection = yield from source.connect()
        for index in range(count):
            yield from connection.execute(_POINT, (item_ids[index % len(item_ids)],))
        connection.close()

    return count, _drive(env, body())


# -- workload, obs ------------------------------------------------------------

def workload_sessions(scale: float) -> Timing:
    """TransitionMatrixPattern.session over the stock RUBiS browse mix."""
    count = _ops(12_000, scale)
    streams = Streams(SEED)
    _database, catalog = rubis.populate_rubis(streams, None)
    pattern = TransitionMatrixPattern(rubis.browser_pattern(catalog))
    started = _clock()
    for index in range(count):
        pattern.session(streams, index)
    return count, _clock() - started


def obs_spans(scale: float) -> Timing:
    count = _ops(400_000, scale)
    recorder = SpanRecorder()
    started = _clock()
    for index in range(count):
        span = recorder.start_span("invoke", "micro", "main", float(index))
        recorder.finish_span(span, float(index) + 1.0)
    return count, _clock() - started


# -- set-up pieces (milliseconds per call, not rates) -------------------------

def _populate(populate: Callable) -> Callable[[float], Timing]:
    def timing(_scale: float) -> Timing:
        started = _clock()
        populate(Streams(SEED), None)
        return 1, _clock() - started

    return timing


def _distribute(level: int) -> Callable[[float], Timing]:
    def timing(_scale: float) -> Timing:
        return 1, _rubis_system(level)[3]

    return timing


RATES: Dict[str, Callable[[float], Timing]] = {
    "simnet.kernel.micro_events_per_s": kernel_events,
    "simnet.net.micro_transfers_per_s": net_transfers,
    "simnet.net.micro_requests_per_s": net_requests,
    "middleware.rmi.micro_calls_per_s": rmi_calls,
    "middleware.container.micro_invocations_per_s": container_invocations,
    "middleware.web.micro_gets_per_s": web_gets,
    "rdbms.sql.micro_parses_per_s": sql_parses,
    "rdbms.sql.micro_cached_parses_per_s": sql_cached_parses,
    "rdbms.exec.micro_point_selects_per_s": exec_point_selects,
    "rdbms.exec.micro_range_selects_per_s": exec_range_selects,
    "rdbms.exec.micro_join_selects_per_s": exec_join_selects,
    "rdbms.exec.micro_writes_per_s": exec_writes,
    "rdbms.wire.micro_roundtrips_per_s": wire_roundtrips,
    "workload.micro_sessions_per_s": workload_sessions,
    "obs.micro_spans_per_s": obs_spans,
}

DURATIONS_MS: Dict[str, Callable[[float], Timing]] = {
    "apps.populate_ms.petstore": _populate(petstore.populate_petstore),
    "apps.populate_ms.rubis": _populate(rubis.populate_rubis),
    "core.distribute_ms.level1": _distribute(1),
    "core.distribute_ms.level5": _distribute(5),
}


def run_all(scale: float) -> dict:
    """``{"micro": {metric: {"value": median, "values": [...]}}}``."""
    values: Dict[str, list] = {name: [] for name in (*RATES, *DURATIONS_MS)}
    started = _clock()
    for _ in range(REPEATS):
        for name, function in RATES.items():
            operations, seconds = function(scale)
            values[name].append(operations / seconds)
        for name, function in DURATIONS_MS.items():
            _one, seconds = function(scale)
            values[name].append(seconds * 1000.0)
    return {
        "scale": scale,
        "host_s": _clock() - started,
        "micro": {
            name: {"value": statistics.median(samples), "values": samples}
            for name, samples in values.items()
        },
    }
