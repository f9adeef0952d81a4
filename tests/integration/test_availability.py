"""Availability: distribution gives clients several entry points (§1).

"Cacheable components can be positioned in edge nodes ... improving not
only client perceived latency, but also overall service availability
since client requests can utilize several entry points into the
service."  These tests fail an edge server mid-run and verify that its
clients keep being served through the main entry point.
"""

import pytest

from repro.core.patterns import PatternLevel
from repro.core.usage import ScriptedPattern
from repro.middleware.web import CONNECT_TIMEOUT_MS, ServerUnavailable, WebRequest, http_get
from repro.obs.store import WholeRun
from repro.simnet.rng import Streams
from repro.workload.generator import ClientSpec, LoadGenerator, WorkloadConfig
from tests.helpers import run_process, tiny_system


def _browse_pattern():
    return ScriptedPattern(
        "browse",
        ["Notes"] * 5,
        params_for=lambda streams, page, index: {
            "note_id": streams.randint("note", 1, 12)
        },
    )


def _one_browser(env, system, seed, end_time):
    """Run a population of one: a remote browser on edge1's first client
    machine, thinking 4 s between requests until ``end_time``."""
    pattern = _browse_pattern()
    config = WorkloadConfig(think_time_ms=4_000.0, duration_ms=end_time, warmup_ms=0.0)
    generator = LoadGenerator(system, Streams(seed), pattern, pattern, config=config)
    generator.clients = [ClientSpec(1, "client-edge1-0", "remote-browser", pattern, 0.0)]
    generator.run(env)
    return generator


def test_request_to_failed_server_times_out():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    edge = system.servers["edge1"]
    edge.fail()

    def probe():
        request = WebRequest(page="Notes", params={"note_id": 1},
                             session_id="s", client_node="client-edge1-0")
        start = env.now
        try:
            yield from http_get(env, edge, request)
        except ServerUnavailable:
            return env.now - start
        raise AssertionError("expected ServerUnavailable")

    elapsed = run_process(env, probe())
    assert elapsed == pytest.approx(CONNECT_TIMEOUT_MS)


def test_client_fails_over_to_main_entry_point():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    system.servers["edge1"].fail()
    client = _one_browser(env, system, 31, 30_000.0)
    monitor = WholeRun(client.store.to_state()["whole_run"])
    # Every request was served despite the dead edge.
    assert client.requests_sent == monitor.page_stats("remote-browser", "Notes").count
    assert client.requests_sent > 0
    assert client.failovers == client.requests_sent
    assert client.errors == 0
    # But at WAN latency plus the connect timeout on first attempts.
    assert monitor.mean("remote-browser", "Notes") > CONNECT_TIMEOUT_MS


def test_no_entry_point_left_counts_errors():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    for server in system.servers.values():
        server.fail()
    client = _one_browser(env, system, 32, 20_000.0)
    assert client.requests_sent == 0
    assert client.errors > 0


def test_recovery_restores_local_service():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    edge = system.servers["edge1"]
    latencies = []

    def scenario():
        def fetch(session):
            request = WebRequest(page="Notes", params={"note_id": 1},
                                 session_id=session, client_node="client-edge1-0")
            start = env.now
            yield from http_get(env, edge, request)
            latencies.append(env.now - start)

        yield from fetch("before")
        edge.fail()
        try:
            yield from fetch("down")
        except ServerUnavailable:
            latencies.append(None)
        edge.recover()
        yield from fetch("after")

    run_process(env, scenario())
    before, down, after = latencies
    assert down is None
    assert before < 50.0 and after < 50.0  # local again after recovery


def test_centralized_deployment_has_single_point_of_failure():
    """The counterpoint: without distribution, a main failure kills all."""
    env, system = tiny_system(PatternLevel.CENTRALIZED)
    system.main.fail()
    client = _one_browser(env, system, 33, 20_000.0)
    assert client.requests_sent == 0
    assert client.errors > 0
