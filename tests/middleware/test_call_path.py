"""The call path: how deep, how many Python calls, and what a plan may cache.

Three gates on what lies between a page fetch and a bean's business
method.  Depth: every kernel event inside a business method resumes each
generator frame above it, so the frames are counted where a RUBiS façade
charges CPU.  Calls: ``sys.setprofile`` counts of one warm call of each
kind, with the parent commit's count beside every budget.  Plans: a
container's per-method call plan is a cache of what the deployment
decides, so every event that changes the deployment must drop it — each
case below compares results, counters and errors with values recorded
at the parent commit, where nothing was cached.
"""

import sys

import pytest

from repro.apps import rubis
from repro.apps.rubis.facades import BrowseRegionsBean
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.descriptors import ComponentDescriptor, ComponentKind
from repro.middleware.ejb import BeanError, StatelessSessionBean
from repro.middleware.naming import HomeCache
from repro.middleware.rmi import AccessError
from repro.middleware.web import WebRequest, http_get
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import run_process, tiny_application, tiny_database


class EchoBean(StatelessSessionBean):
    def echo(self, ctx, value):
        return value
        yield  # pragma: no cover - a generator method, like every façade's

    def plain(self, ctx, value):
        return value

    def _hidden(self, ctx):
        return "secret"


def _echo_descriptor(name="Echo"):
    return ComponentDescriptor(
        name=name,
        kind=ComponentKind.STATELESS_SESSION,
        impl=EchoBean,
        remote_interface=True,
    )


def _tiny(level=PatternLevel.STATEFUL_CACHING):
    """The tiny application plus a do-nothing ``Echo`` façade on every server."""
    env = Environment()
    application = tiny_application()
    application.add(_echo_descriptor())
    system = distribute(
        env, build_testbed(env, TestbedConfig()), application, level, tiny_database()
    )
    for server in system.servers.values():
        if not server.has_component("Echo"):
            server.deploy(application.components["Echo"])
    system.warm_replicas()
    return env, system


def _ctx(env, server, session="s"):
    return InvocationContext(
        env=env,
        server=server,
        request=RequestInfo("Notes", "g", session, "client-main-0"),
        costs=server.costs,
    )


@pytest.fixture(scope="module")
def rubis_level1():
    database, catalog = rubis.populate_rubis(Streams(7), None)
    env = Environment()
    system = distribute(
        env,
        build_testbed(env, TestbedConfig()),
        rubis.build_application(catalog=catalog),
        1,
        database,
    )
    return env, system


# -- (a) generator depth ---------------------------------------------------------
def _chain(generator):
    frames = []
    while generator is not None and hasattr(generator, "gi_code"):
        frames.append(generator.gi_code.co_name)
        generator = generator.gi_yieldfrom
    return frames


def test_a_facade_cpu_charge_is_at_most_eight_frames_deep(rubis_level1, monkeypatch):
    env, system = rubis_level1
    charges = []

    def watcher():
        # Bootstrapped by get_all just before its charge, so it runs at
        # the same instant, while the session is parked inside the hold.
        charges.append(_chain(process.generator))
        yield env.sleep(0.0)

    def get_all(self, ctx):
        env.process(watcher())
        yield from ctx.cpu(0.05)
        return []

    monkeypatch.setattr(BrowseRegionsBean, "get_all", get_all)
    request = WebRequest(page="All Regions", session_id="depth", client_node="client-main-0")

    def session():  # stands where drive_sessions does: the process root
        yield from http_get(env, system.main, request, client_group="local")

    process = env.process(session())
    env.run()
    assert charges, "the façade's CPU charge was never reached"
    deepest = charges[0]
    assert deepest[-2:] == ["get_all", "use"]
    # 13 at the parent commit: session, http_get, request, serve, handle,
    # handle, call, invoke, _invoke_direct, _run_demarcated, body, get_all, use.
    assert len(deepest) <= 8, deepest
    assert deepest[:2] == ["session", "http_get"]


# -- (b) Python calls per warm call ------------------------------------------------
def _python_calls(env, generator_factory) -> int:
    """Python-level calls (generator resumes included) of one process run."""
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def run():
        run_process(env, generator_factory())

    run()  # warm: pools, stubs, plans, home cache
    sys.setprofile(tracer)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _call_counts():
    env, system = _tiny()
    main, edge = system.main, system.servers["edge1"]

    def local_stateless():
        ctx = _ctx(env, main)
        echo = yield from main.lookup(ctx, "Echo")
        return (yield from echo.call(ctx, "echo", 7))

    def local_replica():
        ctx = _ctx(env, edge)
        home = yield from edge.lookup(ctx, "Note")
        return (yield from home.entity(5).call(ctx, "get_text"))

    def remote():
        ctx = _ctx(env, edge)
        echo = yield from edge.lookup(ctx, "Echo@central")
        assert echo.is_remote
        return (yield from echo.call(ctx, "echo", 7))

    return {
        "LocalRef.call, stateless": _python_calls(env, local_stateless),
        "LocalRef.call, read-only replica": _python_calls(env, local_replica),
        "RemoteRef.call": _python_calls(env, remote),
    }


def _main_page_calls(rubis_level1):
    env, system = rubis_level1
    request = WebRequest(page="Main", session_id="calls", client_node="client-main-0")
    return _python_calls(env, lambda: http_get(env, system.main, request))


BUDGETS = {
    # case: (budget, count at the parent commit).  The counts include the
    # kernel's own calls for the process, which vary by a few with the
    # state of its calendar; the parent's are the lowest seen.
    "LocalRef.call, stateless": (37, 49),
    "LocalRef.call, read-only replica": (36, 45),
    "RemoteRef.call": (112, 133),
    "http_get of Main": (52, 68),
}


def test_b_warm_calls_stay_within_their_budgets(rubis_level1):
    counts = _call_counts()
    counts["http_get of Main"] = _main_page_calls(rubis_level1)
    over = {
        case: (count, BUDGETS[case]) for case, count in counts.items() if count > BUDGETS[case][0]
    }
    assert not over


# -- (c) plan invalidation ---------------------------------------------------------
def _scenario():
    """Calls interleaved with every event that must drop call plans.

    Returns what a caller can observe: each call's result or error, the
    counters and the simulated clock — identical, by the literal below,
    to what the parent commit (no plans, everything re-derived per call)
    produced.
    """
    env, system = _tiny()
    edge = system.servers["edge1"]
    log = []

    def attempt(label, body):
        try:
            log.append((label, run_process(env, body())))
        except (BeanError, AccessError) as error:
            log.append((label, f"{type(error).__name__}: {error}"))

    def echo(component, method, *args):
        def body():
            ctx = _ctx(env, edge)
            ref = yield from edge.lookup(ctx, component)
            return (yield from ref.call(ctx, method, *args))

        return body

    def note(method, *args, for_update=False):
        def body():
            ctx = _ctx(env, edge)
            home = yield from edge.lookup(ctx, "Note", for_update=for_update)
            return (yield from home.entity(5).call(ctx, method, *args))

        return body

    def round_of_calls(tag):
        attempt(f"{tag} echo", echo("Echo", "echo", 1))
        attempt(f"{tag} plain", echo("Echo", "plain", 2))
        attempt(f"{tag} missing", echo("Echo", "nope"))
        attempt(f"{tag} missing again", echo("Echo", "nope"))
        attempt(f"{tag} underscore", echo("Echo", "_hidden"))
        attempt(f"{tag} replica read", note("get_text"))
        attempt(f"{tag} replica write", note("bad_write"))
        attempt(f"{tag} R1", note("set_text", "x", for_update=True))

    round_of_calls("first")
    cache = edge.enable_method_cache()
    cache.register("Echo", ("echo",))
    round_of_calls("method cache")
    edge.deploy(_echo_descriptor("Echo2"))
    attempt("second component", echo("Echo2", "echo", 3))
    round_of_calls("after deploy")
    edge.crash()
    edge.restart()
    round_of_calls("after restart")
    cached_homes = (edge.home_cache.hits, edge.home_cache.misses)
    edge.home_cache = HomeCache(enabled=False)
    round_of_calls("no home cache")

    echo_container = edge.container("Echo")
    replica = edge.readonly_container("Note")
    return {
        "log": log,
        "now": round(env.now, 6),
        "Echo": (
            echo_container.invocations,
            echo_container.transactions_started,
            echo_container.instances_created,
        ),
        "Echo2": (edge.container("Echo2").invocations, edge.container("Echo2").instances_created),
        "Note replica": (replica.invocations, replica.hits, replica.misses),
        "home cache": cached_homes,
        "no home cache": (edge.home_cache.hits, edge.home_cache.misses),
        "method cache": (cache.stats.hits, cache.stats.misses, cache.stats.stores),
    }


# What every round of calls gives, at the parent commit and here.
ROUND = [
    ("echo", 1),
    ("plain", 2),
    ("missing", "BeanError: EchoBean has no business method 'nope'"),
    ("missing again", "BeanError: EchoBean has no business method 'nope'"),
    ("underscore", "BeanError: '_hidden' is not a public business method"),
    ("replica read", "note text 5"),
    (
        "replica write",
        "ReadOnlyViolation: method 'bad_write' mutated read-only replica Note[5] on edge1",
    ),
    (
        "R1",
        "AccessError: component 'Note' exposes only a local interface but was invoked "
        "from edge1 against main (design rule R1)",
    ),
]


def _round(tag):
    return [(f"{tag} {label}", outcome) for label, outcome in ROUND]


# Recorded at the parent commit (f02105f), which resolved everything per call.
EXPECTED = {
    "log": [
        *_round("first"),
        *_round("method cache"),
        ("second component", 3),
        *_round("after deploy"),
        *_round("after restart"),
        *_round("no home cache"),
    ],
    "now": 1717.68256,
    "Echo": (25, 23, 2),  # two of the 25 were method-cache hits; one instance per life
    "Echo2": (1, 1),
    "Note replica": (10, 9, 1),
    "home cache": (26, 8),
    "no home cache": (0, 8),
    "method cache": (2, 2, 2),
}


def test_c_plan_invalidation_matches_the_parent():
    assert _scenario() == EXPECTED
