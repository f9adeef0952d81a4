"""The one session driver against the two loops it replaced.

``reference_drivers.py`` keeps the old ``Client.run`` and the old
open-loop generator's ``_arrivals`` / ``_session`` literally.  For the
closed and the open loop, fault-free and under the three scenarios where
the failover, both-entry-points-down and broken-session arms actually
run, the same cell is simulated twice on one seed — once through the
references, once through :func:`repro.workload.driver.drive_sessions`
under the one :class:`~repro.workload.generator.LoadGenerator` — and
everything observable must agree: the monitor, the generator's counter
totals, the kernel's event count and the span table.
"""

from functools import lru_cache

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import runner
from repro.experiments.calibration import default_workload
from repro.faults.scenarios import scenario
from repro.workload.openloop import OpenLoopConfig

from .reference_drivers import ReferenceLoadGenerator, ReferenceOpenLoop

WARMUP_MS = 5_000.0
L1, L3, L5 = PatternLevel.CENTRALIZED, PatternLevel.STATEFUL_CACHING, PatternLevel.ASYNC_UPDATES
# Level 1 enters at main from everywhere, so a WAN fault there is a lost
# visit with no second entry point to try; level 3 enters at the edges,
# so a crash fails over (and strands the cart on the dead edge) and a
# partition fails the failover too.
CASES = [
    ("rubis", L5, None),
    ("petstore", L3, None),
    ("petstore", L3, "edge-crash"),
    ("petstore", L3, "edge-partition"),
    ("petstore", L1, "edge-partition"),
    ("petstore", L1, "flaky-wan"),
]

CLOSED_COUNTERS = (
    "requests_sent", "errors", "failovers", "think_ms", "admitted",
)
GENERATOR_COUNTERS = (
    "requests_sent", "errors", "failovers", "think_ms",
    "arrivals", "admitted", "completions", "dropped_sessions", "peak_active",
    "active",
)
TRANSPORT_KINDS = {
    "ServerUnavailable", "RmiTimeout", "LinkDown", "PacketLoss", "NodeUnavailable",
}


def _options(loop, fault):
    if loop == "closed":
        # Long enough under a crash for a stranded cart to be committed.
        duration_ms = 100_000.0 if fault == "edge-crash" else 40_000.0
        return duration_ms, {"workload": default_workload(duration_ms, WARMUP_MS)}
    # The cap is low enough to bind, so the admission check's view of
    # ``active`` at spawn time is part of what must agree.
    duration_ms = 40_000.0
    return duration_ms, {
        "openloop": OpenLoopConfig(
            session_rate_per_s=6.0,
            duration_ms=duration_ms,
            warmup_ms=WARMUP_MS,
            think_time_ms=3_000.0,
            max_sessions=45,
        )
    }


def _run(loop, app, level, fault):
    duration_ms, options = _options(loop, fault)
    faults = None if fault is None else scenario(fault, duration_ms, WARMUP_MS)
    return runner.run_configuration(
        app, level, seed=41, faults=faults, with_spans=True, **options
    )


_driven = lru_cache(maxsize=None)(_run)


def _run_reference(monkeypatch, generator_class, loop, app, level, fault):
    monkeypatch.setattr(runner, "LoadGenerator", generator_class)
    # The references keep the old loops' counters, not the counter
    # surface the end-of-run metrics walk reads, so the walk is skipped;
    # what is compared below does not include the metrics section.
    monkeypatch.setattr(
        runner, "collect_system_metrics", lambda registry, system, generator: registry
    )
    return _run(loop, app, level, fault)


def _resilience(result):
    """The fault counters and staleness windows, closed at the end of the
    run as the (skipped) end-of-run metrics walk would, and the dropped
    arrivals the availability report reads beside them."""
    stats = result.system.resilience
    stats.finalize(result.system.env.now)
    return {
        "counters": stats.counters(),
        "staleness_ms": stats.staleness_ms,
        "dropped_sessions": result.generator.dropped_sessions,
    }


def _observed(result, counters):
    """Everything a run exposes that does not depend on the host."""
    return {
        "monitor": result.monitor.to_state(),
        "counters": counters,
        "kernel_events": result.system.env.stats()["sequence"],
        "spans": result.measurements["spans"],
        "resilience": _resilience(result),
        "cache_stats": result.cache_stats,
    }


def _closed_counters(result):
    return {name: getattr(result.generator, name) for name in CLOSED_COUNTERS}


def _open_counters(result):
    return {name: getattr(result.generator, name) for name in GENERATOR_COUNTERS}


def _assert_kinds_sum_to_errors(owner, fault):
    assert sum(owner.error_kinds.values()) == owner.errors
    assert all(count > 0 for count in owner.error_kinds.values())
    if fault is None:
        assert owner.errors == 0 and owner.error_kinds == {}


@pytest.mark.parametrize("app,level,fault", CASES)
def test_closed_loop_matches_reference(monkeypatch, app, level, fault):
    driven = _driven("closed", app, level, fault)
    reference = _run_reference(
        monkeypatch, ReferenceLoadGenerator, "closed", app, level, fault
    )
    assert isinstance(reference.generator, ReferenceLoadGenerator)
    assert not isinstance(driven.generator, ReferenceLoadGenerator)
    assert _observed(driven, _closed_counters(driven)) == _observed(
        reference, _closed_counters(reference)
    )
    assert driven.total_requests > 0
    # The old loop counted only sessions it finished; a client's session
    # open at the deadline is completed by the one accounting too.
    cut = driven.generator.completions - reference.generator.sessions_completed
    assert 0 <= cut <= len(driven.generator.clients)
    _assert_kinds_sum_to_errors(driven.generator, fault)


@pytest.mark.parametrize("app,level,fault", CASES)
def test_closed_loop_accounting_at_the_horizon(app, level, fault):
    """A client is a session source that never drops: every session it
    pulled was admitted and, by the end of the run, completed, and the
    whole population was active at once."""
    generator = _driven("closed", app, level, fault).generator
    assert generator.arrivals == generator.admitted
    assert generator.dropped_sessions == 0
    assert generator.completions == generator.admitted
    assert generator.active == 0
    assert generator.peak_active == len(generator.clients)


@pytest.mark.parametrize("app,level,fault", CASES)
def test_open_loop_matches_reference(monkeypatch, app, level, fault):
    driven = _driven("open", app, level, fault)
    reference = _run_reference(monkeypatch, ReferenceOpenLoop, "open", app, level, fault)
    assert isinstance(reference.generator, ReferenceOpenLoop)
    assert not isinstance(driven.generator, ReferenceOpenLoop)
    assert _observed(driven, _open_counters(driven)) == _observed(
        reference, _open_counters(reference)
    )
    generator = driven.generator
    assert generator.requests_sent > 0
    assert generator.dropped_sessions > 0, "the admission cap never bound"
    assert generator.active == 0 and generator.completions == generator.admitted
    _assert_kinds_sum_to_errors(generator, fault)


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_every_arm_of_the_driver_is_exercised(loop):
    """The cases above are only an oracle for code they reach: between
    them they must fail over successfully, lose a visit after failing
    over, lose one with no second entry point to try, and break a
    session on an application error."""

    def generator(level, fault):
        return _driven(loop, "petstore", level, fault).generator

    crash = generator(L3, "edge-crash")
    assert crash.failovers > crash.errors
    assert set(crash.error_kinds) - TRANSPORT_KINDS, crash.error_kinds
    partition = generator(L3, "edge-partition")
    assert partition.failovers > 0
    assert partition.error_kinds.get("LinkDown", 0) > 0
    for fault, kind in (("edge-partition", "LinkDown"), ("flaky-wan", "PacketLoss")):
        central = generator(L1, fault)
        assert central.failovers == 0
        assert central.error_kinds.get(kind, 0) > 0, central.error_kinds


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_metrics_say_why_visits_were_lost(loop):
    """``workload.errors.<Kind>`` sums to ``workload.errors`` under a
    crash, and does not exist in a run that loses nothing."""
    from repro.obs.metrics import MetricsRegistry, collect_system_metrics

    def kinds_and_total(fault):
        result = _driven(loop, "petstore", L3, fault)
        registry = collect_system_metrics(
            MetricsRegistry(), result.system, generator=result.generator
        )
        prefix = "workload.errors."
        kinds = {
            name[len(prefix):]: registry.value(name)
            for name in registry.names()
            if name.startswith(prefix)
        }
        return kinds, registry.value("workload.errors")

    kinds, total = kinds_and_total("edge-crash")
    assert total > 0 and sum(kinds.values()) == total
    assert kinds == _driven(loop, "petstore", L3, "edge-crash").generator.error_kinds
    assert kinds_and_total(None) == ({}, 0)


def test_a_bug_in_a_servlet_escapes_the_run(monkeypatch):
    """Only the named application errors become lost visits: an
    ``AttributeError`` raised in a servlet is a simulator bug, and the
    run stops on it instead of counting a broken session."""
    from repro.apps.rubis import web
    from repro.middleware.ejb import Servlet

    def broken(self, ctx, request):
        raise AttributeError("a servlet bug")

    for servlet in vars(web).values():
        if isinstance(servlet, type) and issubclass(servlet, Servlet):
            monkeypatch.setattr(servlet, "handle", broken)
    with pytest.raises(AttributeError, match="a servlet bug"):
        runner.run_configuration(
            "rubis", L5, seed=41, workload=default_workload(20_000.0, WARMUP_MS)
        )
