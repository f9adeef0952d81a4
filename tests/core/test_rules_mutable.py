"""Unit tests for the design-rule checker."""

import pytest

from repro.core.patterns import PatternLevel
from repro.core.rules import DesignRuleChecker
from repro.middleware.context import InvocationContext, RequestInfo
from repro.middleware.web import WebRequest, http_get
from repro.simnet.monitor import CallRecord, Trace
from tests.helpers import run_process, tiny_system


def _drive_edge_traffic(env, system, note_ids=(1, 2), repeats=2):
    def proc():
        server = system.entry_server_for("client-edge1-0")
        for repeat in range(repeats):
            for note_id in note_ids:
                request = WebRequest(
                    page="Notes",
                    params={"note_id": note_id},
                    session_id=f"rule-{repeat}",
                    client_node="client-edge1-0",
                )
                yield from http_get(env, server, request, client_group="remote")

    env.process(proc())
    env.run()


# ---------------------------------------------------------------------------
# Design rules
# ---------------------------------------------------------------------------


def test_proper_deployment_passes_all_rules():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING, with_trace=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    report = DesignRuleChecker(system).check()
    assert report.ok, report.summary()
    assert set(report.checked_rules) == {"R1", "R2", "R3", "R4"}


def test_r1_flags_remote_entity_interfaces():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.application.components["Note"].remote_interface = True
    report = DesignRuleChecker(system).check()
    assert any(v.rule == "R1" for v in report.violations)


def test_r2_flags_chatty_pages():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_trace=True)
    trace = system.trace
    for _ in range(3):
        trace.record(
            CallRecord(
                time=1.0, kind="rmi", src_node="edge1", dst_node="main",
                target="NotesFacade", method="m", wide_area=True,
                page="Chatty", request_id=77,
            )
        )
    report = DesignRuleChecker(system).check()
    chatty = [v for v in report.violations if v.rule == "R2"]
    assert len(chatty) == 1
    assert "Chatty" in chatty[0].subject


def test_r2_respects_page_exceptions():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_trace=True)
    trace = system.trace
    for _ in range(2):
        trace.record(
            CallRecord(
                time=1.0, kind="rmi", src_node="edge1", dst_node="main",
                target="NotesFacade", method="m", wide_area=True,
                page="Verify Signin", request_id=88,
            )
        )
    report = DesignRuleChecker(
        system, page_exceptions={"Verify Signin": 2}
    ).check()
    assert report.ok


def test_r5_flags_blocking_pushes_at_level5():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    system.main.update_propagator.sync_pushes = 3  # simulate misconfiguration
    report = DesignRuleChecker(system).check()
    assert any(v.rule == "R5" for v in report.violations)


def test_r5_passes_on_clean_async_deployment():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES, with_trace=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    report = DesignRuleChecker(system).check()
    assert not report.violations_of("R5")


def test_report_summary_format():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING, with_trace=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    summary = DesignRuleChecker(system).check().summary()
    assert "PASS" in summary
