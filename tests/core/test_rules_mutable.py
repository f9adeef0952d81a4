"""Unit tests for the design-rule checker."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import petstore, rubis
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.core.rules import check_rules, precheck
from repro.middleware.web import WebRequest, http_get
from repro.rdbms.engine import Database
from repro.simnet.kernel import Environment
from repro.simnet.rng import Streams
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import tiny_application, tiny_database, tiny_system

POLICIES = Path(__file__).resolve().parents[2] / "policies"


def _deploy(application, policy, database=None):
    """``application`` deployed under ``policy``, nothing run."""
    env = Environment()
    testbed = build_testbed(env, TestbedConfig())
    if database is None:
        database = Database(application.name)
    return distribute(env, testbed, application, policy, database, streams=Streams(1))


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
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING, with_spans=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    report = check_rules(system)
    assert report.ok, report.summary()
    assert set(report.checked_rules) == {"R1", "R2", "R3", "R4"}


def test_r1_flags_remote_entity_interfaces():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.application.components["Note"].remote_interface = True
    report = check_rules(system)
    assert any(v.rule == "R1" for v in report.violations)


def _record_page(recorder, page, wan_calls, target="NotesFacade"):
    """One page's span tree: an http root with ``wan_calls`` wide-area
    RMI children, as a request served at an edge would record it."""
    root = recorder.start_span("http", f"GET {page}", "client-edge1-0", 1.0, page=page)
    for _ in range(wan_calls):
        call = recorder.start_span(
            "rmi", f"{target}.m", "edge1", 1.0, parent_id=root["id"],
            wide_area=True, page=page, target=target, method="m",
        )
        recorder.finish_span(call, 2.0)
    recorder.finish_span(root, 3.0)


def test_r1_flags_wide_area_calls_to_local_only_components():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_spans=True)
    _record_page(system.trace, "Notes", 1, target="Note")
    report = check_rules(system)
    flagged = report.violations_of("R1")
    assert [v.subject for v in flagged] == ["Note"]
    assert "edge1" in flagged[0].detail


def test_r2_flags_chatty_pages():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_spans=True)
    _record_page(system.trace, "Chatty", 3)
    report = check_rules(system)
    chatty = [v for v in report.violations if v.rule == "R2"]
    assert len(chatty) == 1
    assert "Chatty" in chatty[0].subject


def test_r2_respects_page_exceptions():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE, with_spans=True)
    _record_page(system.trace, "Verify Signin", 2)
    report = check_rules(system, page_exceptions={"Verify Signin": 2})
    assert report.ok
    assert report.metrics["max_wan_calls_seen"] == 2


def test_r2_is_not_reported_checked_without_a_span_table():
    env, system = tiny_system(PatternLevel.REMOTE_FACADE)
    report = check_rules(system)
    assert report.checked_rules == ["R1", "R3"]
    assert "max_wan_calls_seen" not in report.metrics


def test_r5_flags_blocking_pushes_at_level5():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    system.main.update_propagator.sync_pushes = 3  # simulate misconfiguration
    report = check_rules(system)
    assert any(v.rule == "R5" for v in report.violations)


def test_r5_passes_on_clean_async_deployment():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES, with_spans=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    report = check_rules(system)
    assert not report.violations_of("R5")


def test_report_summary_format():
    env, system = tiny_system(PatternLevel.STATEFUL_CACHING, with_spans=True)
    system.warm_replicas()
    _drive_edge_traffic(env, system)
    summary = check_rules(system).summary()
    assert "PASS" in summary


# ---------------------------------------------------------------------------
# One table: a rule the precheck reports is on the run's report too
# ---------------------------------------------------------------------------


def test_check_rules_reports_the_static_r6_violation_precheck_reports():
    policy = load_policy(str(POLICIES / "sharded-replicated.json"))
    tier = policy.data_tier
    ghosts = replace(tier, global_tables=tier.global_tables + ("ghosts",))
    system = _deploy(rubis.build_application(), replace(policy, data_tier=ghosts))
    static = [str(v) for v in precheck(system.plan).violations]
    assert static == [
        "[R6] ghosts: global table matches no entity table of application 'rubis'"
    ]
    assert static == [str(v) for v in check_rules(system).violations_of("R6")]


def test_check_rules_flags_a_cached_method_the_bean_lacks():
    application = tiny_application()
    application.components["NotesFacade"].cached_methods = ("notes_of", "vanished")
    system = _deploy(application, PatternLevel.METHOD_CACHING, tiny_database())
    report = check_rules(system)
    assert "R7" in report.checked_rules
    assert [v.subject for v in report.violations_of("R7")] == ["NotesFacade.vanished"]


@pytest.mark.parametrize("build", [petstore.build_application, rubis.build_application])
@pytest.mark.parametrize("level", [int(level) for level in PatternLevel])
def test_precheck_rules_are_a_subset_of_check_rules(build, level):
    system = _deploy(build(), level)
    static = precheck(system.plan)
    report = check_rules(system)
    assert set(static.checked_rules) <= set(report.checked_rules)
    assert {str(v) for v in static.violations} <= {str(v) for v in report.violations}
