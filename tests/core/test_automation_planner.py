"""Unit tests for extended-descriptor automation and deployment planning."""

import pytest

from repro.core.automation import apply_policy
from repro.core.patterns import PatternLevel, level_name
from repro.core.planner import PlanError, plan_deployment
from repro.core.policy import level_policy
from repro.middleware.descriptors import UpdateMode
from repro.middleware.updates import UPDATE_SUBSCRIBER, UPDATER_FACADE
from tests.helpers import tiny_application


# ---------------------------------------------------------------------------
# Pattern catalog
# ---------------------------------------------------------------------------


def test_catalog_covers_all_levels():
    names = [level_name(level) for level in PatternLevel]
    assert all(names) and len(set(names)) == len(names)


def test_level_name():
    assert level_name(PatternLevel.CENTRALIZED) == "Centralized"
    assert level_name(3) == "Stateful component caching"


def test_levels_are_ordered():
    assert PatternLevel.CENTRALIZED < PatternLevel.REMOTE_FACADE < PatternLevel.ASYNC_UPDATES


# ---------------------------------------------------------------------------
# Automation (§5)
# ---------------------------------------------------------------------------


def configure(app, level):
    """Apply the canned policy of ``level``, as ``distribute`` does."""
    return apply_policy(app, level_policy(level, app))


def test_level1_strips_read_mostly_and_caches():
    app = tiny_application()
    report = configure(app, PatternLevel.CENTRALIZED)
    assert app.components["Note"].read_mostly is None
    assert app.query_caches == {}
    assert "tiny.notes_of" in app.queries  # definitions survive
    assert report.read_mostly_stripped == ["Note"]
    assert UPDATER_FACADE not in app.components


def test_level3_activates_replicas_sync():
    app = tiny_application()
    report = configure(app, PatternLevel.STATEFUL_CACHING)
    assert app.components["Note"].read_mostly.update_mode == UpdateMode.SYNC
    assert app.query_caches == {}  # caches only from level 4
    assert UPDATER_FACADE in app.components
    assert report.mode == UpdateMode.SYNC


def test_level4_activates_query_caches():
    app = tiny_application()
    configure(app, PatternLevel.QUERY_CACHING)
    assert "tiny.notes_of" in app.query_caches
    assert app.query_caches["tiny.notes_of"].update_mode == UpdateMode.SYNC


def test_level5_switches_everything_async():
    app = tiny_application()
    report = configure(app, PatternLevel.ASYNC_UPDATES)
    assert app.components["Note"].read_mostly.update_mode == UpdateMode.ASYNC
    assert app.query_caches["tiny.notes_of"].update_mode == UpdateMode.ASYNC
    assert UPDATE_SUBSCRIBER in app.components
    assert report.mode == UpdateMode.ASYNC


def test_automation_is_idempotent_about_auxiliaries():
    app = tiny_application()
    configure(app, PatternLevel.ASYNC_UPDATES)
    configure(app, PatternLevel.ASYNC_UPDATES)
    assert list(app.components).count(UPDATER_FACADE) == 1


def test_automation_report_summary_text():
    app = tiny_application()
    report = configure(app, PatternLevel.ASYNC_UPDATES)
    summary = report.summary()
    assert "asynchronous" in summary
    assert "UpdaterFacade" in summary


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def _plan(level):
    app = tiny_application()
    policy = level_policy(level, app)
    apply_policy(app, policy)
    return app, plan_deployment(app, "main", ["edge1", "edge2"], policy)


def test_level1_everything_on_main():
    app, plan = _plan(PatternLevel.CENTRALIZED)
    for name in app.components:
        assert plan.servers_of(name) == ["main"], name
    assert plan.replicas == {}
    assert plan.query_cache_servers == []


def test_level2_web_and_stateful_everywhere():
    app, plan = _plan(PatternLevel.REMOTE_FACADE)
    assert plan.servers_of("servlet.Notes") == ["main", "edge1", "edge2"]
    assert plan.servers_of("NotesFacade") == ["main"]  # edge_from_level=3
    assert plan.servers_of("Note") == ["main"]


def test_level3_facades_and_replicas_at_edges():
    app, plan = _plan(PatternLevel.STATEFUL_CACHING)
    assert plan.servers_of("NotesFacade") == ["main", "edge1", "edge2"]
    assert plan.replicas.get("Note", []) == ["main", "edge1", "edge2"]
    assert plan.query_cache_servers == []


def test_level4_query_caches_everywhere():
    app, plan = _plan(PatternLevel.QUERY_CACHING)
    assert plan.query_cache_servers == ["main", "edge1", "edge2"]


def test_level5_subscribers_everywhere():
    app, plan = _plan(PatternLevel.ASYNC_UPDATES)
    from repro.middleware.updates import UPDATE_SUBSCRIBER

    assert plan.servers_of(UPDATE_SUBSCRIBER) == ["main", "edge1", "edge2"]


def test_plan_describe_mentions_servers():
    app, plan = _plan(PatternLevel.STATEFUL_CACHING)
    text = plan.describe()
    assert "main" in text and "edge1" in text and "replicas" in text


def test_components_on_listing():
    app, plan = _plan(PatternLevel.CENTRALIZED)
    assert "NotesFacade" in plan.components_on("main")
    assert plan.components_on("edge1") == []
