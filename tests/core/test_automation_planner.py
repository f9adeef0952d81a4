"""Unit tests for extended-descriptor automation and deployment planning."""

from dataclasses import replace

import pytest

from repro.apps import petstore, rubis
from repro.core.distribution import distribute
from repro.core.patterns import PatternLevel, level_name
from repro.core.planner import plan_deployment
from repro.core.policy import level_policy
from repro.middleware.descriptors import UpdateMode
from repro.middleware.updates import UPDATE_SUBSCRIBER, UPDATER_FACADE
from repro.rdbms.engine import Database
from repro.simnet.kernel import Environment
from repro.simnet.topology import TestbedConfig, build_testbed
from tests.helpers import tiny_application, tiny_system


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
# Automation (§5): planning tailors the extended descriptors to the policy
# ---------------------------------------------------------------------------


def configure(app, level):
    """Plan ``app`` under the canned policy of ``level``, as ``distribute`` does."""
    return plan_deployment(app, "main", ["edge1", "edge2"], level_policy(level, app))


def test_level1_strips_read_mostly_and_caches():
    app = configure(tiny_application(), PatternLevel.CENTRALIZED).application
    assert app.components["Note"].read_mostly is None
    assert app.query_caches == {}
    assert "tiny.notes_of" in app.queries  # definitions survive
    assert UPDATER_FACADE not in app.components


def test_level3_activates_replicas_sync():
    plan = configure(tiny_application(), PatternLevel.STATEFUL_CACHING)
    app = plan.application
    assert app.components["Note"].read_mostly is not None
    assert app.query_caches == {}  # caches only from level 4
    assert UPDATER_FACADE in app.components
    assert UPDATE_SUBSCRIBER not in app.components
    assert plan.policy.update_mode == UpdateMode.SYNC


def test_level4_activates_query_caches():
    app = configure(tiny_application(), PatternLevel.QUERY_CACHING).application
    assert "tiny.notes_of" in app.query_caches


def test_level5_switches_everything_async():
    env, system = tiny_system(PatternLevel.ASYNC_UPDATES)
    assert UPDATE_SUBSCRIBER in system.application.components
    assert system.main.update_propagator.mode == UpdateMode.ASYNC


def test_automation_is_idempotent_about_auxiliaries():
    tailored = configure(tiny_application(), PatternLevel.ASYNC_UPDATES).application
    app = configure(tailored, PatternLevel.ASYNC_UPDATES).application
    assert list(app.components).count(UPDATER_FACADE) == 1
    assert list(app.components).count(UPDATE_SUBSCRIBER) == 1


def test_planning_leaves_its_argument_untouched():
    """Planning tailors a copy: an application planned at level 1 still
    has its read-mostly beans when planned again at level 3."""
    app = petstore.build_application()
    declared = {name: vars(d).copy() for name, d in app.components.items()}
    centralized = configure(app, PatternLevel.CENTRALIZED)
    assert centralized.replicas == {}
    assert {name: vars(d) for name, d in app.components.items()} == declared
    assert app.query_caches and UPDATER_FACADE not in app.components
    caching = configure(app, PatternLevel.STATEFUL_CACHING)
    assert sorted(caching.replicas) == ["Category", "Inventory", "Item", "Product"]
    for name, descriptor in caching.application.components.items():
        assert descriptor is not app.components.get(name), name


@pytest.mark.parametrize("build", [petstore.build_application, rubis.build_application])
@pytest.mark.parametrize("level", [PatternLevel.ASYNC_UPDATES, PatternLevel.METHOD_CACHING])
def test_a_canned_async_level_switched_to_sync_deploys(build, level):
    """The update mode is a free choice of the policy: the canned async
    levels run under blocking push, and no subscriber MDB is placed."""
    app = build()
    policy = replace(level_policy(level, app), update_mode=UpdateMode.SYNC)
    env = Environment()
    testbed = build_testbed(env, TestbedConfig())
    system = distribute(env, testbed, app, policy, Database(app.name))
    assert UPDATE_SUBSCRIBER not in system.plan.placements
    assert system.main.update_propagator.mode == UpdateMode.SYNC


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def _plan(level):
    plan = configure(tiny_application(), level)
    return plan.application, plan


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
    assert plan.servers_of(UPDATE_SUBSCRIBER) == ["main", "edge1", "edge2"]


def test_plan_describe_mentions_servers():
    app, plan = _plan(PatternLevel.STATEFUL_CACHING)
    text = plan.describe()
    assert "main" in text and "edge1" in text and "replicas" in text


def test_components_on_listing():
    app, plan = _plan(PatternLevel.CENTRALIZED)
    assert "NotesFacade" in plan.components_on("main")
    assert plan.components_on("edge1") == []
