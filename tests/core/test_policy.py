"""The declarative placement-policy layer.

Covers JSON round-tripping and validation of :class:`PlacementPolicy`,
selector resolution, the static design-rule precheck, and — the
load-bearing regression — that ``level_policy`` compiles plans identical
to the pre-policy pattern-level planner for all five levels of both
applications, on the paper's topology and on others.
"""

import pickle
from dataclasses import replace

import pytest

from repro.apps import petstore, rubis
from repro.core.automation import apply_policy
from repro.core.patterns import PAPER_LEVELS, PatternLevel
from repro.core.planner import PlanError, plan_deployment
from repro.core.policy import (
    ComponentPolicy,
    PlacementPolicy,
    PolicyError,
    level_policy,
    load_policy,
    resolve_selectors,
)
from repro.core.rules import precheck
from repro.middleware.descriptors import ComponentKind, UpdateMode
from repro.middleware.updates import (
    UPDATE_SUBSCRIBER,
    UPDATER_FACADE,
    update_subscriber_descriptor,
    updater_facade_descriptor,
)
from tests.helpers import tiny_application


# ---------------------------------------------------------------------------
# Selector resolution
# ---------------------------------------------------------------------------


def test_resolve_selectors_canonical_order():
    edges = ["edge1", "edge2", "edge3"]
    assert resolve_selectors(("all",), "main", edges) == ["main"] + edges
    assert resolve_selectors(("edges",), "main", edges) == edges
    assert resolve_selectors(("main",), "main", edges) == ["main"]
    # Literal names resolve, and order is always main-first testbed order
    # regardless of how the policy wrote them.
    assert resolve_selectors(("edge2", "main"), "main", edges) == ["main", "edge2"]
    assert resolve_selectors(("edges", "main"), "main", edges) == ["main"] + edges


def test_resolve_selectors_unknown_name():
    with pytest.raises(PolicyError, match="edge9"):
        resolve_selectors(("edge9",), "main", ["edge1"])


# ---------------------------------------------------------------------------
# Serialization: JSON round-trip, pickling, malformed payloads
# ---------------------------------------------------------------------------


def _sample_policy() -> PlacementPolicy:
    return PlacementPolicy(
        name="sample",
        components={
            "Note": ComponentPolicy(deploy=("main",), replicas=("main", "edge1")),
            "NotesFacade": ComponentPolicy(deploy=("all",)),
            "servlet.Notes": ComponentPolicy(deploy=("all",)),
        },
        query_caches=("main", "edge1"),
        update_mode=UpdateMode.ASYNC,
        level=5,
    )


def test_policy_json_round_trip():
    policy = _sample_policy()
    restored = PlacementPolicy.from_json(policy.to_json())
    assert restored == policy
    # And through the string form too.
    import json

    assert PlacementPolicy.from_json(json.loads(policy.to_json_str())) == policy


def test_policy_pickle_round_trip():
    policy = _sample_policy()
    assert pickle.loads(pickle.dumps(policy)) == policy


def test_policy_json_defaults():
    policy = PlacementPolicy.from_json({"name": "bare"})
    assert policy.update_mode == UpdateMode.SYNC
    assert policy.level is None
    assert policy.effective_level() == PatternLevel.REMOTE_FACADE
    assert not policy.replica_selectors() and not policy.query_caches


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"name": "x", "bogus": 1}, "unknown policy keys"),
        ({"name": "x", "update_mode": "sometimes"}, "update_mode"),
        ({"name": "x", "level": 9}, "level"),
        ({"name": "x", "components": {"A": {"deploy": ["main"], "nope": 1}}},
         "unknown component policy keys"),
        ({"name": "x", "components": {"A": []}}, "must be an object"),
        ({"name": "x", "components": []}, "components must be an object"),
    ],
)
def test_policy_json_rejects_malformed(payload, match):
    with pytest.raises(PolicyError, match=match):
        PlacementPolicy.from_json(payload)


def test_load_policy_checked_in_file():
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "policies" / "replicas-one-edge.json"
    policy = load_policy(str(path))
    assert policy.name == "replicas-one-edge"
    assert policy.effective_level() == PatternLevel.STATEFUL_CACHING
    assert policy.update_mode == UpdateMode.SYNC
    assert policy.components["Category"].replicas == ("main", "edge1")
    # It is consistent with the application it was written for.
    app = petstore.build_application()
    assert policy.validation_errors(app) == []


# ---------------------------------------------------------------------------
# Static validation against the application
# ---------------------------------------------------------------------------


def test_validation_unknown_component():
    app = tiny_application()
    policy = PlacementPolicy(
        name="bad", components={"Ghost": ComponentPolicy(deploy=("main",))}
    )
    errors = policy.validation_errors(app)
    assert any("unknown component 'Ghost'" in e for e in errors)


def test_validation_entity_must_stay_on_main():
    app = tiny_application()
    policy = PlacementPolicy(
        name="bad", components={"Note": ComponentPolicy(deploy=("all",))}
    )
    assert any("single-master" in e for e in policy.validation_errors(app))


def test_validation_replicas_need_read_mostly():
    app = tiny_application(read_mostly=False)
    policy = PlacementPolicy(
        name="bad",
        components={"Note": ComponentPolicy(deploy=("main",), replicas=("edges",))},
    )
    assert any("read-mostly" in e for e in policy.validation_errors(app))


def test_validation_replicas_only_on_entities():
    app = tiny_application()
    policy = PlacementPolicy(
        name="bad",
        components={"NotesFacade": ComponentPolicy(deploy=("all",), replicas=("edges",))},
    )
    assert any("not an entity bean" in e for e in policy.validation_errors(app))


def test_validation_servlet_must_cover_main():
    app = tiny_application()
    policy = PlacementPolicy(
        name="bad",
        components={"servlet.Notes": ComponentPolicy(deploy=("edges",))},
    )
    assert any("entry server" in e for e in policy.validation_errors(app))


def test_validation_query_caches_need_declarations():
    app = tiny_application()
    app.query_caches = {}
    policy = PlacementPolicy(name="bad", query_caches=("all",))
    assert any("declares none" in e for e in policy.validation_errors(app))


def test_planner_raises_on_invalid_policy():
    app = tiny_application()
    policy = PlacementPolicy(
        name="bad", components={"Ghost": ComponentPolicy(deploy=("main",))}
    )
    with pytest.raises(PlanError, match="Ghost"):
        plan_deployment(app, "main", ["edge1"], policy)


# ---------------------------------------------------------------------------
# Legacy-planner equivalence: the five canned policies reproduce the old
# pattern-level pipeline exactly, for every level, app and edge count.
# ---------------------------------------------------------------------------


def _legacy_configure(application, level):
    """Verbatim behavior of the pre-policy ``configure_for_level``."""
    mode = UpdateMode.ASYNC if level >= PatternLevel.ASYNC_UPDATES else UpdateMode.SYNC
    for name, descriptor in list(application.components.items()):
        if descriptor.read_mostly is None:
            continue
        if level < PatternLevel.STATEFUL_CACHING:
            descriptor.read_mostly = None
        else:
            descriptor.read_mostly = replace(descriptor.read_mostly, update_mode=mode)
    if level < PatternLevel.QUERY_CACHING:
        application.query_caches = {}
    else:
        application.query_caches = {
            query_id: replace(cache, update_mode=mode)
            for query_id, cache in application.query_caches.items()
        }
    if (
        level >= PatternLevel.STATEFUL_CACHING
        and UPDATER_FACADE not in application.components
    ):
        application.add(updater_facade_descriptor())
    if (
        level >= PatternLevel.ASYNC_UPDATES
        and UPDATE_SUBSCRIBER not in application.components
    ):
        application.add(update_subscriber_descriptor())
    application.validate()


def _legacy_plan(application, main, edges, level):
    """Verbatim placement rules of the pre-policy planner."""
    everywhere = [main] + list(edges)
    placements, replicas, caches = {}, {}, []
    for name, descriptor in application.components.items():
        if descriptor.kind in (ComponentKind.SERVLET, ComponentKind.STATEFUL_SESSION):
            placement = (
                [main] if level < PatternLevel.REMOTE_FACADE else list(everywhere)
            )
        elif descriptor.kind == ComponentKind.STATELESS_SESSION:
            placement = [main]
            threshold = descriptor.edge_from_level
            if threshold is not None and level >= threshold:
                placement = list(everywhere)
        elif descriptor.kind == ComponentKind.ENTITY:
            placement = [main]
            if descriptor.read_mostly is not None:
                replicas[name] = list(everywhere)
        else:  # MESSAGE_DRIVEN
            placement = (
                list(everywhere) if level >= PatternLevel.ASYNC_UPDATES else [main]
            )
        placements[name] = placement
    if level >= PatternLevel.QUERY_CACHING and application.query_caches:
        caches = list(everywhere)
    return placements, replicas, caches


EDGE_SETS = (
    ["edge1", "edge2"],  # the paper's testbed
    ["edge1"],
    ["edge1", "edge2", "edge3", "edge4"],
)


@pytest.mark.parametrize("build", [petstore.build_application, rubis.build_application])
@pytest.mark.parametrize("level", list(PAPER_LEVELS))
def test_level_policy_matches_legacy_planner(build, level):
    for edges in EDGE_SETS:
        legacy_app = build(level)
        _legacy_configure(legacy_app, level)
        placements, replicas, caches = _legacy_plan(legacy_app, "main", edges, level)

        new_app = build(level)
        policy = level_policy(level, new_app)
        apply_policy(new_app, policy)
        plan = plan_deployment(new_app, "main", edges, policy)

        assert plan.placements == placements, (level, edges)
        assert plan.replicas == replicas, (level, edges)
        assert plan.query_cache_servers == caches, (level, edges)


@pytest.mark.parametrize("level", list(PAPER_LEVELS))
def test_configure_for_level_still_compiles_policies(level):
    """Applying a level's canned policy behaves like the old automation
    pass (``configure_for_level``, which this pipeline replaced)."""
    legacy_app = tiny_application()
    _legacy_configure(legacy_app, level)
    new_app = tiny_application()
    apply_policy(new_app, level_policy(level, new_app))
    assert set(new_app.components) == set(legacy_app.components)
    assert set(new_app.query_caches) == set(legacy_app.query_caches)
    for name, descriptor in new_app.components.items():
        legacy = legacy_app.components[name]
        assert (descriptor.read_mostly is None) == (legacy.read_mostly is None), name
        if descriptor.read_mostly is not None:
            assert descriptor.read_mostly.update_mode == legacy.read_mostly.update_mode


# ---------------------------------------------------------------------------
# Entry servers and the static precheck
# ---------------------------------------------------------------------------


def test_entry_servers_follow_web_tier():
    app = tiny_application()
    plan = plan_deployment(
        app, "main", ["edge1", "edge2"], level_policy(PatternLevel.CENTRALIZED, app)
    )
    assert plan.entry_servers == ["main"]
    app = tiny_application()
    plan = plan_deployment(
        app, "main", ["edge1", "edge2"], level_policy(PatternLevel.REMOTE_FACADE, app)
    )
    assert plan.entry_servers == ["main", "edge1", "edge2"]


def test_entry_servers_partial_web_tier():
    """Servlets on main+edge1 only: edge2 is not an entry server."""
    app = tiny_application()
    policy = PlacementPolicy(
        name="one-edge-web",
        components={
            "servlet.Notes": ComponentPolicy(deploy=("main", "edge1")),
            "NotesFacade": ComponentPolicy(deploy=("main", "edge1")),
        },
    )
    apply_policy(app, policy)
    plan = plan_deployment(app, "main", ["edge1", "edge2"], policy)
    assert plan.entry_servers == ["main", "edge1"]
    report = precheck(app, plan)
    assert report.ok
    assert report.checked_rules == ["R1", "R3"]


def _with_stateful_session(app):
    """Add a stateful session bean to the tiny application."""
    from repro.middleware.descriptors import ComponentDescriptor
    from repro.middleware.ejb import StatefulSessionBean

    class NoteSessionBean(StatefulSessionBean):
        pass

    app.add(
        ComponentDescriptor(
            name="NoteSession",
            kind=ComponentKind.STATEFUL_SESSION,
            impl=NoteSessionBean,
            remote_interface=False,
        )
    )
    app.validate()
    return app


def test_precheck_catches_session_state_gap():
    """Web tier at every edge but session state pinned to main: R3 fires
    before any simulation runs."""
    app = _with_stateful_session(tiny_application())
    policy = PlacementPolicy(
        name="session-on-main",
        components={
            "servlet.Notes": ComponentPolicy(deploy=("all",)),
            "NotesFacade": ComponentPolicy(deploy=("all",)),
            "NoteSession": ComponentPolicy(deploy=("main",)),
        },
    )
    apply_policy(app, policy)
    plan = plan_deployment(app, "main", ["edge1", "edge2"], policy)
    report = precheck(app, plan)
    assert not report.ok
    assert [violation.rule for violation in report.violations] == ["R3"]
    assert "NoteSession" in str(report.violations[0])


def test_precheck_centralized_skips_r3():
    app = tiny_application()
    plan = plan_deployment(
        app, "main", ["edge1"], level_policy(PatternLevel.CENTRALIZED, app)
    )
    report = precheck(app, plan)
    assert report.checked_rules == ["R1"]
