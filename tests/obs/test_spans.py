"""Span-tree construction across RMI, JDBC and JMS boundaries.

The load-bearing properties: every client page request forms exactly one
span tree rooted at its HTTP span; at the remote-façade level a remote
client's tree contains exactly one wide-area RMI span on the client
path; asynchronous JMS deliveries attach to their publish span, so
replica maintenance is excluded from the client path structurally.
"""

import pytest

from repro.core.patterns import PatternLevel
from repro.core.rules import check_rules
from repro.experiments import calibration
from repro.experiments.runner import run_configuration
from repro.middleware.updates import UPDATER_FACADE
from repro.obs.spans import (
    MAINTENANCE_KINDS,
    Span,
    SpanRecorder,
    build_trees,
    client_path_wan_calls,
)

FAST = calibration.default_workload(duration_ms=20_000.0, warmup_ms=5_000.0)
LONG = calibration.default_workload(duration_ms=60_000.0, warmup_ms=5_000.0)


@pytest.fixture(scope="module")
def facade_result():
    """Pet Store at the remote-façade level with span recording on."""
    return run_configuration(
        "petstore",
        PatternLevel.REMOTE_FACADE,
        workload=FAST,
        seed=7,
        with_spans=True,
    )


@pytest.fixture(scope="module")
def async_result():
    """Pet Store at level 5 (long enough for buyer writes to commit)."""
    return run_configuration(
        "petstore",
        PatternLevel.ASYNC_UPDATES,
        workload=LONG,
        seed=7,
        with_spans=True,
    )


# -- recorder unit behaviour -------------------------------------------------


def test_recorder_disabled_records_nothing():
    """Spans off is no recorder at all, on every server of the run."""
    result = run_configuration(
        "petstore", PatternLevel.REMOTE_FACADE, workload=FAST, seed=7
    )
    assert result.spans is None and result.spans_state is None
    assert result.system.trace is None
    assert all(server.trace is None for server in result.system.servers.values())


def test_recorder_max_spans_counts_drops_and_keeps_ids_stable():
    recorder = SpanRecorder(max_spans=2)
    first = recorder.start_span("http", "a", node="n", time=0.0)
    second = recorder.start_span("rmi", "b", node="n", time=1.0)
    dropped = recorder.start_span("jdbc", "c", node="n", time=2.0)
    survivor = SpanRecorder(max_spans=3)
    for name in ("a", "b", "c"):
        survivor.start_span("http", name, node="n", time=0.0)
    assert dropped is None and recorder.dropped == 1
    assert [first.id, second.id] == [1, 2]
    # The dropped span consumed id 3: a later recorder with room gives
    # the same ids to the same sequence of starts.
    assert [span.id for span in survivor.spans] == [1, 2, 3]


def test_state_roundtrip_preserves_spans_and_dropped():
    recorder = SpanRecorder(max_spans=1)
    span = recorder.start_span(
        "http", "GET Main", node="client-1", time=5.0,
        request_id=9, page="Main", group="remote",
    )
    recorder.start_span("rmi", "over", node="main", time=6.0)  # dropped
    recorder.finish_span(span, 17.5)
    restored = SpanRecorder.from_state(recorder.to_state())
    assert restored.dropped == 1
    assert len(restored.spans) == 1
    copy = restored.spans[0]
    assert (copy.id, copy.kind, copy.page, copy.start, copy.end) == (
        span.id, "http", "Main", 5.0, 17.5,
    )
    # Ids continue past the highest restored id.
    fresh = restored.start_span("jdbc", "q", node="main", time=20.0)
    assert fresh.id > span.id


def test_build_trees_orphans_become_roots():
    spans = [
        Span(id=1, parent_id=None, request_id=1, kind="http", name="r", node="n", start=0),
        Span(id=2, parent_id=1, request_id=1, kind="rmi", name="c", node="n", start=1),
        Span(id=3, parent_id=99, request_id=2, kind="jdbc", name="o", node="n", start=2),
    ]
    trees = build_trees(spans)
    assert [tree.root.id for tree in trees] == [1, 3]
    assert trees[0].size() == 2


# -- trees from a real run ---------------------------------------------------


def test_every_page_request_is_one_http_rooted_tree(facade_result):
    spans = facade_result.spans
    assert spans.dropped == 0
    assert not spans.unfinished()
    trees = spans.trees()
    http_spans = spans.by_kind("http")
    assert len(trees) == len(http_spans) > 0
    assert all(tree.root.kind == "http" for tree in trees)
    # Request ids never mix between trees: one tree per page request.
    for tree in trees:
        ids = {span.request_id for span in tree.walk(skip_kinds=MAINTENANCE_KINDS)}
        assert ids == {tree.root.request_id}


def test_remote_facade_trees_have_one_wan_rmi_on_client_path(facade_result):
    exclude = frozenset({UPDATER_FACADE})
    remote_trees = [
        tree for tree in facade_result.spans.trees() if not tree.root.group.startswith("local-")
    ]
    assert remote_trees
    for tree in remote_trees:
        count = client_path_wan_calls(tree, exclude_targets=exclude)
        budget = 2 if tree.root.page == "Verify Signin" else 1
        assert count <= budget, f"{tree.root.page}: {count} WAN calls"
    # And the façade pattern actually uses the WAN: at least one tree
    # with exactly one wide-area RMI.
    assert any(
        client_path_wan_calls(tree, exclude_targets=exclude) == 1
        for tree in remote_trees
    )


def test_jdbc_spans_nest_under_the_facade_rmi(facade_result):
    """A remote client's JDBC work happens inside the RMI subtree."""
    for tree in facade_result.spans.trees():
        if tree.root.group.startswith("local-"):
            continue
        rmi_subtree_ids = set()
        for span in tree.walk(skip_kinds=MAINTENANCE_KINDS):
            if span.kind == "rmi":
                stack = [span]
                while stack:
                    current = stack.pop()
                    rmi_subtree_ids.add(current.id)
                    stack.extend(tree.children_of(current))
        for span in tree.walk(skip_kinds=MAINTENANCE_KINDS):
            if span.kind == "jdbc":
                assert span.id in rmi_subtree_ids


def test_design_rule_checker_uses_span_trees(facade_result):
    report = check_rules(
        facade_result.system, facade_result.spans, page_exceptions={"Verify Signin": 2}
    )
    assert report.ok, report.summary()
    assert "R2" in report.checked_rules
    assert report.metrics["max_wan_calls_seen"] >= 1.0


# -- asynchronous boundaries --------------------------------------------------


def test_jms_deliveries_attach_to_their_publish_span(async_result):
    spans = async_result.spans
    by_id = {span.id: span for span in spans.spans}
    deliveries = spans.by_kind("jms-delivery")
    publishes = spans.by_kind("jms")
    assert publishes and deliveries
    for delivery in deliveries:
        parent = by_id[delivery.parent_id]
        assert parent.kind == "jms"
    # Every publish sits under a "propagate" span, which keeps the
    # whole maintenance subtree off the client path.
    for publish in publishes:
        assert by_id[publish.parent_id].kind == "propagate"


def test_async_updates_keep_client_path_clean(async_result):
    exclude = frozenset({UPDATER_FACADE})
    for tree in async_result.spans.trees():
        if tree.root.kind != "http":
            continue
        budget = 2 if tree.root.page == "Verify Signin" else 1
        assert client_path_wan_calls(tree, exclude_targets=exclude) <= budget


def test_r2_is_not_checked_on_a_truncated_span_table(facade_result):
    """A truncated recorder must not pass R2: it is reported unchecked."""
    system = facade_result.system
    # The complete table flags Verify Signin's two calls (no exception).
    assert [v.subject for v in check_rules(system).violations_of("R2")] == ["Verify Signin"]
    truncated = SpanRecorder.from_state(facade_result.spans.to_state())
    truncated.dropped = 5
    report = check_rules(system, truncated)
    assert report.checked_rules == ["R1", "R3"]
    assert "max_wan_calls_seen" not in report.metrics
    assert report.ok, report.summary()


# -- deterministic per-session sampling ---------------------------------------


def test_sample_decision_is_deterministic_across_recorders():
    """Same session id, same verdict, in every process — CRC32, not hash()."""
    ids = [f"client-{i}-session-{j}" for i in range(8) for j in range(40)]
    first = SpanRecorder(sample_rate=0.25)
    second = SpanRecorder(sample_rate=0.25)
    assert [first.sample(s) for s in ids] == [second.sample(s) for s in ids]
    # The hash spreads: the kept fraction lands near the rate.
    assert 0.15 < first.sampled_requests / len(ids) < 0.35
    assert first.sampled_requests + first.skipped_requests == len(ids)


def test_sample_rate_one_keeps_everything():
    recorder = SpanRecorder()
    assert all(recorder.sample(f"s{i}") for i in range(50))
    assert recorder.skipped_requests == 0
    assert recorder.sampled_requests == 50


def test_sample_rate_validated():
    import pytest as _pytest

    for rate in (0.0, -0.1, 1.5):
        with _pytest.raises(ValueError):
            SpanRecorder(sample_rate=rate)


def test_sampling_state_keys_only_present_when_sampling():
    full = SpanRecorder()
    assert "sample_rate" not in full.to_state()  # legacy artifacts unchanged
    sampled = SpanRecorder(sample_rate=0.5)
    sampled.sample("a")
    sampled.sample("b")
    state = sampled.to_state()
    assert state["sample_rate"] == 0.5
    assert state["sampled_requests"] + state["skipped_requests"] == 2
    restored = SpanRecorder.from_state(state)
    assert restored.sample_rate == 0.5
    assert restored.sampled_requests == state["sampled_requests"]


def test_trace_summary_reports_sampled_fraction():
    """The CLI's per-cell ``[trace]`` line states the sampled share."""
    from repro.experiments.__main__ import _span_digest

    full = SpanRecorder()
    full.start_span("http", "GET x", node="n", time=0.0)
    assert "spans sampled" not in _span_digest(full.to_state())
    sampled = SpanRecorder(sample_rate=0.25)
    for session in ("a", "b", "c", "d", "e", "f", "g", "h"):
        sampled.sample(session)
    kept, skipped = sampled.sampled_requests, sampled.skipped_requests
    assert f"spans sampled {kept}/{kept + skipped} requests (rate 0.25)" in _span_digest(
        sampled.to_state()
    )
