"""Span rows and span trees across RMI, JDBC and JMS boundaries.

The load-bearing properties: every client page request forms exactly one
span tree rooted at its HTTP span; at the remote-façade level a remote
client's tree contains exactly one wide-area RMI span on the client
path; asynchronous JMS deliveries attach to their publish span, so
replica maintenance is excluded from the client path structurally.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.patterns import PatternLevel
from repro.core.rules import MAINTENANCE_KINDS, check_rules, client_path_wan_calls
from repro.experiments import calibration, run_cells
from repro.experiments.runner import run_configuration
from repro.middleware.updates import UPDATER_FACADE
from repro.obs import spans as spans_module
from repro.obs.spans import SpanRecorder, fold_paths
from tests.obs import reference_spans

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


def _roots(rows):
    """Span id -> the root row of its tree (parents looked up by id)."""
    return fold_paths(rows, lambda span: span, lambda root, span: root)


# -- recorder unit behaviour -------------------------------------------------


def test_recorder_disabled_records_nothing():
    """Spans off is no recorder at all, on every server of the run."""
    result = run_configuration(
        "petstore", PatternLevel.REMOTE_FACADE, workload=FAST, seed=7
    )
    assert result.measurements["spans"] is None
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
    assert [first["id"], second["id"]] == [1, 2]
    # The dropped span consumed id 3: a later recorder with room gives
    # the same ids to the same sequence of starts.
    assert [span["id"] for span in survivor.spans] == [1, 2, 3]


def test_a_span_is_a_row_and_the_state_hands_it_out():
    """Unset optionals are left out; the state is the rows themselves."""
    recorder = SpanRecorder(max_spans=1)
    span = recorder.start_span(
        "http", "GET Main", node="client-1", time=5.0,
        request_id=9, page="Main", group="remote",
    )
    recorder.start_span("rmi", "over", node="main", time=6.0)  # dropped
    recorder.finish_span(span, 17.5)
    assert span == {
        "id": 1, "parent_id": None, "request_id": 9, "kind": "http",
        "name": "GET Main", "node": "client-1", "start": 5.0, "end": 17.5,
        "wide_area": False, "page": "Main", "group": "remote",
    }
    state = recorder.to_state()
    assert state == {"dropped": 1, "spans": [span]}
    assert state["spans"][0] is span


# -- R2's walk against the tree walk it replaced -----------------------------

# The table the tree builder's orphan case used: a span whose parent was
# truncated away roots its own (non-HTTP, so unchecked) tree.
ORPHANS = [
    {"id": 1, "parent_id": None, "request_id": 1, "kind": "http", "name": "r",
     "node": "n", "start": 0, "end": 3, "wide_area": False, "page": "Main"},
    {"id": 2, "parent_id": 1, "request_id": 1, "kind": "rmi", "name": "c",
     "node": "n", "start": 1, "end": 2, "wide_area": True},
    {"id": 3, "parent_id": 99, "request_id": 2, "kind": "jdbc", "name": "o",
     "node": "n", "start": 2, "end": None, "wide_area": True},
]

KINDS = ("http", "invoke", "rmi", "jdbc", "propagate", "jms", "jms-delivery", "fault")


@st.composite
def span_tables(draw):
    """Random parent forests in shuffled row order: ids with gaps (dropped
    spans), parents that are earlier rows, gaps (truncated away) or None,
    maintenance kinds, updater-façade targets and unfinished spans."""
    count = draw(st.integers(0, 40))
    rows, ids = [], []
    next_id = 1
    for _ in range(count):
        next_id += draw(st.sampled_from((0, 0, 0, 1, 3)))  # dropped ids
        span_id = next_id
        next_id += 1
        parent = draw(st.sampled_from(("none", "earlier", "earlier", "earlier", "gap")))
        if parent == "earlier" and ids:
            parent_id = draw(st.sampled_from(ids))
        elif parent == "gap":
            parent_id = span_id - 1 if span_id - 1 not in ids else None
        else:
            parent_id = None
        row = {
            "id": span_id, "parent_id": parent_id, "request_id": draw(st.integers(1, 4)),
            "kind": draw(st.sampled_from(KINDS)), "name": "s", "node": "n",
            "start": 0.0, "end": draw(st.sampled_from((None, 1.0))),
            "wide_area": draw(st.booleans()),
        }
        page = draw(st.sampled_from((None, "Main", "Bid")))
        if page is not None:
            row["page"] = page
        target = draw(st.sampled_from((None, UPDATER_FACADE, "ItemFacade")))
        if target is not None:
            row["target"] = target
        rows.append(row)
        ids.append(span_id)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(span_tables())
@example(ORPHANS)
def test_r2_walk_matches_the_tree_walk(rows):
    assert client_path_wan_calls(rows) == reference_spans.worst_wan_calls(rows)


def test_orphans_root_their_own_trees():
    assert {span_id: root["id"] for span_id, root in _roots(ORPHANS).items()} == {
        1: 1, 2: 1, 3: 3,
    }
    assert client_path_wan_calls(ORPHANS) == {"Main": 1}


def test_r2_walk_matches_the_tree_walk_on_the_d20_cells():
    cells = run_cells(
        [(app, level) for app in ("petstore", "rubis") for level in (2, 3, 4, 5)],
        workload=FAST, seed=2003, with_spans=True, jobs=1,
    )
    for cell, result in cells.items():
        rows = result.measurements["spans"]["spans"]
        worst = client_path_wan_calls(rows)
        assert worst, cell
        assert worst == reference_spans.worst_wan_calls(rows), cell


# -- trees from a real run ---------------------------------------------------


def test_every_page_request_is_one_http_rooted_tree(facade_result):
    state = facade_result.measurements["spans"]
    rows = state["spans"]
    assert state["dropped"] == 0
    assert all(span["end"] is not None for span in rows)
    # Each span's root, and whether its path below the root crosses a
    # maintenance subtree.
    paths = fold_paths(
        rows,
        lambda span: (span, False),
        lambda path, span: (path[0], path[1] or span["kind"] in MAINTENANCE_KINDS),
    )
    roots = [span for span in rows if paths[span["id"]][0] is span]
    http_spans = [span for span in rows if span["kind"] == "http"]
    assert len(roots) == len(http_spans) > 0
    assert all(root["kind"] == "http" for root in roots)
    # Request ids never mix between trees: one tree per page request.
    for span in rows:
        root, maintenance = paths[span["id"]]
        if not maintenance:
            assert span["request_id"] == root["request_id"]


def test_remote_facade_trees_have_one_wan_rmi_on_client_path(facade_result):
    rows = facade_result.measurements["spans"]["spans"]
    roots = _roots(rows)
    remote = [span for span in rows if not roots[span["id"]]["group"].startswith("local-")]
    worst = client_path_wan_calls(remote)
    assert worst
    for page, count in worst.items():
        budget = 2 if page == "Verify Signin" else 1
        assert count <= budget, f"{page}: {count} WAN calls"
    # And the façade pattern actually uses the WAN: at least one tree
    # with exactly one wide-area RMI.
    assert 1 in worst.values()


def test_jdbc_spans_nest_under_the_facade_rmi(facade_result):
    """A remote client's JDBC work happens inside the RMI subtree."""
    rows = facade_result.measurements["spans"]["spans"]
    # (root, maintenance span on the path, RMI span on the path)
    paths = fold_paths(
        rows,
        lambda span: (span, False, False),
        lambda path, span: (
            path[0],
            path[1] or span["kind"] in MAINTENANCE_KINDS,
            path[2] or span["kind"] == "rmi",
        ),
    )
    checked = 0
    for span in rows:
        root, maintenance, under_rmi = paths[span["id"]]
        if span["kind"] == "jdbc" and not maintenance and not root["group"].startswith("local-"):
            assert under_rmi, span
            checked += 1
    assert checked


def test_design_rule_checker_uses_span_trees(facade_result):
    report = check_rules(facade_result.system, page_exceptions={"Verify Signin": 2})
    assert report.ok, report.summary()
    assert "R2" in report.checked_rules
    assert report.metrics["max_wan_calls_seen"] >= 1.0


# -- asynchronous boundaries --------------------------------------------------


def test_jms_deliveries_attach_to_their_publish_span(async_result):
    rows = async_result.measurements["spans"]["spans"]
    by_id = {span["id"]: span for span in rows}
    deliveries = [span for span in rows if span["kind"] == "jms-delivery"]
    publishes = [span for span in rows if span["kind"] == "jms"]
    assert publishes and deliveries
    for delivery in deliveries:
        parent = by_id[delivery["parent_id"]]
        assert parent["kind"] == "jms"
    # Every publish sits under a "propagate" span, which keeps the
    # whole maintenance subtree off the client path.
    for publish in publishes:
        assert by_id[publish["parent_id"]]["kind"] == "propagate"


def test_async_updates_keep_client_path_clean(async_result):
    worst = client_path_wan_calls(async_result.measurements["spans"]["spans"])
    assert worst
    for page, count in worst.items():
        budget = 2 if page == "Verify Signin" else 1
        assert count <= budget, f"{page}: {count} WAN calls"


def test_r2_is_not_checked_on_a_truncated_span_table(facade_result):
    """A truncated recorder must not pass R2: it is reported unchecked."""
    system = facade_result.system
    # The complete table flags Verify Signin's two calls (no exception).
    assert [v.subject for v in check_rules(system).violations_of("R2")] == ["Verify Signin"]
    truncated = SpanRecorder()
    truncated.spans = list(system.trace.spans)
    truncated.dropped = 5
    report = check_rules(system, truncated)
    assert report.checked_rules == ["R1", "R3"]
    assert "max_wan_calls_seen" not in report.metrics
    assert report.ok, report.summary()


def test_a_full_span_table_drops_spans_and_serves_every_page(monkeypatch):
    """Once ``max_spans`` is reached, a traced page still serves: its
    spans are dropped and counted, and R2 is reported unchecked."""

    class Capped(SpanRecorder):
        def __init__(self, max_spans=None, sample_rate=1.0):
            super().__init__(max_spans=300, sample_rate=sample_rate)

    monkeypatch.setattr(spans_module, "SpanRecorder", Capped)
    result = run_configuration(
        "rubis", PatternLevel.ASYNC_UPDATES, workload=FAST, seed=2003, with_spans=True
    )
    state = result.measurements["spans"]
    assert len(state["spans"]) == 300 and state["dropped"] > 0
    assert result.generator.errors == 0, result.generator.error_kinds
    report = check_rules(result.system)
    assert "R2" not in report.checked_rules
    assert "R1" in report.checked_rules


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
