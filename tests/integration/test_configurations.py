"""Integration tests asserting the paper's qualitative results.

These run scaled-down versions of the Tables 6/7 experiments (short
simulated durations, reduced load) and assert the *shapes* the paper
reports — who wins, in which direction each optimization moves each
page class — rather than absolute milliseconds.
"""

import pytest

from repro.core.patterns import PAPER_LEVELS, PatternLevel
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_configuration, run_series

WORKLOAD = default_workload(duration_ms=90_000.0, warmup_ms=25_000.0)


@pytest.fixture(scope="module")
def petstore_series():
    # run_configuration, not run_series: the sanity tests below read the
    # live generator and deployment, which only it returns.
    return {
        level: run_configuration("petstore", level, workload=WORKLOAD, seed=101)
        for level in PAPER_LEVELS
    }


@pytest.fixture(scope="module")
def rubis_series():
    return run_series("rubis", workload=WORKLOAD, seed=102)


# ---------------------------------------------------------------------------
# §4.1: centralized baseline
# ---------------------------------------------------------------------------


def test_centralized_remote_pays_two_wan_round_trips(petstore_series):
    result = petstore_series[PatternLevel.CENTRALIZED]
    for page in ("Main", "Category", "Item"):
        local = result.mean("local-browser", page)
        remote = result.mean("remote-browser", page)
        # "approximately an extra 400 ms ... two round trips"
        assert 350.0 < remote - local < 470.0, (page, local, remote)


def test_centralized_rubis_same_shape(rubis_series):
    result = rubis_series[PatternLevel.CENTRALIZED]
    gap = result.mean("remote-browser", "Item") - result.mean("local-browser", "Item")
    assert 350.0 < gap < 470.0


# ---------------------------------------------------------------------------
# §4.2: remote façade
# ---------------------------------------------------------------------------


def test_facade_makes_session_pages_local(petstore_series):
    result = petstore_series[PatternLevel.REMOTE_FACADE]
    for page in ("Main", "Signin", "Checkout", "Billing", "Signout"):
        assert result.mean("remote-buyer", page) < 100.0, page


def test_facade_shared_pages_cost_one_rmi(petstore_series):
    centralized = petstore_series[PatternLevel.CENTRALIZED]
    facade = petstore_series[PatternLevel.REMOTE_FACADE]
    for page in ("Category", "Product", "Item"):
        assert facade.mean("remote-browser", page) < centralized.mean(
            "remote-browser", page
        ), page
        assert facade.mean("remote-browser", page) > 150.0, page


def test_verify_signin_costs_two_rmi_calls(petstore_series):
    result = petstore_series[PatternLevel.REMOTE_FACADE]
    verify = result.mean("remote-buyer", "Verify Signin")
    cart = result.mean("remote-buyer", "Shopping Cart")
    # Verify Signin is the stated exception: two calls vs the cart's one.
    assert verify > cart * 1.5


# ---------------------------------------------------------------------------
# §4.3: stateful component caching
# ---------------------------------------------------------------------------


def test_replicas_make_entity_pages_local(petstore_series):
    facade = petstore_series[PatternLevel.REMOTE_FACADE]
    cached = petstore_series[PatternLevel.STATEFUL_CACHING]
    assert cached.mean("remote-browser", "Item") < 120.0
    assert facade.mean("remote-browser", "Item") > 200.0
    # The shopping cart page also becomes local (§4.3).
    assert cached.mean("remote-buyer", "Shopping Cart") < 120.0


def test_blocking_push_penalizes_writers(petstore_series):
    facade = petstore_series[PatternLevel.REMOTE_FACADE]
    cached = petstore_series[PatternLevel.STATEFUL_CACHING]
    for group in ("local-buyer", "remote-buyer"):
        assert cached.mean(group, "Commit Order") > facade.mean(
            group, "Commit Order"
        ) + 150.0, group


def test_rubis_store_pages_blocked_at_level3(rubis_series):
    facade = rubis_series[PatternLevel.REMOTE_FACADE]
    cached = rubis_series[PatternLevel.STATEFUL_CACHING]
    for page in ("Store Bid", "Store Comment"):
        assert cached.mean("local-bidder", page) > facade.mean(
            "local-bidder", page
        ) + 150.0, page


def test_aggregate_query_pages_still_remote_at_level3(petstore_series):
    cached = petstore_series[PatternLevel.STATEFUL_CACHING]
    assert cached.mean("remote-browser", "Category") > 200.0
    assert cached.mean("remote-browser", "Product") > 200.0


# ---------------------------------------------------------------------------
# §4.4: query caching
# ---------------------------------------------------------------------------


def test_query_caches_make_aggregate_pages_local(petstore_series):
    result = petstore_series[PatternLevel.QUERY_CACHING]
    assert result.mean("remote-browser", "Category") < 120.0
    assert result.mean("remote-browser", "Product") < 120.0


def test_keyword_search_stays_remote(petstore_series):
    result = petstore_series[PatternLevel.QUERY_CACHING]
    # "The Java Pet Store Search page performs a keyword query, which is
    # not cached, and hence it still incurs the cost of the remote call."
    assert result.mean("remote-browser", "Search") > 200.0


def test_rubis_remote_browser_indistinguishable_from_local(rubis_series):
    result = rubis_series[PatternLevel.QUERY_CACHING]
    remote = result.session_mean("remote-browser")
    local = result.session_mean("local-browser")
    # "the triumphal performance of RUBiS remote browser, now
    # indistinguishable from the local browser"
    assert remote < local + 25.0


# ---------------------------------------------------------------------------
# §4.5: asynchronous updates
# ---------------------------------------------------------------------------


def test_async_restores_writer_latency(petstore_series):
    cached = petstore_series[PatternLevel.STATEFUL_CACHING]
    asynchronous = petstore_series[PatternLevel.ASYNC_UPDATES]
    for group in ("local-buyer", "remote-buyer"):
        assert asynchronous.mean(group, "Commit Order") < cached.mean(
            group, "Commit Order"
        ) - 150.0, group


def test_async_keeps_reads_local(petstore_series):
    result = petstore_series[PatternLevel.ASYNC_UPDATES]
    assert result.mean("remote-browser", "Item") < 120.0
    assert result.mean("remote-browser", "Category") < 120.0


def test_rubis_async_summary_shape(rubis_series):
    """Figure 8's overall story: each group's best configuration."""
    means = {
        level: result.session_mean("remote-browser")
        for level, result in rubis_series.items()
    }
    # Remote browser improves monotonically (within noise) to local level.
    assert means[PatternLevel.ASYNC_UPDATES] < means[PatternLevel.REMOTE_FACADE]
    assert means[PatternLevel.REMOTE_FACADE] < means[PatternLevel.CENTRALIZED]
    bidder = {
        level: result.session_mean("remote-bidder")
        for level, result in rubis_series.items()
    }
    # Bidders: façade helps, blocking hurts, async recovers.
    assert bidder[PatternLevel.REMOTE_FACADE] < bidder[PatternLevel.CENTRALIZED]
    assert bidder[PatternLevel.STATEFUL_CACHING] > bidder[PatternLevel.QUERY_CACHING] - 100.0
    assert bidder[PatternLevel.ASYNC_UPDATES] < bidder[PatternLevel.STATEFUL_CACHING]


# ---------------------------------------------------------------------------
# Cross-cutting sanity
# ---------------------------------------------------------------------------


def test_load_is_served_at_configured_rate(petstore_series):
    for level, result in petstore_series.items():
        assert result.generator.achieved_rate_per_s() == pytest.approx(30.0, rel=0.1)


def test_servers_not_overstressed(petstore_series):
    """"CPU utilization ... never exceeded 40%" — we stay in that regime."""
    for level, result in petstore_series.items():
        for name, utilization in result.system.utilization_report().items():
            assert utilization < 0.55, (int(level), name, utilization)


def test_design_rules_hold_on_final_configuration():
    from repro.core.rules import check_rules

    result = run_configuration(
        "rubis",
        PatternLevel.ASYNC_UPDATES,
        workload=default_workload(duration_ms=45_000.0, warmup_ms=10_000.0),
        seed=103,
        with_spans=True,
    )
    report = check_rules(result.system, min_replica_hit_rate=0.3)
    assert report.ok, report.summary()


def test_design_rules_hold_for_petstore_with_stated_exception():
    """Pet Store passes R1-R5 given the paper's own exception: "The only
    exception is the Verify Signin page, which makes two RMI calls"."""
    from repro.core.rules import check_rules

    result = run_configuration(
        "petstore",
        PatternLevel.ASYNC_UPDATES,
        workload=default_workload(duration_ms=45_000.0, warmup_ms=10_000.0),
        seed=104,
        with_spans=True,
    )
    report = check_rules(
        result.system,
        page_exceptions={"Verify Signin": 2},
        min_replica_hit_rate=0.3,
    )
    assert report.ok, report.summary()
    # Without the exception, R2 must flag exactly that page.
    strict = check_rules(result.system, min_replica_hit_rate=0.3)
    flagged_pages = {v.subject for v in strict.violations_of("R2")}
    assert flagged_pages == {"Verify Signin"}
