"""Benchmark: regenerate Table 6 — Pet Store per-page response times.

Runs all five configurations under the paper's workload (30 req/s, 80/20
browser/buyer mix), prints the table in the paper's layout, and asserts
the qualitative shape of every configuration's row.
"""

from __future__ import annotations

import pytest

# Full-fidelity sweep: minutes of wall clock.  Excluded from the CI
# smoke job (`-m "not slow"`).
pytestmark = pytest.mark.slow

from repro.core.patterns import PatternLevel
from repro.experiments.tables import build_table, render_table

from conftest import series_for


def test_table6_petstore(benchmark):
    series = benchmark.pedantic(
        lambda: series_for("petstore"), rounds=1, iterations=1
    )
    table = build_table(series)
    print()
    print(render_table(table))

    def mean(level, locality, page):
        return table.mean(level, locality, page)

    L = PatternLevel
    # §4.1 — centralized: every remote page pays ~2 WAN round trips.
    for page in table.pages:
        gap = mean(L.CENTRALIZED, "remote", page) - mean(L.CENTRALIZED, "local", page)
        assert 330.0 < gap < 480.0, (page, gap)

    # §4.2 — façade: session pages local for remote buyers; shared-data
    # pages cost one RMI; Verify Signin costs two.
    for page in ("Main", "Signin", "Checkout", "Place Order", "Billing", "Signout"):
        assert mean(L.REMOTE_FACADE, "remote", page) < 110.0, page
    for page in ("Category", "Product", "Item"):
        assert 200.0 < mean(L.REMOTE_FACADE, "remote", page) < 450.0, page
    assert mean(L.REMOTE_FACADE, "remote", "Verify Signin") > 1.6 * mean(
        L.REMOTE_FACADE, "remote", "Shopping Cart"
    )

    # §4.3 — replicas: Item and Shopping Cart local; Commit blocked.
    assert mean(L.STATEFUL_CACHING, "remote", "Item") < 120.0
    assert mean(L.STATEFUL_CACHING, "remote", "Shopping Cart") < 120.0
    for locality in ("local", "remote"):
        assert (
            mean(L.STATEFUL_CACHING, locality, "Commit Order")
            > mean(L.REMOTE_FACADE, locality, "Commit Order") + 150.0
        ), locality

    # §4.4 — query caches: Category/Product local; Search still remote.
    assert mean(L.QUERY_CACHING, "remote", "Category") < 120.0
    assert mean(L.QUERY_CACHING, "remote", "Product") < 120.0
    assert mean(L.QUERY_CACHING, "remote", "Search") > 200.0

    # §4.5 — async: Commit recovers; reads stay local.
    for locality in ("local", "remote"):
        assert (
            mean(L.ASYNC_UPDATES, locality, "Commit Order")
            < mean(L.QUERY_CACHING, locality, "Commit Order") - 150.0
        ), locality
    assert mean(L.ASYNC_UPDATES, "remote", "Item") < 120.0
