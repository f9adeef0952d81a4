"""Benchmarks for the design-choice ablations (experiment index E8)."""

from __future__ import annotations

from repro.experiments import ablations


def test_stub_caching_ablation(benchmark):
    """EJBHomeFactory stub caching roughly halves remote façade latency."""
    results = benchmark.pedantic(ablations.ablate_stub_caching, rounds=1, iterations=1)
    print(f"\nstub caching: {results}")
    assert results["uncached"] > results["cached"] + 300.0


def test_entity_lifecycle_ablation(benchmark):
    """The §3.4 fixes shave measurable time off entity-heavy pages."""
    results = benchmark.pedantic(
        ablations.ablate_entity_lifecycle, rounds=1, iterations=1
    )
    print(f"\nentity lifecycle: {results}")
    assert results["unoptimized:verify"] > results["optimized:verify"]


def test_keep_alive_ablation(benchmark):
    """Keep-alive removes one of the two WAN round trips of §4.1."""
    results = benchmark.pedantic(ablations.ablate_keep_alive, rounds=1, iterations=1)
    print(f"\nkeep-alive: {results}")
    saved = results["no-keep-alive"] - results["keep-alive"]
    assert 150.0 < saved < 260.0  # ~one 200 ms round trip


def test_refresh_mode_ablation(benchmark):
    """Pull refresh penalizes the first reader after every write (§4.3)."""
    results = benchmark.pedantic(ablations.ablate_refresh_mode, rounds=1, iterations=1)
    print(f"\nrefresh mode: {results}")
    assert results["pull"] > results["push"] + 100.0


def test_edge_jdbc_ablation(benchmark):
    """Direct JDBC from the edge web tier is catastrophic vs the façade."""
    results = benchmark.pedantic(ablations.ablate_edge_jdbc, rounds=1, iterations=1)
    print(f"\nedge JDBC: {results}")
    assert results["edge-jdbc:category"] > 2.5 * results["facade:category"]
    assert results["edge-jdbc:item"] > 2.5 * results["facade:item"]


def test_commit_batch_scaling(benchmark):
    """Write latency grows with cart size under blocking pushes and stays
    flat(ter) under asynchronous updates (§4.5's scalability argument)."""
    results = benchmark.pedantic(
        ablations.ablate_commit_batch, args=((1, 2, 4, 8),), rounds=1, iterations=1
    )
    print(f"\ncommit batch: {results}")
    sync, asynchronous = results["sync"], results["async"]
    assert sync[8] > sync[1]  # more fine-grained updates, more latency
    for size in (1, 2, 4, 8):
        assert asynchronous[size] < sync[size] - 200.0, size
