"""The parent commit's ``collect_cache_stats``, kept as an oracle.

``reference_cache_stats`` is the body of
``repro.obs.metrics.collect_cache_stats`` as it stood before the edge-state
mechanisms became the consistency chain's members, copied literally — only
the function's name changed.  It walks ``system.servers`` and reads each
mechanism through the server's typed accessors (``method_cache``,
``query_cache``, ``readonly_container``), naming all three;
``test_cache_stats_equivalence.py`` demands the chain walk return the same
dict.  Do not "tidy" this file: its value is that it is the old code.
"""

from __future__ import annotations

from typing import Dict


def reference_cache_stats(system) -> dict:
    """Query-cache and read-only replica counters, in canonical nesting.

    ``{"query_cache": {server: {query_id: {...}}}, "replicas": {server:
    {component: {...}}}}`` — the per-container evidence behind the
    paper's caching claims, previously discarded when a worker process
    exited.  Keys are sorted so the dict is deterministic and directly
    comparable across runs.
    """
    query_cache: Dict[str, dict] = {}
    replicas: Dict[str, dict] = {}
    method_cache: Dict[str, dict] = {}
    for server_name in sorted(system.servers):
        server = system.servers[server_name]
        if server.method_cache is not None:
            method_cache[server_name] = server.method_cache.stats.as_dict()
        if server.query_cache is not None:
            query_cache[server_name] = {
                query_id: server.query_cache.stats[query_id].as_dict()
                for query_id in sorted(server.query_cache.stats)
            }
        replica_stats = {}
        for name in sorted(system.plan.replicas):
            container = server.readonly_container(name)
            if container is None:
                continue
            replica_stats[name] = {
                "hits": container.hits,
                "misses": container.misses,
                "refreshes": container.refreshes,
                "invalidations": container.invalidations,
            }
        if replica_stats:
            replicas[server_name] = replica_stats
    stats = {"query_cache": query_cache, "replicas": replicas}
    # The method-cache section exists only when level 6 is active, so
    # levels 1-5 keep emitting byte-identical cache-stat dicts.
    if method_cache:
        stats["method_cache"] = method_cache
    return stats
