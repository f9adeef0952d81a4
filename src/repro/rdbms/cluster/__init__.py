"""`repro.rdbms.cluster` — a sharded, raft-replicated data tier.

The paper's testbed keeps the database a single main-site process; this
package distributes the data tier itself, as declared by the
``data_tier`` block of a :class:`~repro.core.policy.PlacementPolicy`:

* :mod:`.config` — the declarative policy block (shards, replication);
* :mod:`.sharding` — statement routing + scatter-gather merging;
* :mod:`.raft` — per-shard replica groups with leader election, quorum
  commit and crash/partition catch-up over the simulated network;
* :mod:`.router` — the JDBC-compatible client surface the middleware
  routes through;
* :mod:`.stats` — the cluster counters exported to metrics/availability;
* :mod:`.tier` — :func:`build_cluster`, which assembles all of it.

Everything is built only when a policy declares a ``data_tier`` —
without one, no cluster object, RNG stream or counter ever exists,
which is the byte-identity contract for the canned policies.  Nor is
any module but :mod:`.config` imported: the policy reads only that.
"""

from ... import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ClusterConnection": "router",
    "ClusterDataSource": "router",
    "ClusterRoutingError": "sharding",
    "ClusterStats": "stats",
    "DataTierCluster": "tier",
    "DataTierError": "config",
    "DataTierPolicy": "config",
    "Partitioner": "sharding",
    "RaftGroup": "raft",
    "RaftMember": "raft",
    "READ_MODES": "config",
    "build_cluster": "tier",
    "merge_results": "sharding",
    "route_statement": "sharding",
})
