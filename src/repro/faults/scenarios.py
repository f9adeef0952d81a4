"""Canned fault scenarios: a window and the faults placed in it.

:data:`SCENARIOS` is a table, ``name -> (lo, hi, faults)``.  ``lo`` and
``hi`` place the window as fractions of the measured (post-warm-up)
portion of the run, so the same scenario name works for a 40-second
smoke cell and a full 20-minute sweep.  ``faults(edges, start, end)``
returns the :class:`FaultSchedule` entries for that window, aimed at the
*actual* edge servers of the testbed — the first (or last) edge for
single-target rows, every edge for WAN-wide ones — so ``--edges 1`` and
``--edges 10`` both work.  :func:`scenario` resolves the edges (the
effective topology's when none are given), computes the window and
validates the schedule.  ``load_schedule`` is the CLI entry point: it
accepts either a canned scenario name or a path to a JSON file matching
:meth:`FaultSchedule.to_json`.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..simnet.topology import TestbedConfig
from .schedule import (
    FaultSchedule,
    LatencySpike,
    LinkPartition,
    LossWindow,
    ServerCrash,
)

__all__ = [
    "SCENARIOS",
    "default_edges",
    "scenario",
    "load_schedule",
]


def default_edges(config: Optional[TestbedConfig] = None) -> Tuple[str, ...]:
    """Edge names of the effective topology (``edge1`` .. ``edgeN``)."""
    return (config or TestbedConfig()).edge_names()


def _edge(edges: Sequence[str], index: int) -> str:
    """The edge a single-target row hits."""
    if not edges:
        raise ValueError("fault scenarios need at least one edge server")
    return edges[index]


def edge_partition(edges, start, end):
    """The paper's nightmare: the WAN link to one edge goes dark mid-run.

    Every request from that edge's clients that needs the main server —
    centralized page fetches, remote facade calls, replica pulls, sync
    pushes — fails for the window; edge-heavy patterns keep serving
    local reads from replicas and caches while staleness accrues.
    """
    return {"partitions": (LinkPartition("router", _edge(edges, 0), start, end),)}


def edge_crash(edges, start, end):
    """One edge's app-server process dies and restarts cold.

    Routing survives, so that edge's clients fail over to the main
    server over the WAN for the window; after restart the edge serves
    again with empty session stores, replicas and caches.
    """
    return {"crashes": (ServerCrash(_edge(edges, 0), start, end),)}


def flaky_wan(edges, start, end):
    """Lossy, jittery WAN: 2% loss on every edge link plus jitter on one."""
    return {
        "latency_spikes": (
            LatencySpike("router", _edge(edges, 0), start, end, extra_ms=30.0, jitter_ms=40.0),
        ),
        "loss_windows": tuple(
            LossWindow("router", edge, start, end, probability=0.02) for edge in edges
        ),
    }


def latency_spike(edges, start, end):
    """A routing flap quadruples one edge's one-way WAN latency for a while."""
    return {
        "latency_spikes": (
            LatencySpike("router", _edge(edges, 0), start, end, extra_ms=300.0, jitter_ms=100.0),
        )
    }


def db_leader_crash(edges, start, end):
    """The data tier's main-seat replicas crash mid-run.

    Under a single-instance policy the ``db`` target simply skips (the
    paper's database never fails); under a replicated ``data_tier`` the
    fault injector resolves ``db`` to the cluster's main seat, killing
    every raft member seated there — the anchor leaders — and forcing
    re-elections and, on restart, log catch-up.  It needs no edge.
    """
    return {"crashes": (ServerCrash("db", start, end),)}


def db_shard_partition(edges, start, end):
    """The WAN link to the *last* edge's shard replicas goes dark.

    Complements ``edge-partition`` (which isolates the first edge): the
    partitioned edge's raft members fall behind the replicated log, and
    stale-local reads served there accrue measurable staleness until the
    heal triggers catch-up.
    """
    return {"partitions": (LinkPartition("router", _edge(edges, -1), start, end),)}


# name -> (window start, window end as fractions of the measured run, faults)
SCENARIOS: Dict[str, Tuple[float, float, Callable[..., dict]]] = {
    "edge-partition": (0.30, 0.60, edge_partition),
    "edge-crash": (0.30, 0.60, edge_crash),
    "flaky-wan": (0.25, 0.75, flaky_wan),
    "latency-spike": (0.35, 0.65, latency_spike),
    "db-leader-crash": (0.30, 0.60, db_leader_crash),
    "db-shard-partition": (0.35, 0.55, db_shard_partition),
}


def scenario(
    name: str,
    duration_ms: float,
    warmup_ms: float = 0.0,
    edges: Optional[Sequence[str]] = None,
) -> FaultSchedule:
    """Build the canned scenario ``name`` for a run of the given length."""
    try:
        lo, hi, faults = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {name!r}; canned scenarios: "
            f"{', '.join(sorted(SCENARIOS))}"
        ) from None
    edges = default_edges() if edges is None else tuple(edges)
    active = max(0.0, duration_ms - warmup_ms)
    start, end = warmup_ms + lo * active, warmup_ms + hi * active
    return FaultSchedule(name=name, **faults(edges, start, end)).validate()


def load_schedule(
    spec: str,
    duration_ms: float,
    warmup_ms: float = 0.0,
    edges: Optional[Sequence[str]] = None,
) -> FaultSchedule:
    """Resolve a ``--faults`` argument: canned name or JSON file path."""
    looks_like_path = spec.endswith(".json") or os.sep in spec
    if looks_like_path or (spec not in SCENARIOS and os.path.exists(spec)):
        with open(spec, "r", encoding="utf-8") as handle:
            return FaultSchedule.from_json(json.load(handle))
    return scenario(spec, duration_ms, warmup_ms, edges)
