"""The catalog of design patterns/optimizations the paper applies (§4).

Each :class:`PatternLevel` is *cumulative*: level N includes every
optimization of level N-1, exactly as the paper's five configurations
build on one another.  Level 6 extends the sequence beyond the paper
with transactional method caching (Pfeifer & Lockemann); the paper's
own sweep is :data:`PAPER_LEVELS`, which every default series uses so
the published tables and figures are unaffected by the extension.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict

__all__ = [
    "PatternLevel",
    "PAPER_LEVELS",
    "level_name",
]


class PatternLevel(IntEnum):
    """The five incremental configurations of §4, plus level 6."""

    CENTRALIZED = 1        # §4.1: everything on the main server
    REMOTE_FACADE = 2      # §4.2: web + stateful session beans at edges, façades
    STATEFUL_CACHING = 3   # §4.3: read-only entity replicas, blocking push
    QUERY_CACHING = 4      # §4.4: aggregate query result caches at edges
    ASYNC_UPDATES = 5      # §4.5: JMS/MDB asynchronous update propagation
    METHOD_CACHING = 6     # beyond the paper: transactional method caching


# The paper's own sweep.  Defaults everywhere (runner, CLI, benchmarks)
# iterate these five levels, never the full enum, so adding level 6 to
# the catalog cannot silently change any published artifact.  Level 6
# runs only when asked for explicitly (--level 6, a levels list, or a
# policy file declaring it).
PAPER_LEVELS = (
    PatternLevel.CENTRALIZED,
    PatternLevel.REMOTE_FACADE,
    PatternLevel.STATEFUL_CACHING,
    PatternLevel.QUERY_CACHING,
    PatternLevel.ASYNC_UPDATES,
)


# Row and bar labels of the tables, figures and availability report.
_NAMES: Dict[PatternLevel, str] = {
    PatternLevel.CENTRALIZED: "Centralized",
    PatternLevel.REMOTE_FACADE: "Remote façade",
    PatternLevel.STATEFUL_CACHING: "Stateful component caching",
    PatternLevel.QUERY_CACHING: "Query caching",
    PatternLevel.ASYNC_UPDATES: "Asynchronous updates",
    PatternLevel.METHOD_CACHING: "Method caching",
}


def level_name(level: PatternLevel) -> str:
    return _NAMES[PatternLevel(level)]
