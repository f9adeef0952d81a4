"""The span table: causal tracing of one page request across every tier.

A span is one timed operation (an HTTP request, an RMI call, a JDBC
statement, a JMS publish or delivery, a container invocation), kept as
one plain dict row with a parent pointer:

``id``, ``parent_id``, ``request_id``, ``kind``, ``name``, ``node``,
``start``, ``end`` (None while the operation is in flight) and
``wide_area``, plus ``page``, ``group``, ``target`` and ``method`` when
they are set.

The spans of one client page request form a tree rooted at the HTTP
span, which is what the design-rule checker walks to verify the paper's
"at most one wide-area call per page".  The table is the simulator's
only call record, and the same rows are what a cell's measurements and
every export read: nothing converts them.

Span ids are assigned from a per-recorder counter in simulation-event
order, so a seeded run produces identical span tables in any process —
the property the parallel experiment runner's byte-identical
``trace.json`` (``--out``) rests on.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable, Dict, List, Optional, TypeVar

__all__ = ["SpanRecorder", "fold_paths"]

#: Cap on the memoized per-session sampling verdicts (pure hashes —
#: evicting them wholesale is free and changes nothing).
_DECISION_CACHE_LIMIT = 65_536

T = TypeVar("T")


class SpanRecorder:
    """Append-only span table shared by every server of one deployment.

    Bounded by ``max_spans`` with an explicit ``dropped`` counter, so
    truncation is never silent.  A run that records no spans has no
    recorder at all (``None``), not an empty one.
    """

    def __init__(self, max_spans: Optional[int] = None, sample_rate: float = 1.0):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate!r}")
        self.max_spans = max_spans
        self.sample_rate = sample_rate
        self.sampled_requests = 0
        self.skipped_requests = 0
        self.spans: List[dict] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._decisions: Dict[str, bool] = {}

    def sample(self, session_id: str) -> bool:
        """Deterministic per-session sampling decision.

        CRC32 of the session id mapped onto [0, 1) — NOT ``hash()``
        (randomized per interpreter) and NOT an RNG stream (a draw here
        would shift every workload stream and change the run), so the
        same sessions are traced in every process and under any
        ``--jobs N``, and a sampled run's workload is byte-identical to
        an unsampled one.  Rate 1.0 short-circuits before hashing, and
        the per-session verdict is memoized — a session issues many
        requests, and the hash only needs computing on its first.
        """
        if self.sample_rate >= 1.0:
            self.sampled_requests += 1
            return True
        keep = self._decisions.get(session_id)
        if keep is None:
            keep = (
                zlib.crc32(session_id.encode("utf-8")) / 4294967296.0
                < self.sample_rate
            )
            if len(self._decisions) >= _DECISION_CACHE_LIMIT:
                # The verdict is a pure hash of the id, so the cache can
                # be dropped wholesale without changing any decision —
                # keeps memory bounded on million-session runs.
                self._decisions.clear()
            self._decisions[session_id] = keep
        if keep:
            self.sampled_requests += 1
        else:
            self.skipped_requests += 1
        return keep

    def start_span(
        self,
        kind: str,
        name: str,
        node: str,
        time: float,
        parent_id: Optional[int] = None,
        request_id: Optional[int] = None,
        wide_area: bool = False,
        page: Optional[str] = None,
        group: Optional[str] = None,
        target: Optional[str] = None,
        method: Optional[str] = None,
    ) -> Optional[dict]:
        """Append a span row and return it; None when over ``max_spans``.

        Dropped spans still consume an id so the surviving table keeps
        its deterministic numbering.
        """
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            next(self._ids)
            return None
        span = {
            "id": next(self._ids),
            "parent_id": parent_id,
            "request_id": request_id,
            "kind": kind,
            "name": name,
            "node": node,
            "start": time,
            "end": None,
            "wide_area": wide_area,
        }
        # Unset optionals are left out, which keeps exports lean.
        if page is not None:
            span["page"] = page
        if group is not None:
            span["group"] = group
        if target is not None:
            span["target"] = target
        if method is not None:
            span["method"] = method
        self.spans.append(span)
        return span

    def finish_span(self, span: Optional[dict], time: float) -> None:
        if span is not None:
            span["end"] = time

    def to_state(self) -> dict:
        """Picklable, JSON-safe snapshot: the rows themselves, in id order.

        Sampling fields appear only when a rate below 1.0 is in force,
        so unsampled exports stay byte-identical with earlier releases.
        """
        state = {"dropped": self.dropped, "spans": self.spans}
        if self.sample_rate < 1.0:
            state["sample_rate"] = self.sample_rate
            state["sampled_requests"] = self.sampled_requests
            state["skipped_requests"] = self.skipped_requests
        return state


def fold_paths(
    spans: List[dict],
    at_root: Callable[[dict], T],
    extend: Callable[[T, dict], T],
) -> Dict[int, T]:
    """Fold every span's path from its tree's root down to it.

    Returns ``{span id: value}``: ``at_root(span)`` for a root, and
    ``extend(value of the parent, span)`` for any other span.  A span
    whose parent is not in the table (truncated away) roots its own
    tree, so partial tables still fold.  Each span is folded once, and
    the walk up to a folded ancestor is a loop, not a recursion.
    """
    by_id = {span["id"]: span for span in spans}
    values: Dict[int, T] = {}
    for span in spans:
        path = []
        while span["id"] not in values:
            parent = by_id.get(span["parent_id"])
            if parent is None:
                values[span["id"]] = at_root(span)
                break
            path.append(span)
            span = parent
        for span in reversed(path):
            values[span["id"]] = extend(values[span["parent_id"]], span)
    return values
