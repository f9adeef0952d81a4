"""Span trees: causal tracing of one page request across every tier.

A :class:`Span` is one timed operation (an HTTP request, an RMI call, a
JDBC statement, a JMS publish or delivery, a container invocation) with
a parent pointer.  The spans of one client page request form a tree
rooted at the HTTP span, which is what the design-rule checker walks to
verify the paper's "at most one wide-area call per page".  The span
table is the simulator's only call record.

Span ids are assigned from a per-recorder counter in simulation-event
order, so a seeded run produces identical span tables in any process —
the property the parallel experiment runner's byte-identical
``trace.json`` (``--out``) rests on.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanTree",
    "build_trees",
    "client_path_wan_calls",
]

# Span kinds whose subtrees are *not* client-path work: replica
# maintenance rides on the committing request but is not a call the
# client waits on a WAN round trip for (asynchronous deliveries never
# block it at all).
MAINTENANCE_KINDS = frozenset({"propagate", "jms", "jms-delivery"})

#: Cap on the memoized per-session sampling verdicts (pure hashes —
#: evicting them wholesale is free and changes nothing).
_DECISION_CACHE_LIMIT = 65_536


@dataclass
class Span:
    """One timed operation in the causal tree of a request."""

    id: int
    parent_id: Optional[int]
    request_id: Optional[int]
    kind: str  # "http" | "invoke" | "rmi" | "jdbc" | "jms" | "jms-delivery" | "propagate"
    name: str
    node: str
    start: float
    end: Optional[float] = None  # None while the operation is in flight
    wide_area: bool = False
    page: Optional[str] = None
    group: Optional[str] = None
    target: Optional[str] = None
    method: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_dict(self) -> dict:
        """JSON-safe snapshot; omits unset optionals to keep exports lean."""
        data = {
            "id": self.id,
            "parent_id": self.parent_id,
            "request_id": self.request_id,
            "kind": self.kind,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "wide_area": self.wide_area,
        }
        for key in ("page", "group", "target", "method"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            id=data["id"],
            parent_id=data.get("parent_id"),
            request_id=data.get("request_id"),
            kind=data["kind"],
            name=data["name"],
            node=data["node"],
            start=data["start"],
            end=data.get("end"),
            wide_area=data.get("wide_area", False),
            page=data.get("page"),
            group=data.get("group"),
            target=data.get("target"),
            method=data.get("method"),
        )


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
        self.spans: List[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._decisions: Dict[str, bool] = {}

    def __len__(self) -> int:
        return len(self.spans)

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
    ) -> Optional[Span]:
        """Open a span; returns None when over ``max_spans``.

        Dropped spans still consume an id so the surviving table keeps
        its deterministic numbering.
        """
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            next(self._ids)
            return None
        span = Span(
            id=next(self._ids),
            parent_id=parent_id,
            request_id=request_id,
            kind=kind,
            name=name,
            node=node,
            start=time,
            wide_area=wide_area,
            page=page,
            group=group,
            target=target,
            method=method,
        )
        self.spans.append(span)
        return span

    def finish_span(self, span: Optional[Span], time: float) -> None:
        if span is not None:
            span.end = time

    # -- queries -------------------------------------------------------------
    def by_kind(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def unfinished(self) -> List[Span]:
        return [span for span in self.spans if not span.finished]

    def trees(self) -> List["SpanTree"]:
        return build_trees(self.spans)

    # -- serialization -------------------------------------------------------
    def to_state(self) -> dict:
        """Picklable, JSON-safe snapshot in span-id order.

        Sampling fields appear only when a rate below 1.0 is in force,
        so unsampled exports stay byte-identical with earlier releases.
        """
        state = {
            "dropped": self.dropped,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.sample_rate < 1.0:
            state["sample_rate"] = self.sample_rate
            state["sampled_requests"] = self.sampled_requests
            state["skipped_requests"] = self.skipped_requests
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SpanRecorder":
        recorder = cls(sample_rate=state.get("sample_rate", 1.0))
        recorder.sampled_requests = state.get("sampled_requests", 0)
        recorder.skipped_requests = state.get("skipped_requests", 0)
        recorder.dropped = state.get("dropped", 0)
        recorder.spans = [Span.from_dict(item) for item in state.get("spans", ())]
        if recorder.spans:
            recorder._ids = itertools.count(
                max(span.id for span in recorder.spans) + 1
            )
        return recorder


class SpanTree:
    """One root span plus an index of its descendants."""

    def __init__(self, root: Span, children: Dict[int, List[Span]]):
        self.root = root
        self._children = children

    def children_of(self, span: Span) -> List[Span]:
        return self._children.get(span.id, [])

    def walk(self, skip_kinds: frozenset = frozenset()) -> Iterator[Span]:
        """Depth-first traversal from the root (root included).

        ``skip_kinds`` prunes whole subtrees: a span of a skipped kind is
        neither yielded nor descended into.
        """
        stack = [self.root]
        while stack:
            span = stack.pop()
            if span.kind in skip_kinds and span is not self.root:
                continue
            yield span
            stack.extend(reversed(self.children_of(span)))

    def size(self) -> int:
        return sum(1 for _ in self.walk())


def build_trees(spans: List[Span]) -> List[SpanTree]:
    """Group a span table into trees, in root-span-id order.

    A span whose parent id is unknown (e.g. truncated away) becomes a
    root of its own tree, so partial tables still render.
    """
    known = {span.id for span in spans}
    children: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in known:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    return [SpanTree(root, children) for root in roots]


def client_path_wan_calls(tree: SpanTree, exclude_targets: frozenset = frozenset()) -> int:
    """Wide-area RMI/JDBC spans the client actually waited on.

    Prunes maintenance subtrees (update propagation, JMS publishes and
    asynchronous deliveries) and spans against excluded targets (the
    updater façade).  The filter is structural, not heuristic: a JDBC
    refresh executed *inside* propagation is excluded because of where
    it sits in the tree, not because of what it is named.
    """
    count = 0
    stack = [tree.root]
    while stack:
        span = stack.pop()
        if span is not tree.root:
            if span.kind in MAINTENANCE_KINDS:
                continue
            if span.target is not None and span.target in exclude_targets:
                continue
        if span.wide_area and span.kind in ("rmi", "jdbc"):
            count += 1
        stack.extend(tree.children_of(span))
    return count

