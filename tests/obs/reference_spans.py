"""The span-tree walk R2 counted with before the span table became rows.

An oracle for :func:`repro.core.rules.client_path_wan_calls`: the
earlier ``build_trees`` + ``client_path_wan_calls`` pair and R2's loop
over them, kept as they were except that they read span rows
(``span["id"]``) where they read ``Span`` attributes.  Nothing in the
program imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.middleware.updates import UPDATER_FACADE

# Span kinds whose subtrees are *not* client-path work: replica
# maintenance rides on the committing request but is not a call the
# client waits on a WAN round trip for (asynchronous deliveries never
# block it at all).
MAINTENANCE_KINDS = frozenset({"propagate", "jms", "jms-delivery"})


class SpanTree:
    """One root span plus an index of its descendants."""

    def __init__(self, root: dict, children: Dict[int, List[dict]]):
        self.root = root
        self._children = children

    def children_of(self, span: dict) -> List[dict]:
        return self._children.get(span["id"], [])

    def walk(self, skip_kinds: frozenset = frozenset()) -> Iterator[dict]:
        """Depth-first traversal from the root (root included).

        ``skip_kinds`` prunes whole subtrees: a span of a skipped kind is
        neither yielded nor descended into.
        """
        stack = [self.root]
        while stack:
            span = stack.pop()
            if span["kind"] in skip_kinds and span is not self.root:
                continue
            yield span
            stack.extend(reversed(self.children_of(span)))

    def size(self) -> int:
        return sum(1 for _ in self.walk())


def build_trees(spans: List[dict]) -> List[SpanTree]:
    """Group a span table into trees, in root-span-id order.

    A span whose parent id is unknown (e.g. truncated away) becomes a
    root of its own tree, so partial tables still render.
    """
    known = {span["id"] for span in spans}
    children: Dict[int, List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        if span["parent_id"] is None or span["parent_id"] not in known:
            roots.append(span)
        else:
            children.setdefault(span["parent_id"], []).append(span)
    return [SpanTree(root, children) for root in roots]


def client_path_wan_calls(tree: SpanTree, exclude_targets: frozenset = frozenset()) -> int:
    """Wide-area RMI/JDBC spans the client actually waited on.

    Prunes maintenance subtrees (update propagation, JMS publishes and
    asynchronous deliveries) and spans against excluded targets (the
    updater façade).
    """
    count = 0
    stack = [tree.root]
    while stack:
        span = stack.pop()
        if span is not tree.root:
            if span["kind"] in MAINTENANCE_KINDS:
                continue
            target = span.get("target")
            if target is not None and target in exclude_targets:
                continue
        if span["wide_area"] and span["kind"] in ("rmi", "jdbc"):
            count += 1
        stack.extend(tree.children_of(span))
    return count


def worst_wan_calls(spans: List[dict]) -> Dict[str, int]:
    """R2's per-page worst count, as its run half computed it."""
    exclude = frozenset({UPDATER_FACADE})
    worst: Dict[str, int] = {}
    for tree in build_trees(spans):
        if tree.root["kind"] != "http":
            continue  # detached maintenance roots (bounded flushes, ...)
        count = client_path_wan_calls(tree, exclude_targets=exclude)
        page = tree.root.get("page") or "?"
        worst[page] = max(worst.get(page, 0), count)
    return worst
