"""The drawers as they stood before visits became compact, kept as oracles.

``weighted_session``, ``scripted_session`` and ``markov_session`` are the
bodies of ``WeightedPattern.session``, ``ScriptedPattern.session`` and
``TransitionMatrixPattern.session`` from the last commit whose
``PageVisit`` was a dataclass holding a params dict, copied literally —
only the ``def`` lines changed, so that each body runs against a live
pattern object (``self``) and builds the old :class:`PageVisit` below.
``test_compact_visits.py`` runs them beside the program's drawers and
demands the same pages, the same params and the same stream states.
Do not "tidy" this file: its value is that it is the old code.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simnet.rng import Streams


@dataclass
class PageVisit:
    """One page request within a session."""

    page: str
    params: Dict[str, object] = field(default_factory=dict)


def weighted_session(self, streams: Streams, session_index: int) -> List[PageVisit]:
    pages = self._pages
    cum_weights = self._cum_weights
    total = self._total
    hi = len(pages) - 1
    rng_random = streams.get(self._stream_name).random
    if total <= 0.0 and self.length > 1:
        # Same failure random.choices would raise on the first draw.
        raise ValueError("Total of weights must be greater than zero")
    visits: List[PageVisit] = []
    previous: Optional[PageVisit] = None

    def visit(page: str) -> PageVisit:
        nonlocal previous
        params = self.params_for(streams, page, previous)
        page_visit = PageVisit(page, params)
        visits.append(page_visit)
        previous = page_visit
        return page_visit

    visit(self.first_page)
    while len(visits) < self.length:
        page = pages[bisect(cum_weights, rng_random() * total, 0, hi)]
        required = self.follows.get(page)
        if required is not None and (previous is None or previous.page != required):
            visit(required)
            if len(visits) >= self.length:
                break
        visit(page)
    return visits[: self.length]


def scripted_session(self, streams: Streams, session_index: int) -> List[PageVisit]:
    visits = []
    for index, page in enumerate(self.script):
        params = self.params_for(streams, page, index)
        visits.append(PageVisit(page, params))
    return visits


def markov_session(self, streams: Streams, session_index: int) -> List[PageVisit]:
    base = self.base
    pages = self._pages
    hi = self._hi
    rows = self._rows
    default_row = self._default_row
    follows = base.follows
    continue_p = self._continue_p
    max_length = self.max_length
    rng_random = streams.get(self._stream_name).random
    visits: List[PageVisit] = []
    previous: Optional[PageVisit] = None

    def visit(page: str) -> PageVisit:
        nonlocal previous
        params = base.params_for(streams, page, previous)
        page_visit = PageVisit(page, params)
        visits.append(page_visit)
        previous = page_visit
        return page_visit

    visit(base.first_page)
    while len(visits) < max_length and rng_random() < continue_p:
        cum_weights, total = rows.get(previous.page, default_row)
        page = pages[bisect(cum_weights, rng_random() * total, 0, hi)]
        required = follows.get(page)
        if required is not None and previous.page != required:
            visit(required)
            if len(visits) >= max_length:
                break
        visit(page)
    return visits
