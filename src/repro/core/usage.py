"""Service usage patterns (§3.2).

A *service usage pattern* is "a frequently executed scenario of service
invocation, which reflects typical client behaviour".  Two shapes cover
the paper's four patterns:

* :class:`WeightedPattern` — browsers: sessions of N page requests drawn
  from a weighted mix, with structural constraints (an Item page always
  follows a Product page, every session starts at Main, ...);
* :class:`ScriptedPattern` — buyers/bidders: a fixed sequence of pages
  emphasizing the write path.

Patterns produce :class:`PageVisit` streams; the workload generator
turns them into timed HTTP requests.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..simnet.rng import Streams

__all__ = [
    "PageVisit",
    "UsagePattern",
    "WeightedPattern",
    "ScriptedPattern",
    "PatternError",
]


class PatternError(Exception):
    """Raised for malformed pattern definitions."""


class PageVisit:
    """One page request within a session.

    A session draws all its visits when it starts and holds them until
    it ends, so the visits of parked sessions are most of what an
    open-loop run adds to memory.  A visit therefore has no per-instance
    dict and keeps its parameters as one flat ``(key, value, key, value,
    ...)`` tuple, ``kv``; a page without parameters shares the empty
    tuple.  :attr:`params` rebuilds the mapping the visit was drawn with.
    """

    __slots__ = ("page", "kv")

    def __init__(self, page: str, params: Mapping[str, object] = {}):
        self.page = page
        # A loop, not tuple(chain.from_iterable(params.items())): a
        # session draws a visit per page fetch, and the loop makes no
        # function call.
        kv = ()
        for key in params:
            kv += (key, params[key])
        self.kv = kv

    @property
    def params(self) -> Dict[str, object]:
        kv = self.kv
        return dict(zip(kv[::2], kv[1::2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageVisit):
            return NotImplemented
        return self.page == other.page and self.params == other.params

    def __repr__(self) -> str:
        return f"PageVisit(page={self.page!r}, params={self.params!r})"


class UsagePattern:
    """Base class: generates the page sequence of one client session."""

    name = "pattern"

    def session(self, streams: Streams, session_index: int) -> List[PageVisit]:
        """The ordered page visits of one session."""
        raise NotImplementedError


class WeightedPattern(UsagePattern):
    """Browser-style sessions: weighted page mix with follow-on rules.

    ``weights`` maps page name to relative request frequency (the
    percentages of Tables 2 and 4).  ``params_for`` supplies page
    parameters, and may depend on the previous visit so that "a request
    of an Item page always goes after a request for a Product page, such
    that the requested item belongs to the previously requested product".
    ``follows`` optionally forces a page to be preceded by another: when
    the sampler draws page P with ``follows[P] = Q`` and the previous
    page was not Q, a Q visit is inserted first (still counted toward the
    session length).
    """

    def __init__(
        self,
        name: str,
        length: int,
        weights: Dict[str, float],
        first_page: str,
        params_for: Optional[Callable] = None,
        follows: Optional[Dict[str, str]] = None,
    ):
        if length < 1:
            raise PatternError("session length must be at least 1")
        if first_page not in weights and first_page is not None:
            # The entry page may have zero sampling weight; that is fine.
            pass
        if not weights:
            raise PatternError("weights must not be empty")
        for page, weight in weights.items():
            if weight < 0:
                raise PatternError(f"negative weight for page {page!r}")
        self.name = name
        self.length = length
        self.weights = dict(weights)
        self.first_page = first_page
        self.params_for = params_for or (lambda streams, page, prev: {})
        self.follows = dict(follows or {})
        # Precomputed draw tables: ``random.choices`` re-accumulates the
        # weights on every call, and sessions draw thousands of times.
        # bisect over the same cumulative list consumes one random() per
        # draw and picks the identical page.
        self._stream_name = f"pattern:{self.name}"
        self._pages = tuple(self.weights.keys())
        self._cum_weights = list(accumulate(self.weights.values()))
        self._total = self._cum_weights[-1] + 0.0

    def session(self, streams: Streams, session_index: int) -> List[PageVisit]:
        pages = self._pages
        cum_weights = self._cum_weights
        total = self._total
        hi = len(pages) - 1
        rng_random = streams.get(self._stream_name).random
        if total <= 0.0 and self.length > 1:
            # Same failure random.choices would raise on the first draw.
            raise ValueError("Total of weights must be greater than zero")
        # One PageVisit(page, params_for(...)) per page, inline: a helper
        # would add a call to every drawn visit.
        params_for = self.params_for
        length = self.length
        follows = self.follows
        page = self.first_page
        previous = PageVisit(page, params_for(streams, page, None))
        visits = [previous]
        count = 1
        while count < length:
            page = pages[bisect(cum_weights, rng_random() * total, 0, hi)]
            required = follows.get(page)
            if required is not None and previous.page != required:
                previous = PageVisit(required, params_for(streams, required, previous))
                visits.append(previous)
                count += 1
                if count >= length:
                    break
            previous = PageVisit(page, params_for(streams, page, previous))
            visits.append(previous)
            count += 1
        return visits


class ScriptedPattern(UsagePattern):
    """Buyer/bidder-style sessions: a fixed page script.

    ``script`` is a sequence of page names; ``params_for`` supplies each
    visit's parameters (e.g. which item to buy or bid on).
    """

    def __init__(
        self,
        name: str,
        script: Sequence[str],
        params_for: Optional[Callable] = None,
    ):
        if not script:
            raise PatternError("script must not be empty")
        self.name = name
        self.script = list(script)
        self.params_for = params_for or (lambda streams, page, index: {})

    @property
    def length(self) -> int:
        return len(self.script)

    def session(self, streams: Streams, session_index: int) -> List[PageVisit]:
        params_for = self.params_for
        return [
            PageVisit(page, params_for(streams, page, index))
            for index, page in enumerate(self.script)
        ]
