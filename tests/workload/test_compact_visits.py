"""Compact drawn visits: every draw as before, a fraction of the memory.

A session draws all its visits when it starts and holds them until it
ends, so at the peak of an open-loop run the parked sessions' visits
are most of the workload's memory.  The drawers build :class:`PageVisit`
values without a per-instance dict and with their params as one flat
tuple; these tests pin that the pages, the params and every stream's
state after the draw are exactly what the old drawers
(``reference_patterns.py``) produced, and bound the bytes a drawn visit
costs.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import petstore, rubis
from repro.apps.rubis.workload import BROWSER_SESSION_LENGTH
from repro.simnet.rng import Streams
from repro.workload.openloop import TransitionMatrixPattern
from tests.workload import reference_patterns as reference


@lru_cache(maxsize=None)
def _catalog(app: str):
    populate = rubis.populate_rubis if app == "rubis" else petstore.populate_petstore
    _database, catalog = populate(Streams(2003))
    return catalog


def _drawers(app: str, kind: str, mean_length: float):
    """(program pattern, reference drawer) for one pattern kind, each on
    its own pattern object: a writer's params_for keeps session state."""
    module = rubis if app == "rubis" else petstore
    catalog = _catalog(app)
    if kind == "writer":
        writer = module.bidder_pattern if app == "rubis" else module.buyer_pattern
        live, old = writer(catalog), writer(catalog)
        return live, lambda streams, index: reference.scripted_session(old, streams, index)
    if kind == "browser":
        live, old = module.browser_pattern(catalog), module.browser_pattern(catalog)
        return live, lambda streams, index: reference.weighted_session(old, streams, index)
    live = TransitionMatrixPattern(module.browser_pattern(catalog), mean_length=mean_length)
    old = TransitionMatrixPattern(module.browser_pattern(catalog), mean_length=mean_length)
    return live, lambda streams, index: reference.markov_session(old, streams, index)


def _states(streams: Streams):
    return {name: rng.getstate() for name, rng in streams._streams.items()}


@settings(max_examples=40, deadline=None)
@given(
    app=st.sampled_from(["rubis", "petstore"]),
    kind=st.sampled_from(["browser", "writer", "markov"]),
    seed=st.integers(min_value=0, max_value=2**32),
    indices=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
    mean_length=st.sampled_from([2.0, 5.0, 12.0]),
)
def test_every_drawer_draws_what_the_old_drawer_drew(app, kind, seed, indices, mean_length):
    live, old = _drawers(app, kind, mean_length)
    live_streams, old_streams = Streams(seed), Streams(seed)
    for index in indices:
        drawn = live.session(live_streams, index)
        expected = old(old_streams, index)
        assert [visit.page for visit in drawn] == [visit.page for visit in expected]
        assert [visit.params for visit in drawn] == [visit.params for visit in expected]
        assert _states(live_streams) == _states(old_streams)


def test_a_drawn_visit_costs_at_most_140_bytes():
    """Over 2,000 RUBiS browser sessions (80,000 visits), what the held
    sessions add to the traced heap, per visit.  A dataclass with a
    params dict cost about 250 B a visit."""
    pattern = rubis.browser_pattern(_catalog("rubis"))
    streams = Streams(9173)
    pattern.session(streams, 0)  # create the streams before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sessions = [pattern.session(streams, index) for index in range(1, 2001)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    visits = sum(len(session) for session in sessions)
    assert visits == 2000 * BROWSER_SESSION_LENGTH
    assert held / visits <= 140, f"{held / visits:.1f} B per drawn visit"
