"""Tests for cProfile instrumentation (repro.experiments.profile)."""

import pytest

from repro.experiments.profile import profile_call


def test_profile_call_returns_result_and_stats():
    result, stats = profile_call(sorted, [3, 1, 2])
    assert result == [1, 2, 3]
    assert stats.stats  # at least the sorted() frame was observed


def test_profile_call_propagates_exceptions():
    with pytest.raises(ZeroDivisionError):
        profile_call(lambda: 1 / 0)
