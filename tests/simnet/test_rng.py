"""Unit tests for deterministic RNG streams."""

from repro.simnet.rng import Streams


def test_same_seed_same_draws():
    a = Streams(99)
    b = Streams(99)
    assert [a.uniform("x", 0, 1) for _ in range(5)] == [
        b.uniform("x", 0, 1) for _ in range(5)
    ]


def test_different_seeds_differ():
    a = Streams(1)
    b = Streams(2)
    assert [a.uniform("x", 0, 1) for _ in range(5)] != [
        b.uniform("x", 0, 1) for _ in range(5)
    ]


def test_streams_are_independent():
    """Draws on one stream do not perturb another."""
    a = Streams(7)
    b = Streams(7)
    for _ in range(100):
        a.uniform("noise", 0, 1)  # extra draws on an unrelated stream
    assert a.uniform("signal", 0, 1) == b.uniform("signal", 0, 1)


def test_stream_reuse_returns_same_object():
    streams = Streams(5)
    assert streams.get("a") is streams.get("a")
    assert streams.get("a") is not streams.get("b")


def test_randint_deterministic():
    a = Streams(21)
    b = Streams(21)
    assert a.randint("r", 0, 100) == b.randint("r", 0, 100)
