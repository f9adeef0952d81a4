"""Unit tests for marshalling size estimation and JNDI naming."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.middleware.marshalling import call_size, result_size, sizeof
from repro.middleware.naming import HomeCache


# ---------------------------------------------------------------------------
# Marshalling
# ---------------------------------------------------------------------------


def test_sizeof_primitives():
    assert sizeof(None) == 1
    assert sizeof(True) == 2
    assert sizeof(42) == 9
    assert sizeof(3.14) == 9


def test_sizeof_strings_scale_with_length():
    assert sizeof("abc") == 10
    assert sizeof("abc" * 100) > sizeof("abc")


def test_sizeof_containers_sum_elements():
    assert sizeof([1, 2, 3]) == 24 + 3 * 9
    assert sizeof({"k": "v"}) == 24 + sizeof("k") + sizeof("v")
    assert sizeof((1,)) < sizeof((1, 2))


def test_sizeof_objects_use_dict_or_wire_size():
    class Plain:
        def __init__(self):
            self.a = 1

    class Sized:
        def wire_size(self):
            return 777

    assert sizeof(Plain()) > 32
    assert sizeof(Sized()) == 777


def test_sizeof_depth_bounded():
    nested = []
    cursor = nested
    for _ in range(50):
        inner = []
        cursor.append(inner)
        cursor = inner
    assert sizeof(nested) > 0  # terminates


def _oracle_sizeof(value, _depth=0):
    """The one-recursive-call-per-value ``sizeof`` the inlined one replaced."""
    if _depth > 12:
        return 16
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return 9
    if value is None:
        return 1
    if isinstance(value, (str, bytes)):
        return 7 + len(value)
    if isinstance(value, dict):
        return 24 + sum(
            _oracle_sizeof(key, _depth + 1) + _oracle_sizeof(item, _depth + 1)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 24 + sum(_oracle_sizeof(item, _depth + 1) for item in value)
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    if hasattr(value, "__dict__"):
        return 32 + _oracle_sizeof(vars(value), _depth + 1)
    return 32


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


class _Row(dict):
    pass


class _Rows(list):
    pass


class _Bean:
    def __init__(self, payload):
        self.payload = payload


class _Sized:
    def wire_size(self):
        return 777


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.just(_Colour.RED),
    st.text(max_size=12).map(_Name),
    st.just(_Sized()),
)
_keys = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.text(max_size=6).map(_Name), st.just(_Colour.RED),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_Rows),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(_Row),
        st.frozensets(st.integers(), max_size=4),
        children.map(_Bean),
    )


_values = st.recursive(_scalars, _containers, max_leaves=24)


@given(value=_values, wrap=st.integers(min_value=0, max_value=15))
@settings(max_examples=300, deadline=None)
def test_sizeof_matches_recursive_oracle(value, wrap):
    """Inline scalar sizing returns the oracle's size on nested values,
    subclasses and objects, on both sides of the depth-12 cut-off."""
    for layer in range(wrap):
        value = {"k": value} if layer % 2 else [value, layer]
    assert sizeof(value) == _oracle_sizeof(value)


@pytest.mark.parametrize("container", [
    {"a": 1, "b": "xy", 3: None, None: True},
    [1, "xy", None, True, 2.5],
    (1, "xy", None, True, 2.5),
])
def test_sizeof_children_of_depth_12_containers_count_16(container):
    """A depth-12 container's children are past the cut-off: 16 bytes
    each, scalars included."""
    children = 2 * len(container) if isinstance(container, dict) else len(container)
    assert sizeof(container, 12) == 24 + 16 * children == _oracle_sizeof(container, 12)
    assert sizeof(container, 11) == _oracle_sizeof(container, 11) != sizeof(container, 12)


def test_call_size_includes_method_and_args():
    small = call_size(100, 10, "m", ())
    larger = call_size(100, 10, "m", ("payload" * 10,))
    assert larger > small


def test_result_size():
    assert result_size(200, "x" * 100) == 200 + sizeof("x" * 100)


# ---------------------------------------------------------------------------
# Naming
# ---------------------------------------------------------------------------


def test_home_cache_hit_miss_counters():
    cache = HomeCache()
    assert cache.get("X") is None
    cache.put("X", "ref")
    assert cache.get("X") == "ref"
    assert cache.misses == 1
    assert cache.hits == 1


def test_home_cache_disabled_never_caches():
    cache = HomeCache(enabled=False)
    cache.put("X", "ref")
    assert cache.get("X") is None
    assert cache.hits == 0


def test_home_cache_invalidation():
    cache = HomeCache()
    cache.put("X", 1)
    cache.put("Y", 2)
    cache.invalidate("X")
    assert cache.get("X") is None
    assert cache.get("Y") == 2
    cache.invalidate()
    assert cache.get("Y") is None
