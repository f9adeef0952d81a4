"""Serialized-size estimation for RMI arguments and results.

RMI latency in the simulation depends on message sizes (through the
bandwidth shaper), so marshalling estimates the wire footprint of the
Python values that flow through component interfaces.
"""

from __future__ import annotations

from typing import Any

__all__ = ["sizeof", "call_size", "result_size"]

_PRIMITIVE_SIZE = 9  # a boxed primitive plus serialization tag


def sizeof(value: Any, _depth: int = 0) -> int:
    """Approximate Java-serialization size of ``value`` in bytes.

    The hot path is exact-type dispatch: the values that flow through
    component interfaces are overwhelmingly plain strs/ints/floats and
    the dicts/lists the result sets are made of.  Subclasses (IntEnum,
    custom containers, objects) take the isinstance chain below.

    The container loops size exact-type scalars inline — a result set
    is ~100 scalars, and one recursive call apiece was the largest
    self-time entry of an open-loop cell — and recurse only for nested
    containers, subclasses and objects.  Anything deeper than 12 levels
    counts 16 bytes whatever it is, so the children of a depth-12
    container are never looked at.
    """
    if _depth > 12:
        return 16
    kind = type(value)
    if kind is str:
        return 7 + len(value)
    if kind is int or kind is float:
        return _PRIMITIVE_SIZE
    if value is None:
        return 1
    if kind is bool:
        return 2
    if kind is dict:
        if _depth == 12:
            return 24 + 32 * len(value)
        total = 24
        _depth += 1
        for key, item in value.items():
            kind = type(key)
            if kind is str:
                total += 7 + len(key)
            elif kind is int or kind is float:
                total += _PRIMITIVE_SIZE
            else:
                total += sizeof(key, _depth)
            kind = type(item)
            if kind is str:
                total += 7 + len(item)
            elif kind is int or kind is float:
                total += _PRIMITIVE_SIZE
            elif item is None:
                total += 1
            elif kind is bool:
                total += 2
            else:
                total += sizeof(item, _depth)
        return total
    if kind is list or kind is tuple:
        if _depth == 12:
            return 24 + 16 * len(value)
        total = 24
        _depth += 1
        for item in value:
            kind = type(item)
            if kind is str:
                total += 7 + len(item)
            elif kind is int or kind is float:
                total += _PRIMITIVE_SIZE
            elif item is None:
                total += 1
            elif kind is bool:
                total += 2
            else:
                total += sizeof(item, _depth)
        return total
    return _sizeof_slow(value, _depth)


def _sizeof_slow(value: Any, _depth: int) -> int:
    """Subclass and object fallback; mirrors the original isinstance order."""
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return _PRIMITIVE_SIZE
    if isinstance(value, str):
        return 7 + len(value)
    if isinstance(value, bytes):
        return 7 + len(value)
    if isinstance(value, dict):
        total = 24
        for key, item in value.items():
            total += sizeof(key, _depth + 1) + sizeof(item, _depth + 1)
        return total
    if isinstance(value, (list, tuple, set, frozenset)):
        total = 24
        for item in value:
            total += sizeof(item, _depth + 1)
        return total
    if hasattr(value, "wire_size"):
        return int(value.wire_size())
    if hasattr(value, "__dict__"):
        return 32 + sizeof(vars(value), _depth + 1)
    return 32


def call_size(base: int, per_arg: int, method: str, args: tuple) -> int:
    """Request-message size for an RMI invocation."""
    size = base + len(method) + per_arg * len(args)
    for arg in args:
        size += sizeof(arg)
    return size


def result_size(base: int, value: Any) -> int:
    """Response-message size for an RMI result."""
    return base + sizeof(value)
