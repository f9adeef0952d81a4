"""Run one callable under cProfile.

The benchmark suite (``benchmarks/suite/run.py --trace``) profiles its
cells through :func:`profile_call` and folds the table onto the
repository's layers itself, charging built-ins to their caller.  That
is the one profiler; the experiments CLI has none.

Note that cProfile adds substantial constant overhead per function call
(2x+ wall clock on this workload), which *exaggerates* the cost of
call-heavy layers relative to allocation- or arithmetic-heavy ones.
Treat the output as a map, not a measurement.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, Tuple

__all__ = ["profile_call"]


def profile_call(func: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, pstats.Stats]:
    """Run ``func(*args, **kwargs)`` under cProfile.

    Returns ``(result, stats)``; the profiler only observes this call.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = func(*args, **kwargs)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler, stream=io.StringIO())
