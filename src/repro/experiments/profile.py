"""cProfile instrumentation for experiment cells.

Two layers:

* :func:`profile_call` — run any callable under ``cProfile`` and get the
  result plus a ``pstats.Stats`` object back.
* :func:`subsystem_attribution` — collapse a profile into per-subsystem
  self-time totals (``simnet``, ``rdbms``, ``middleware``, ...), which is
  how the hot-path work in this repository was targeted: the question is
  rarely "which function" but "which layer pays for a request".

The experiment runner exposes this through ``run_series(profile=True)``
/ ``run_cells(profile=True)`` and ``python -m repro.experiments <target>
--profile``, which dump the top cumulative entries and the attribution
for every cell to stderr.  Profiling is serial-only: a cProfile object
cannot follow work into worker processes, so ``--profile`` forces
``--jobs 1``.

Note that cProfile adds substantial constant overhead per function call
(2x+ wall clock on this workload), which *exaggerates* the cost of
call-heavy layers relative to allocation- or arithmetic-heavy ones.
Treat the output as a map, not a measurement; wall-clock comparisons
belong to the benchmark suite (``benchmarks/suite/run.py``).
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable, Dict, TextIO, Tuple

__all__ = [
    "profile_call",
    "subsystem_attribution",
    "format_profile",
    "format_attribution",
    "dump_cell_profile",
    "warn_forced_serial",
]

_REPRO_MARKER = "/repro/"


def warn_forced_serial(requested_jobs: Any, stream: TextIO) -> None:
    """Explain on ``stream`` why profiling downgraded ``jobs`` to 1.

    Called by :func:`~repro.experiments.parallel.run_cells`, through
    which every sweep (``run_series``, the CLI) goes.
    """
    print(
        f"[profile] cProfile cannot follow worker processes; "
        f"forcing jobs=1 (requested {requested_jobs})",
        file=stream,
    )


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


def _subsystem_of(filename: str) -> str:
    """Map a profiled filename to a repository subsystem label."""
    marker = filename.rfind(_REPRO_MARKER)
    if marker < 0:
        if filename.startswith("<") or filename.startswith("~"):
            return "interpreter"
        return "stdlib"
    remainder = filename[marker + len(_REPRO_MARKER):]
    package = remainder.split("/", 1)[0]
    if package.endswith(".py"):
        package = package[:-3]
    return package


def subsystem_attribution(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Self-time and call counts per repository subsystem.

    Returns ``{subsystem: {"tottime": s, "calls": n}}`` sorted by
    descending self-time.  Built-in and stdlib frames are bucketed under
    ``interpreter`` / ``stdlib`` so the repro shares sum to the total.
    """
    buckets: Dict[str, Dict[str, float]] = {}
    for (filename, _line, _name), entry in stats.stats.items():
        _cc, ncalls, tottime, _cumtime, _callers = entry
        label = _subsystem_of(filename)
        bucket = buckets.setdefault(label, {"tottime": 0.0, "calls": 0})
        bucket["tottime"] += tottime
        bucket["calls"] += ncalls
    return dict(
        sorted(buckets.items(), key=lambda pair: pair[1]["tottime"], reverse=True)
    )


def format_profile(stats: pstats.Stats, limit: int = 25) -> str:
    """The top ``limit`` entries by cumulative time, as printable text."""
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(limit)
    return buffer.getvalue()


def format_attribution(attribution: Dict[str, Dict[str, float]]) -> str:
    total = sum(bucket["tottime"] for bucket in attribution.values()) or 1.0
    lines = ["subsystem self-time attribution:"]
    for label, bucket in attribution.items():
        share = 100.0 * bucket["tottime"] / total
        lines.append(
            f"  {label:<12} {bucket['tottime']:8.3f}s  {share:5.1f}%  "
            f"({int(bucket['calls'])} calls)"
        )
    return "\n".join(lines)


def dump_cell_profile(
    label: str, stats: pstats.Stats, stream: TextIO, limit: int = 25
) -> None:
    """Write one cell's profile (top entries + attribution) to ``stream``."""
    print(f"\n== profile: {label} ==", file=stream)
    print(format_profile(stats, limit=limit).rstrip(), file=stream)
    print(format_attribution(subsystem_attribution(stats)), file=stream)
