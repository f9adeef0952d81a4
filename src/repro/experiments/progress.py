"""Shared progress reporting for experiment sweeps.

One :class:`ProgressReporter` instance is shared by the serial and
parallel execution paths: the serial runner calls :meth:`cell_done`
inline, the parallel runner calls it from the parent process as worker
futures complete.  Reporting goes to stderr so it never contaminates
table/figure output on stdout (which must stay byte-identical across
worker counts).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Counts completed (app, level) cells and prints one line per cell.

    Thread-safe: ``concurrent.futures`` completion callbacks may fire
    from pool-management threads.
    """

    def __init__(
        self,
        total: int,
        stream: Optional[TextIO] = None,
        label: str = "cells",
    ):
        self.total = total
        self.completed = 0
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._started = time.perf_counter()

    def done(self, what: str, wall_seconds: float) -> None:
        """Record one finished unit of work and emit a progress line."""
        with self._lock:
            self.completed += 1
            completed, total = self.completed, self.total
        elapsed = time.perf_counter() - self._started
        print(
            f"[{completed}/{total} {self.label}] {what} "
            f"done in {wall_seconds:.1f}s (elapsed {elapsed:.1f}s)",
            file=self.stream,
        )
        self.stream.flush()

    def cell_done(self, app: str, level: object, wall_seconds: float) -> None:
        """Record one finished (app, pattern-level) cell."""
        self.done(f"{app} level {int(level)}", wall_seconds)

    @property
    def finished(self) -> bool:
        return self.completed >= self.total
