"""Client simulation: usage-pattern-driven load generation and metrics.

One session loop, :func:`~repro.workload.driver.drive_sessions`, run by
one generator, :class:`~repro.workload.generator.LoadGenerator`, under
either arrival policy: the paper's closed-loop population
(:class:`~repro.workload.generator.WorkloadConfig`, soft think times) or
the open-loop arrival process
(:class:`~repro.workload.openloop.OpenLoopConfig`).
"""

from .driver import drive_sessions
from .generator import LoadGenerator, WorkloadConfig
from .openloop import OpenLoopConfig, TransitionMatrixPattern

__all__ = [
    "drive_sessions",
    "LoadGenerator",
    "WorkloadConfig",
    "OpenLoopConfig",
    "TransitionMatrixPattern",
]
