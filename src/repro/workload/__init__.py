"""Client simulation: usage-pattern-driven load generation and metrics.

One session loop, :func:`~repro.workload.driver.drive_sessions`, run by
one generator, :class:`~repro.workload.generator.LoadGenerator`, under
either arrival policy: the paper's closed-loop population
(:class:`~repro.workload.generator.WorkloadConfig`, soft think times) or
the open-loop arrival process
(:class:`~repro.workload.openloop.OpenLoopConfig`).
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "drive_sessions": "driver",
    "LoadGenerator": "generator",
    "WorkloadConfig": "generator",
    "OpenLoopConfig": "openloop",
    "TransitionMatrixPattern": "openloop",
})
