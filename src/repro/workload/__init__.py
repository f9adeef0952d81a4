"""Client simulation: usage-pattern-driven load generation and metrics.

One session loop, :func:`~repro.workload.driver.drive_sessions`, under
two arrival policies: the paper's closed-loop population
(:mod:`.generator` / :mod:`.client`, soft think times) and the open-loop
arrival engine (:mod:`.openloop`).
"""

from .client import Client
from .driver import drive_sessions
from .generator import LoadGenerator, WorkloadConfig
from .openloop import OpenLoopConfig, OpenLoopGenerator, TransitionMatrixPattern

__all__ = [
    "Client",
    "drive_sessions",
    "LoadGenerator",
    "WorkloadConfig",
    "OpenLoopConfig",
    "OpenLoopGenerator",
    "TransitionMatrixPattern",
]
