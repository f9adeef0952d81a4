"""The five workloads: what each simulates and why it is in the suite.

Pure data: importing this module imports nothing of ``repro``, so the
parent process (``run.py``) and ``validate.py`` can read the table
without paying for, or depending on, the program under test.

Every workload is a fixed simulated input consumed as fast as the host
allows.  ``scale`` multiplies the simulated duration (arrival window and
warm-up); rates, mixes and think times never change, so a scaled run
loads the modelled deployment exactly as hard, for less long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# Simulated duration of the traced run relative to the untraced one:
# cProfile costs ~3.5x, a quarter of the input keeps the traced run
# shorter than the run it explains.
TRACE_SCALE = 0.25

# Host seconds of run region one workload is designed to take at scale
# 1.0 over its five repeats (5 x ~13 s on the 2-core sizing host).
# ``--seconds S`` selects scale S / FULL_BUDGET_S: a sizing constant that
# turns a time budget into a fixed input, not a measurement.
FULL_BUDGET_S = 65.0

PAPER_APPS = ("petstore", "rubis")
PAPER_LEVELS = (1, 2, 3, 4, 5)
GOLDEN_SEED = 2003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "open" | "closed": how the *simulated* clients arrive
    cells: Tuple[Tuple[str, int], ...]
    duration_s: float
    warmup_s: float
    # Open loop only (keyword arguments of OpenLoopConfig).
    session_rate_per_s: Optional[float] = None
    browser_fraction: Optional[float] = None
    think_time_ms: Optional[float] = None
    # Mean pages per browser session; None keeps the app's stock mix.
    browser_mean_pages: Optional[float] = None
    # The paper's full grid: tables and figures are rendered and, at the
    # golden seed and scale 1, compared byte for byte with the goldens.
    sweep: bool = False

    def params(self, scale: float) -> Dict[str, object]:
        """Keyword arguments for ``OpenLoopConfig`` / ``default_workload``."""
        timing = {
            "duration_ms": self.duration_s * 1000.0 * scale,
            "warmup_ms": self.warmup_s * 1000.0 * scale,
        }
        if self.loop == "closed":
            return timing
        return {
            "session_rate_per_s": self.session_rate_per_s,
            "browser_fraction": self.browser_fraction,
            "think_time_ms": self.think_time_ms,
            **timing,
        }


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="paper-sweep",
        why="the paper's artifact: petstore+rubis x levels 1-5, closed loop; "
            "ten set-ups per run and the only cover of petstore and levels 2-4",
        loop="closed",
        cells=tuple((app, level) for app in PAPER_APPS for level in PAPER_LEVELS),
        duration_s=150.0,
        warmup_s=40.0,
        sweep=True,
    ),
    Workload(
        name="rubis-central",
        why="RUBiS level 1, open loop: every page reaches the database through "
            "entity beans, so rdbms and the container do the most work",
        loop="open",
        cells=(("rubis", 1),),
        duration_s=60.0,
        warmup_s=7.5,
        session_rate_per_s=30.0,
        browser_fraction=0.8,
        think_time_ms=7_000.0,
    ),
    Workload(
        name="rubis-edge",
        why="RUBiS level 5, open loop, read-heavy: replicas and query caches "
            "serve reads, rdbms is bypassed - the control for any SQL change",
        loop="open",
        cells=(("rubis", 5),),
        duration_s=60.0,
        warmup_s=7.5,
        session_rate_per_s=60.0,
        browser_fraction=0.8,
        think_time_ms=7_000.0,
    ),
    Workload(
        name="rubis-bidstorm",
        why="RUBiS level 5 with 80% bidders: transactions, row locks, update "
            "propagation, JMS, invalidation - a read gain that taxes writes shows",
        loop="open",
        cells=(("rubis", 5),),
        duration_s=120.0,
        warmup_s=15.0,
        session_rate_per_s=40.0,
        browser_fraction=0.2,
        think_time_ms=7_000.0,
    ),
    Workload(
        name="session-herd",
        why="RUBiS level 5, 400 two-page browser sessions/s: a session starts "
            "per two fetches, so the kernel and session spawn/teardown do the "
            "work and page logic does little",
        loop="open",
        cells=(("rubis", 5),),
        duration_s=150.0,
        warmup_s=18.75,
        session_rate_per_s=400.0,
        browser_fraction=1.0,
        # Not bench_scale.py's 60 s: with a long think the kernel sizes its
        # first calendar epoch from the first handful of think times, and
        # host time then differs 2.3x between seeds (README, "Findings").
        think_time_ms=7_000.0,
        browser_mean_pages=2.0,
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
