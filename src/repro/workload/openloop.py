"""Open-loop arrivals: the config of the arrival process and its sessions.

The closed-loop population (:class:`~repro.workload.generator.WorkloadConfig`)
fixes a number of clients and lets soft think times pin the request
rate.  That shape cannot model the situations the paper's motivation
leans on — flash crowds, overload, and very large mostly-idle user
bases — because a closed loop throttles itself: when the service slows
down, the population slows its arrivals.

An :class:`OpenLoopConfig` handed to the one
:class:`~repro.workload.generator.LoadGenerator` selects the open-loop
complement instead: an *arrival process* spawns independent, finite
sessions at a configured rate regardless of how the service is doing.
Three inter-arrival laws are supported — Poisson (memoryless), Pareto
(heavy-tailed bursts, shape :data:`PARETO_ALPHA`) and lognormal (shape
:data:`LOGNORMAL_SIGMA`) — and three canned scenarios modulate the
instantaneous rate over the run: ``steady``, ``flash-crowd`` (the rate
times :data:`FLASH_MULTIPLIER` from :data:`FLASH_START` to
:data:`FLASH_END` of the run) and ``diurnal`` (a one-cycle sinusoidal
ramp of amplitude :data:`DIURNAL_AMPLITUDE`).  The law and the scenario
are the run's choices; their shapes are constants.

Sessions draw their page sequences from a first-order Markov walk
(:class:`TransitionMatrixPattern`) with geometric session lengths, so
each synthetic user follows its own path through the page graph instead
of replaying a fixed-length weighted mix.

Scale notes.  The engine is built to sustain 10^5-10^6 concurrent
sessions on the two-tier simulation kernel: a session costs two
generator frames (the driver's and its one-session iterator's) plus its
precomputed visit list while it sleeps, and a
sleeping session occupies exactly one timer-heap entry (the bare
float fast lane in :mod:`..simnet.kernel`).  For million-session runs
the benchmark harness additionally calls :func:`gc.freeze` after the
population is spawned so the cyclic collector stops re-tracing the
long-lived session frames; the engine itself allocates nothing cyclic
on the steady-state path.

Determinism.  All draws come from named :class:`~..simnet.rng.Streams`
(``openloop-arrivals``, ``openloop-mix``, ``openloop-think`` and the
pattern streams), and the kernel's (time, sequence) ordering makes the
interleaving reproducible, so a run is a pure function of the master
seed and the config — byte-identical under ``--jobs N`` because each
parallel cell owns its own stream family.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from ..core.usage import PageVisit, PatternError, UsagePattern, WeightedPattern
from ..simnet.rng import Streams

__all__ = [
    "ARRIVALS",
    "DIURNAL_AMPLITUDE",
    "FLASH_END",
    "FLASH_MULTIPLIER",
    "FLASH_START",
    "LOGNORMAL_SIGMA",
    "PARETO_ALPHA",
    "SCENARIOS",
    "OpenLoopConfig",
    "TransitionMatrixPattern",
    "check_shared_fields",
]

ARRIVALS = ("poisson", "pareto", "lognormal")
SCENARIOS = ("steady", "flash-crowd", "diurnal")

#: Pareto shape; above 1 so the inter-arrival mean is finite.
PARETO_ALPHA = 1.5
LOGNORMAL_SIGMA = 1.0
#: flash-crowd: rate multiplier inside the window, the window expressed
#: as fractions of the run duration.
FLASH_MULTIPLIER = 8.0
FLASH_START = 0.4
FLASH_END = 0.6
#: diurnal: the rate swings between (1-a) and (1+a) over one full cycle.
DIURNAL_AMPLITUDE = 0.5


def check_shared_fields(config) -> None:
    """The rules both loops' configs share: think time, duration and
    warm-up finite and in range, and a browser fraction in [0, 1].

    Every message starts with the field's name, which the CLI shows as
    the flag that sets it."""
    for name in ("think_time_ms", "duration_ms", "warmup_ms"):
        if not -math.inf < getattr(config, name) < math.inf:  # NaN fails both
            raise ValueError(f"{name} must be finite")
    if config.think_time_ms <= 0:
        raise ValueError("think_time_ms must be positive")
    if config.duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if config.warmup_ms < 0:
        raise ValueError("warmup_ms must be non-negative")
    if not 0.0 <= config.browser_fraction <= 1.0:  # NaN fails too
        raise ValueError("browser_fraction must be in [0, 1]")


@dataclass(frozen=True)
class OpenLoopConfig:
    """Arrival process, scenario and session shape for one open-loop run.

    Frozen (and therefore trivially picklable) so parallel experiment
    cells can ship it to workers unchanged.
    """

    arrival: str = "poisson"
    scenario: str = "steady"
    session_rate_per_s: float = 10.0
    duration_ms: float = 120_000.0
    warmup_ms: float = 20_000.0
    think_time_ms: float = 7_000.0
    browser_fraction: float = 0.8
    #: Admission cap on concurrently active sessions; 0 means unbounded.
    #: Arrivals beyond the cap are counted as dropped, not queued.
    max_sessions: int = 0

    def __post_init__(self):
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        check_shared_fields(self)
        if not -math.inf < self.session_rate_per_s < math.inf:  # NaN fails both
            raise ValueError("session_rate_per_s must be finite")
        if self.session_rate_per_s <= 0:
            raise ValueError("session_rate_per_s must be positive")
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be non-negative")

    @property
    def mean_gap_ms(self) -> float:
        return 1000.0 / self.session_rate_per_s

    def draw_gap(self, rng, mean: float) -> float:
        """One inter-arrival gap of mean ``mean`` ms under ``arrival``."""
        if self.arrival == "poisson":
            return rng.expovariate(1.0 / mean)
        if self.arrival == "pareto":
            # paretovariate(a) - 1 has mean 1/(a-1) on [0, inf), so this
            # gap has mean ``mean`` with a heavy right tail and mass near
            # zero: bursty arrivals.
            return mean * (PARETO_ALPHA - 1.0) * (rng.paretovariate(PARETO_ALPHA) - 1.0)
        # lognormal: choose mu so the mean is exactly ``mean``.
        mu = math.log(mean) - 0.5 * LOGNORMAL_SIGMA * LOGNORMAL_SIGMA
        return rng.lognormvariate(mu, LOGNORMAL_SIGMA)

    def rate_factor(self, now: float) -> float:
        """Instantaneous rate multiplier of the scenario at time ``now``."""
        if self.scenario == "flash-crowd":
            start = FLASH_START * self.duration_ms
            end = FLASH_END * self.duration_ms
            return FLASH_MULTIPLIER if start <= now < end else 1.0
        if self.scenario == "diurnal":
            phase = 2.0 * math.pi * (now / self.duration_ms)
            return 1.0 + DIURNAL_AMPLITUDE * math.sin(phase)
        return 1.0


class TransitionMatrixPattern(UsagePattern):
    """First-order Markov page walk with geometric session lengths.

    Built from a :class:`WeightedPattern`: every row of the transition
    matrix starts from the base page mix, with the self-transition weight
    zeroed (users do not re-request the page they are looking at) and
    renormalized.  ``follows`` constraints are honoured
    exactly as in the base pattern — drawing P with ``follows[P] = Q``
    when the previous page was not Q inserts a Q visit first.

    Session length is geometric: after each page the session continues
    with probability ``1 - 1/mean_length``, so the *mean* matches the
    base pattern's fixed length while individual sessions vary — the
    per-session page-mix variability the open-loop engine wants.  A hard
    cap, ``max_length`` (eight times the mean, at least 4), bounds the
    tail so one unlucky draw cannot pin a session (and its memory)
    forever.
    """

    def __init__(self, base: WeightedPattern, mean_length: Optional[float] = None):
        mean = float(mean_length if mean_length is not None else base.length)
        if mean <= 1.0:
            raise PatternError("mean_length must exceed 1")
        self.base = base
        self.name = f"markov:{base.name}"
        self.mean_length = mean
        self.max_length = max(4, int(8 * mean))
        self._continue_p = 1.0 - 1.0 / mean
        self._stream_name = f"pattern:{self.name}"
        self._pages = pages = tuple(base.weights.keys())
        self._hi = len(pages) - 1
        base_cum = list(accumulate(base.weights.values()))
        base_total = base_cum[-1] + 0.0
        if base_total <= 0.0:
            raise PatternError("base pattern weights must have a positive total")
        self._default_row = (base_cum, base_total)
        # One row per source page, its own weight zeroed; rows for pages
        # outside the weight table (e.g. a zero-weight first page) fall
        # back to the base mix.
        self._rows: Dict[str, Tuple[List[float], float]] = {}
        for source in pages:
            weights = dict(base.weights)
            weights[source] = 0.0
            cum = list(accumulate(weights.values()))
            total = cum[-1] + 0.0
            if total <= 0.0:
                cum, total = base_cum, base_total
            self._rows[source] = (cum, total)

    def session(self, streams: Streams, session_index: int) -> List[PageVisit]:
        base = self.base
        pages = self._pages
        hi = self._hi
        rows = self._rows
        default_row = self._default_row
        follows = base.follows
        continue_p = self._continue_p
        max_length = self.max_length
        rng_random = streams.get(self._stream_name).random
        # Inline, as in WeightedPattern.session: no helper call per visit.
        params_for = base.params_for
        page = base.first_page
        previous = PageVisit(page, params_for(streams, page, None))
        visits = [previous]
        count = 1
        while count < max_length and rng_random() < continue_p:
            cum_weights, total = rows.get(previous.page, default_row)
            page = pages[bisect(cum_weights, rng_random() * total, 0, hi)]
            required = follows.get(page)
            if required is not None and previous.page != required:
                previous = PageVisit(required, params_for(streams, required, previous))
                visits.append(previous)
                count += 1
                if count >= max_length:
                    break
            previous = PageVisit(page, params_for(streams, page, previous))
            visits.append(previous)
            count += 1
        return visits
