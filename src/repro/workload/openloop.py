"""Open-loop workload engine: arrivals decoupled from completions.

The closed-loop generator (:mod:`.generator`) fixes a client *population*
and lets soft think times pin the request rate.  That shape cannot model
the situations the paper's motivation leans on — flash crowds, overload,
and very large mostly-idle user bases — because a closed loop throttles
itself: when the service slows down, the population slows its arrivals.

This module provides the open-loop complement: an *arrival process*
spawns independent, finite sessions at a configured rate regardless of
how the service is doing.  Three inter-arrival laws are supported —
Poisson (memoryless), Pareto (heavy-tailed bursts) and lognormal — and
three canned scenarios modulate the instantaneous rate over the run:
``steady``, ``flash-crowd`` (a rate spike in a configurable window) and
``diurnal`` (a one-cycle sinusoidal ramp).

Sessions draw their page sequences from a first-order Markov walk
(:class:`TransitionMatrixPattern`) with geometric session lengths, so
each synthetic user follows its own path through the page graph instead
of replaying a fixed-length weighted mix.

Each admitted session is one kernel process whose body is the session
driver (:mod:`.driver`) — the same request/failover loop the closed-loop
clients run — handed this module's arrival policy: one ``o{n}`` session,
the full (not soft) think time, and no deadline.

Scale notes.  The engine is built to sustain 10^5-10^6 concurrent
sessions on the two-tier simulation kernel: a session costs two
generator frames (the driver's and its one-session iterator's) plus its
precomputed visit list while it sleeps, and a
sleeping session occupies exactly one calendar-queue slot (the bare
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
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from ..core.distribution import DeployedSystem
from ..core.usage import PageVisit, PatternError, UsagePattern, WeightedPattern
from ..simnet.kernel import Environment, Event
from ..simnet.monitor import ResponseTimeMonitor
from ..simnet.rng import Streams
from .driver import drive_sessions, workload_counters

__all__ = [
    "ARRIVALS",
    "SCENARIOS",
    "OpenLoopConfig",
    "TransitionMatrixPattern",
    "OpenLoopGenerator",
]

ARRIVALS = ("poisson", "pareto", "lognormal")
SCENARIOS = ("steady", "flash-crowd", "diurnal")


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
    #: Pareto shape; must exceed 1 so the inter-arrival mean is finite.
    pareto_alpha: float = 1.5
    lognormal_sigma: float = 1.0
    #: flash-crowd: rate multiplier inside the window, window expressed
    #: as fractions of the run duration.
    flash_multiplier: float = 8.0
    flash_start: float = 0.4
    flash_end: float = 0.6
    #: diurnal: rate swings between (1-a) and (1+a) over one full cycle.
    diurnal_amplitude: float = 0.5

    def __post_init__(self):
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        if self.session_rate_per_s <= 0 or self.think_time_ms <= 0:
            raise ValueError("session rate and think time must be positive")
        if self.duration_ms <= 0 or self.warmup_ms < 0:
            raise ValueError("duration must be positive and warmup non-negative")
        if not 0.0 <= self.browser_fraction <= 1.0:
            raise ValueError("browser_fraction must be in [0, 1]")
        if self.max_sessions < 0:
            raise ValueError("max_sessions must be non-negative")
        if self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 (finite mean)")
        if self.lognormal_sigma <= 0.0:
            raise ValueError("lognormal_sigma must be positive")
        if self.flash_multiplier <= 0.0:
            raise ValueError("flash_multiplier must be positive")
        if not 0.0 <= self.flash_start < self.flash_end <= 1.0:
            raise ValueError("flash window must satisfy 0 <= start < end <= 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    @property
    def mean_gap_ms(self) -> float:
        return 1000.0 / self.session_rate_per_s

    def rate_factor(self, now: float) -> float:
        """Instantaneous rate multiplier of the scenario at time ``now``."""
        if self.scenario == "flash-crowd":
            start = self.flash_start * self.duration_ms
            end = self.flash_end * self.duration_ms
            return self.flash_multiplier if start <= now < end else 1.0
        if self.scenario == "diurnal":
            phase = 2.0 * math.pi * (now / self.duration_ms)
            return 1.0 + self.diurnal_amplitude * math.sin(phase)
        return 1.0


class TransitionMatrixPattern(UsagePattern):
    """First-order Markov page walk with geometric session lengths.

    Built from a :class:`WeightedPattern`: every row of the transition
    matrix starts from the base page mix, with the self-transition weight
    damped by ``self_loop`` (users rarely re-request the page they are
    looking at) and renormalized.  ``follows`` constraints are honoured
    exactly as in the base pattern — drawing P with ``follows[P] = Q``
    when the previous page was not Q inserts a Q visit first.

    Session length is geometric: after each page the session continues
    with probability ``1 - 1/mean_length``, so the *mean* matches the
    base pattern's fixed length while individual sessions vary — the
    per-session page-mix variability the open-loop engine wants.  A hard
    cap bounds the tail so one unlucky draw cannot pin a session (and
    its memory) forever.
    """

    def __init__(
        self,
        base: WeightedPattern,
        mean_length: Optional[float] = None,
        self_loop: float = 0.0,
        max_length: Optional[int] = None,
    ):
        if not 0.0 <= self_loop <= 1.0:
            raise PatternError("self_loop must be in [0, 1]")
        mean = float(mean_length if mean_length is not None else base.length)
        if mean <= 1.0:
            raise PatternError("mean_length must exceed 1")
        self.base = base
        self.name = f"markov:{base.name}"
        self.mean_length = mean
        self.self_loop = self_loop
        self.max_length = int(max_length) if max_length else max(4, int(8 * mean))
        self._continue_p = 1.0 - 1.0 / mean
        self._stream_name = f"pattern:{self.name}"
        self._pages = pages = tuple(base.weights.keys())
        self._hi = len(pages) - 1
        base_cum = list(accumulate(base.weights.values()))
        base_total = base_cum[-1] + 0.0
        if base_total <= 0.0:
            raise PatternError("base pattern weights must have a positive total")
        self._default_row = (base_cum, base_total)
        # One damped row per source page; rows for pages outside the
        # weight table (e.g. a zero-weight first page) fall back to the
        # base mix.
        self._rows: Dict[str, Tuple[List[float], float]] = {}
        for source in pages:
            weights = dict(base.weights)
            weights[source] = weights[source] * self_loop
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
        visits: List[PageVisit] = []
        previous: Optional[PageVisit] = None

        def visit(page: str) -> PageVisit:
            nonlocal previous
            params = base.params_for(streams, page, previous)
            page_visit = PageVisit(page, params)
            visits.append(page_visit)
            previous = page_visit
            return page_visit

        visit(base.first_page)
        while len(visits) < max_length and rng_random() < continue_p:
            cum_weights, total = rows.get(previous.page, default_row)
            page = pages[bisect(cum_weights, rng_random() * total, 0, hi)]
            required = follows.get(page)
            if required is not None and previous.page != required:
                visit(required)
                if len(visits) >= max_length:
                    break
            visit(page)
        return visits


class OpenLoopGenerator:
    """Spawns independent sessions from an arrival process.

    API-compatible with :class:`.generator.LoadGenerator` where the
    experiment runner and the obs layer care (``monitor``, ``start``,
    ``run``, ``total_requests``, ``achieved_rate_per_s``, and the counter
    surface ``requests_sent`` / ``errors`` / ``failovers`` / ``think_ms``
    / ``error_kinds``), so the two are interchangeable behind the
    ``--workload`` knob; the session counters (``arrivals``,
    ``admitted``, ...) exist only here.
    """

    def __init__(
        self,
        system: DeployedSystem,
        streams: Streams,
        browser_pattern: UsagePattern,
        writer_pattern: UsagePattern,
        config: Optional[OpenLoopConfig] = None,
        writer_group_name: str = "buyer",
    ):
        self.system = system
        self.streams = streams
        self.browser_pattern = browser_pattern
        self.writer_pattern = writer_pattern
        self.config = config or OpenLoopConfig()
        self.writer_group_name = writer_group_name
        self.monitor = ResponseTimeMonitor(warmup=self.config.warmup_ms)
        # Open-loop session accounting (the obs layer reports these).
        self.arrivals = 0
        self.admitted = 0
        self.dropped_sessions = 0
        self.completions = 0
        self.active = 0
        self.peak_active = 0
        self.requests_sent = 0
        self.errors = 0
        self.failovers = 0
        self.think_ms = 0.0
        #: Lost visits by the class name of the exception that lost them.
        self.error_kinds: Dict[str, int] = {}
        self._think_rng = streams.get("openloop-think")
        #: Optional :class:`~repro.obs.timeseries.TimeSeriesRecorder`;
        #: when set, every successful response is streamed into the
        #: current window as it happens (the one per-request telemetry
        #: cost the sampler's pull model does not cover).
        self.timeseries = None
        self._targets: List[Tuple[str, str]] = []

    # -- assembly -----------------------------------------------------------
    def _build_targets(self) -> List[Tuple[str, str]]:
        """(client machine, locality) in round-robin order across groups.

        Transposed — first machine of every group, then second of every
        group, ... — so consecutive arrivals spread across entry points
        instead of piling onto one edge.
        """
        if self._targets:
            return self._targets
        testbed = self.system.testbed
        columns: List[List[Tuple[str, str]]] = []
        for server_name in testbed.app_servers:
            locality = "local" if server_name == testbed.main_server else "remote"
            columns.append(
                [(machine, locality) for machine in testbed.clients_of(server_name)]
            )
        depth = max(len(column) for column in columns)
        for index in range(depth):
            for column in columns:
                if index < len(column):
                    self._targets.append(column[index])
        return self._targets

    # -- arrival process ----------------------------------------------------
    def _draw_gap(self, rng, mean: float) -> float:
        arrival = self.config.arrival
        if arrival == "poisson":
            return rng.expovariate(1.0 / mean)
        if arrival == "pareto":
            # paretovariate(a) - 1 has mean 1/(a-1) on [0, inf), so this
            # gap has mean ``mean`` with a heavy right tail and mass near
            # zero: bursty arrivals.
            alpha = self.config.pareto_alpha
            return mean * (alpha - 1.0) * (rng.paretovariate(alpha) - 1.0)
        # lognormal: choose mu so the mean is exactly ``mean``.
        sigma = self.config.lognormal_sigma
        mu = math.log(mean) - 0.5 * sigma * sigma
        return rng.lognormvariate(mu, sigma)

    def _arrivals(self, env: Environment) -> Generator[Event, None, None]:
        config = self.config
        targets = self._build_targets()
        n_targets = len(targets)
        gap_rng = self.streams.get("openloop-arrivals")
        mix_random = self.streams.get("openloop-mix").random
        mean_gap = config.mean_gap_ms
        duration = config.duration_ms
        max_sessions = config.max_sessions
        think = self._full_think  # one bound method for every session
        index = 0
        while True:
            gap = self._draw_gap(gap_rng, mean_gap)
            # Scenario modulation scales the *local* mean gap by the
            # instantaneous rate factor.
            factor = config.rate_factor(env.now)
            if factor != 1.0:
                gap /= factor
            yield env.sleep(gap)
            if env.now >= duration:
                return
            self.arrivals += 1
            if max_sessions and self.active >= max_sessions:
                # Open loop: an arrival finding the system full is turned
                # away, never queued — the defining drop mode.
                self.dropped_sessions += 1
                continue
            machine, locality = targets[index % n_targets]
            index += 1
            if mix_random() < config.browser_fraction:
                kind, pattern = "browser", self.browser_pattern
            else:
                kind, pattern = self.writer_group_name, self.writer_pattern
            group = f"{locality}-{kind}"
            self.admitted += 1
            env.process(
                drive_sessions(
                    env,
                    self,
                    machine,
                    group,
                    self._one_session(self.arrivals, pattern),
                    think,
                    math.inf,
                ),
                name=f"open-session-{self.arrivals}",
            )

    # -- one session --------------------------------------------------------
    def _one_session(
        self, index: int, pattern: UsagePattern
    ) -> Iterator[Tuple[str, List[PageVisit]]]:
        """The single ``o{index}`` session of one arrival.

        Active from the driver's first pull until it asks for a second
        session (or drops the iterator), whichever way the session ends.
        """
        self.active += 1
        if self.active > self.peak_active:
            self.peak_active = self.active
        try:
            yield f"o{index}", pattern.session(self.streams, index)
        finally:
            self.active -= 1
            self.completions += 1

    def _full_think(self, elapsed: float, last: bool, broken: bool) -> float:
        """Open loop uses the *full* think time: the arrival process owns
        the rate, so there is nothing for a soft delay to hold steady.
        Truncated to whole milliseconds — the RUBiS client emulator
        schedules think times through Thread.sleep(ms) — which also lets
        the kernel batch same-instant wake-ups.  Nothing is drawn after a
        session's last visit or a broken one: the session just ends."""
        if last or broken:
            return 0.0
        return float(int(self._think_rng.expovariate(1.0 / self.config.think_time_ms)))

    # -- driving ------------------------------------------------------------
    def start(self, env: Environment) -> None:
        """Register the arrival process."""
        self._build_targets()
        env.process(self._arrivals(env), name="open-loop-arrivals")

    def run(self, env: Environment) -> ResponseTimeMonitor:
        """Start arrivals and run until every admitted session finishes."""
        self.start(env)
        env.run()
        return self.monitor

    # -- reporting ----------------------------------------------------------
    def total_requests(self) -> int:
        return self.requests_sent

    def counters(self) -> Dict[str, float]:
        """Cumulative workload and session counters, by metric name."""
        return {
            **workload_counters(self),
            "workload.sessions_arrived": self.arrivals,
            "workload.sessions_admitted": self.admitted,
            "workload.sessions_completed": self.completions,
            "workload.sessions_dropped": self.dropped_sessions,
        }

    def achieved_rate_per_s(self) -> float:
        return self.requests_sent / (self.config.duration_ms / 1000.0)
