"""Tests for the client population and load generation (§3.3)."""

import dataclasses
import math

import pytest

from repro.core.patterns import PatternLevel
from repro.core.usage import ScriptedPattern
from repro.experiments.calibration import default_workload
from repro.experiments.runner import run_configuration
from repro.obs.store import WholeRun
from repro.simnet.rng import Streams
from repro.workload.generator import LoadGenerator, WorkloadConfig
from repro.workload.openloop import OpenLoopConfig
from tests.helpers import tiny_system


def _notes_pattern(length=4):
    return ScriptedPattern(
        "notes",
        ["Notes"] * length,
        params_for=lambda streams, page, index: {
            "note_id": streams.randint("note-pick", 1, 12)
        },
    )


def _generator(level=PatternLevel.STATEFUL_CACHING, **config_overrides):
    env, system = tiny_system(level)
    system.warm_replicas()
    config = dataclasses.replace(
        WorkloadConfig(
            total_rate_per_s=6.0,
            browser_fraction=0.8,
            think_time_ms=2_000.0,
            duration_ms=20_000.0,
            warmup_ms=4_000.0,
        ),
        **config_overrides,
    )
    generator = LoadGenerator(
        system,
        Streams(77),
        _notes_pattern(),
        _notes_pattern(2),
        config=config,
        writer_group_name="writer",
    )
    return env, system, generator


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(browser_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadConfig(total_rate_per_s=0.0)
    # Same rule (and message) as OpenLoopConfig.
    with pytest.raises(ValueError, match="duration_ms must be positive"):
        WorkloadConfig(duration_ms=0.0)
    with pytest.raises(ValueError, match="warmup_ms must be non-negative"):
        WorkloadConfig(warmup_ms=-1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        WorkloadConfig().duration_ms = 1.0


@pytest.mark.parametrize("config_class", [WorkloadConfig, OpenLoopConfig])
@pytest.mark.parametrize(
    "field", ["think_time_ms", "duration_ms", "warmup_ms", "browser_fraction"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_a_shared_field_that_is_not_finite(config_class, field, value):
    """One validation of the fields both loops' configs share."""
    with pytest.raises(ValueError):
        config_class(**{field: value})


def test_config_rejects_a_warmup_that_swallows_the_run():
    """Clients stop at ``duration_ms``: a warm-up that long observes nothing."""
    for warmup_ms in (10_000.0, 20_000.0):
        with pytest.raises(ValueError, match="warmup must be shorter than duration"):
            WorkloadConfig(duration_ms=10_000.0, warmup_ms=warmup_ms)
    WorkloadConfig(duration_ms=10_000.0, warmup_ms=9_999.0)
    # Open-loop sessions drain past duration_ms and are measured.
    OpenLoopConfig(duration_ms=10_000.0, warmup_ms=20_000.0)


def test_clients_per_group_math():
    env, system, generator = _generator()
    counts = generator.clients_per_group()
    # 6 req/s over 3 groups = 2 req/s per group; 2 x 2 s think = 4 clients.
    assert counts["browser"] == 3  # 80% of 4, rounded
    assert counts["writer"] == 1


def test_mix_honours_the_ends_of_its_range():
    """A fraction of exactly 0 or 1 starts no client of the other kind;
    any other fraction keeps at least one of each."""
    _env, _system, generator = _generator(browser_fraction=1.0)
    assert generator.clients_per_group() == {"browser": 4, "writer": 0}
    _env, _system, generator = _generator(browser_fraction=0.0)
    assert generator.clients_per_group() == {"browser": 0, "writer": 4}
    _env, _system, generator = _generator(browser_fraction=0.99)
    assert generator.clients_per_group() == {"browser": 4, "writer": 1}
    # Paper defaults: 10 req/s x 7 s per group, 80/20.
    _env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    paper = LoadGenerator(system, Streams(1), _notes_pattern(), _notes_pattern())
    assert paper.clients_per_group() == {"browser": 56, "writer": 14}


def test_browsers_only_run_has_no_writer_group():
    workload = dataclasses.replace(
        default_workload(20_000.0, 4_000.0), browser_fraction=1.0
    )
    result = run_configuration("rubis", PatternLevel.CENTRALIZED, workload=workload, seed=5)
    assert result.groups() == ["local-browser", "remote-browser"]
    assert all(client.group.endswith("-browser") for client in result.generator.clients)
    assert result.total_requests > 0


def test_population_spans_all_client_machines():
    env, system, generator = _generator()
    clients = generator.build()
    machines = {client.machine for client in clients}
    assert len(machines) == 9  # 3 machines x 3 groups
    groups = {client.group for client in clients}
    assert groups == {
        "local-browser",
        "local-writer",
        "remote-browser",
        "remote-writer",
    }


def test_build_is_idempotent():
    env, system, generator = _generator()
    assert generator.build() is generator.build()


def test_achieved_rate_approximates_target():
    env, system, generator = _generator()
    generator.run(env)
    assert generator.achieved_rate_per_s() == pytest.approx(6.0, rel=0.25)


def test_soft_delay_keeps_rate_under_slow_responses():
    """Soft delays make the request rate response-time independent."""
    fast_env, _s, fast_gen = _generator(level=PatternLevel.STATEFUL_CACHING)
    fast_gen.run(fast_env)
    slow_env, _s, slow_gen = _generator(level=PatternLevel.CENTRALIZED)
    slow_gen.run(slow_env)
    # Centralized remote responses are ~400 ms slower, but the rate holds.
    assert slow_gen.achieved_rate_per_s() == pytest.approx(
        fast_gen.achieved_rate_per_s(), rel=0.15
    )


def test_monitor_receives_observations_after_warmup():
    env, system, generator = _generator()
    monitor = WholeRun(generator.run(env).to_state()["whole_run"])
    assert monitor.groups()
    for group in monitor.groups():
        assert monitor.session_mean(group) > 0
    assert monitor.discarded_warmup > 0


def test_clients_stop_at_duration():
    env, system, generator = _generator(duration_ms=10_000.0)
    generator.run(env)
    # All sessions wound down shortly after the configured duration.
    assert env.now < 10_000.0 + 5_000.0
    # Every client was sending: the whole population had a session open.
    assert generator.requests_sent > 0
    assert generator.peak_active == len(generator.clients)


def test_clients_are_numbered_per_generator():
    _env, _system, first = _generator()
    _env, _system, second = _generator()
    for generator in (first, second):
        clients = generator.build()
        assert [client.id for client in clients] == list(range(1, len(clients) + 1))


def test_back_to_back_runs_sample_the_same_sessions():
    """``c{id}-s{n}`` session ids feed the span sampler, so a cell's span
    table must not depend on which cells this process ran before it."""

    def run():
        return run_configuration(
            "rubis",
            PatternLevel.CENTRALIZED,
            workload=default_workload(20_000, 5_000),
            seed=5,
            with_spans=True,
            obs_sample=0.3,
        )

    first, second = run(), run()
    assert 0 < first.spans.sampled_requests == second.spans.sampled_requests
    assert first.spans_state == second.spans_state
