"""Open-loop workload engine: arrivals, scenarios, Markov sessions."""

import json

import pytest

from repro.core.usage import PatternError, WeightedPattern
from repro.simnet.rng import Streams
from repro.workload.openloop import OpenLoopConfig, TransitionMatrixPattern


# -- configuration ----------------------------------------------------------

def test_config_validates_arrival_and_scenario():
    with pytest.raises(ValueError):
        OpenLoopConfig(arrival="uniform")
    with pytest.raises(ValueError):
        OpenLoopConfig(scenario="tsunami")
    with pytest.raises(ValueError):
        OpenLoopConfig(session_rate_per_s=0.0)
    with pytest.raises(ValueError):
        OpenLoopConfig(max_sessions=-1)


def test_rate_factor_scenarios():
    steady = OpenLoopConfig(scenario="steady", duration_ms=100_000.0)
    assert steady.rate_factor(0.0) == 1.0
    assert steady.rate_factor(99_000.0) == 1.0

    flash = OpenLoopConfig(scenario="flash-crowd", duration_ms=100_000.0)
    assert flash.rate_factor(10_000.0) == 1.0
    assert flash.rate_factor(50_000.0) == 8.0
    assert flash.rate_factor(60_000.0) == 1.0

    diurnal = OpenLoopConfig(scenario="diurnal", duration_ms=100_000.0)
    assert diurnal.rate_factor(0.0) == pytest.approx(1.0)
    assert diurnal.rate_factor(25_000.0) == pytest.approx(1.5)
    assert diurnal.rate_factor(75_000.0) == pytest.approx(0.5)
    assert min(diurnal.rate_factor(t) for t in range(0, 100_000, 500)) > 0.0


# -- arrival draws ----------------------------------------------------------

@pytest.mark.parametrize("arrival", ["poisson", "pareto", "lognormal"])
def test_gap_draws_have_configured_mean(arrival):
    config = OpenLoopConfig(arrival=arrival, session_rate_per_s=10.0)
    rng = Streams(7).get("gap-test")
    n = 200_000
    gaps = [config.draw_gap(rng, config.mean_gap_ms) for _ in range(n)]
    assert min(gaps) >= 0.0
    observed = sum(gaps) / n
    # Pareto at alpha=1.5 converges slowly; the others are tight.
    tolerance = 0.25 if arrival == "pareto" else 0.05
    assert observed == pytest.approx(config.mean_gap_ms, rel=tolerance)


def test_pareto_gaps_are_heavier_tailed_than_poisson():
    rng = Streams(11).get("tail-test")
    poisson = OpenLoopConfig(arrival="poisson")
    pareto = OpenLoopConfig(arrival="pareto")
    n = 100_000
    mean = 100.0
    p_draws = sorted(poisson.draw_gap(rng, mean) for _ in range(n))
    h_draws = sorted(pareto.draw_gap(rng, mean) for _ in range(n))
    # Same mean, but the heavy tail's extreme quantile is far larger.
    assert h_draws[-10] > 5 * p_draws[-10]


# -- transition-matrix sessions --------------------------------------------

def _base_pattern():
    return WeightedPattern(
        name="toy",
        length=6,
        weights={"home": 4.0, "list": 3.0, "item": 2.0, "buy": 1.0},
        first_page="home",
        follows={"item": "list"},
    )


def test_markov_sessions_start_at_first_page_and_honor_follows():
    pattern = TransitionMatrixPattern(_base_pattern(), mean_length=6.0)
    streams = Streams(42)
    for index in range(200):
        visits = pattern.session(streams, index)
        assert visits[0].page == "home"
        assert len(visits) <= pattern.max_length
        for prev, this in zip(visits, visits[1:]):
            if this.page == "item":
                assert prev.page == "list"


def test_markov_mean_session_length_matches_target():
    pattern = TransitionMatrixPattern(_base_pattern(), mean_length=6.0)
    streams = Streams(13)
    lengths = [len(pattern.session(streams, i)) for i in range(4000)]
    mean = sum(lengths) / len(lengths)
    # Geometric continuation around the target mean; follows-insertions
    # and the hard cap skew it slightly, so the window is generous.
    assert 4.5 < mean < 7.5


def test_markov_damps_self_transitions():
    pattern = TransitionMatrixPattern(_base_pattern())
    streams = Streams(99)
    for index in range(300):
        visits = pattern.session(streams, index)
        for prev, this in zip(visits, visits[1:]):
            assert this.page != prev.page


def test_markov_rejects_degenerate_mean():
    with pytest.raises(PatternError):
        TransitionMatrixPattern(_base_pattern(), mean_length=1.0)


# -- end-to-end runs --------------------------------------------------------

def _run_openloop(config, seed=2003, **kwargs):
    from repro.experiments.runner import run_configuration

    return run_configuration(
        "rubis", 5, seed=seed, openloop=config, **kwargs
    )


def _small_config(**overrides):
    base = dict(
        session_rate_per_s=3.0,
        duration_ms=8_000.0,
        warmup_ms=1_000.0,
        think_time_ms=2_000.0,
    )
    base.update(overrides)
    return OpenLoopConfig(**base)


def test_openloop_run_accounts_for_every_session():
    result = _run_openloop(_small_config())
    generator = result.generator
    assert generator.arrivals > 0
    assert generator.admitted == generator.arrivals - generator.dropped_sessions
    # env.run() drains to completion: nothing left active.
    assert generator.active == 0
    assert generator.completions == generator.admitted
    assert generator.peak_active >= 1
    assert generator.requests_sent > 0
    assert generator.total_requests() == generator.requests_sent
    assert result.monitor.groups()


def test_openloop_admission_cap_drops_sessions():
    result = _run_openloop(
        _small_config(session_rate_per_s=20.0, max_sessions=5)
    )
    generator = result.generator
    assert generator.dropped_sessions > 0
    assert generator.peak_active <= 5
    assert generator.admitted + generator.dropped_sessions == generator.arrivals


def test_openloop_dropped_sessions_reach_the_availability_report():
    from repro.faults.report import (
        availability_row,
        availability_to_json,
        build_availability_table,
    )

    result = _run_openloop(_small_config(session_rate_per_s=20.0, max_sessions=5))
    dropped = result.generator.dropped_sessions
    assert dropped > 0
    assert availability_row(result.measurements["metrics"])["dropped_sessions"] == dropped
    table = build_availability_table("rubis", {result.level: result})
    payload = json.loads(availability_to_json([table]))
    assert payload["rubis"]["configurations"]["L5"]["dropped_sessions"] == dropped


def test_openloop_metrics_expose_session_health():
    result = _run_openloop(
        _small_config(session_rate_per_s=20.0, max_sessions=5),
    )
    metrics = result.store.registry
    generator = result.generator
    assert metrics.value("workload.sessions_arrived") == generator.arrivals
    assert metrics.value("workload.sessions_completed") == generator.completions
    assert metrics.value("workload.sessions_dropped") == generator.dropped_sessions
    assert metrics.value("workload.sessions_active") == 0.0
    assert metrics.value("workload.sessions_peak") == float(generator.peak_active)


def test_openloop_runs_are_deterministic():
    first = _run_openloop(_small_config(arrival="pareto", scenario="flash-crowd"))
    second = _run_openloop(_small_config(arrival="pareto", scenario="flash-crowd"))
    assert first.monitor.to_state() == second.monitor.to_state()
    assert first.generator.arrivals == second.generator.arrivals
    assert first.generator.requests_sent == second.generator.requests_sent


def test_flash_crowd_concentrates_arrivals():
    steady = _run_openloop(_small_config(duration_ms=20_000.0))
    flash = _run_openloop(
        _small_config(duration_ms=20_000.0, scenario="flash-crowd")
    )
    # An 8x window over 20% of the run roughly doubles total arrivals.
    assert flash.generator.arrivals > 1.8 * steady.generator.arrivals


def test_openloop_cell_is_picklable_and_parallel_consistent():
    """jobs=1 vs jobs=2 produce identical serialized cell results."""
    from repro.experiments.parallel import run_cells

    config = _small_config()
    serial = run_cells([("rubis", 5)], jobs=1, openloop=config, seed=2003)
    parallel = run_cells([("rubis", 5)], jobs=2, openloop=config, seed=2003)
    key = ("rubis", 5)
    assert serial[key].measurements == parallel[key].measurements
    assert serial[key].total_requests == parallel[key].total_requests
