"""The injector flips link/server fault state exactly inside its windows."""

from repro.core.patterns import PatternLevel
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultSchedule,
    LatencySpike,
    LinkPartition,
    LossWindow,
    ServerCrash,
)
from repro.simnet.rng import Streams
from tests.helpers import tiny_system


def _install(env, system, schedule, seed=1234):
    return FaultInjector(schedule, Streams(seed)).install(env, system)


def _readings(env, read, times=(15.0, 25.0)):
    """``read()`` at each of ``times``, taken by a probe process: the
    list fills in while ``env.run()`` runs."""
    readings = []

    def probe():
        for time in times:
            yield env.sleep(time - env.now)
            readings.append(read())

    env.process(probe())
    return readings


def test_empty_schedule_installs_nothing():
    env, system = tiny_system()
    injector = _install(env, system, FaultSchedule())
    env.run()
    assert env.now == 0.0
    assert injector.partitions_applied == 0
    assert injector.skipped == 0


def test_partition_window_takes_link_down_and_heals_it():
    env, system = tiny_system()
    link = system.testbed.network.link_between("router", "edge1")
    injector = _install(
        env,
        system,
        FaultSchedule(partitions=(LinkPartition("router", "edge1", 10.0, 20.0),)),
    )
    assert link.up and not link.faulted
    readings = _readings(
        env, lambda: (link.up, link.faulted, injector.partitions_applied)
    )
    env.run()
    assert readings == [(False, True, 1), (True, False, 1)]


def test_latency_spike_window_sets_and_clears_extra_latency():
    env, system = tiny_system()
    link = system.testbed.network.link_between("router", "edge1")
    injector = _install(
        env,
        system,
        FaultSchedule(
            latency_spikes=(
                LatencySpike(
                    "router", "edge1", 10.0, 20.0, extra_ms=50.0, jitter_ms=5.0
                ),
            )
        ),
    )
    readings = _readings(
        env,
        lambda: (
            link.extra_latency,
            link.latency_jitter,
            link.faulted,
            injector.latency_spikes_applied,
        ),
    )
    env.run()
    assert readings[0] == (50.0, 5.0, True, 1)
    assert readings[1][0] == 0.0
    assert not readings[1][2]


def test_loss_window_sets_and_clears_probability():
    env, system = tiny_system()
    link = system.testbed.network.link_between("router", "edge1")
    injector = _install(
        env,
        system,
        FaultSchedule(
            loss_windows=(LossWindow("router", "edge1", 10.0, 20.0, probability=0.5),)
        ),
    )
    readings = _readings(
        env,
        lambda: (link.loss_probability, link.faulted, injector.loss_windows_applied),
    )
    env.run()
    assert readings == [(0.5, True, 1), (0.0, False, 1)]


def test_crash_window_takes_server_down_and_restarts_it():
    env, system = tiny_system()
    edge = system.servers["edge1"]
    injector = _install(
        env, system, FaultSchedule(crashes=(ServerCrash("edge1", 10.0, 20.0),))
    )
    readings = _readings(
        env,
        lambda: (
            edge.available,
            edge.crashes,
            system.resilience.server_crashes,
            injector.crashes_applied,
        ),
    )
    env.run()
    assert readings[0] == (False, 1, 1, 1)
    assert readings[1][0]


def test_crash_of_undeployed_server_is_skipped_not_an_error():
    # One scenario file must run unchanged across all five configurations,
    # including plans that do not stand up the named server.
    env, system = tiny_system(PatternLevel.CENTRALIZED)
    injector = _install(
        env,
        system,
        FaultSchedule(crashes=(ServerCrash("no-such-server", 10.0, 20.0),)),
    )
    env.run()
    assert injector.skipped == 1
    assert injector.crashes_applied == 0


def test_injector_counts_every_window_once():
    env, system = tiny_system()
    schedule = FaultSchedule(
        partitions=(
            LinkPartition("router", "edge1", 10.0, 20.0),
            LinkPartition("router", "edge2", 30.0, 40.0),
        ),
        latency_spikes=(
            LatencySpike("router", "edge1", 50.0, 60.0, extra_ms=10.0),
        ),
    )
    injector = _install(env, system, schedule)
    env.run()
    assert injector.partitions_applied == 2
    assert injector.latency_spikes_applied == 1
    assert injector.loss_windows_applied == 0
