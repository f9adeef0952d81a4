"""Acceptance: windowed telemetry under a flash crowd with a WAN partition.

One RUBiS open-loop cell (flash-crowd arrivals, admission cap 140,
``edge-partition`` fault schedule) must produce a series artifact where
the paper-relevant transients are *visible and assertable*:

* the partition window rides on the artifact itself (fault overlay);
* admission drops concentrate in the flash windows while the cap binds;
* availability dips during the partition and recovers after it — with
  the recovery time a first-class number from the SLO monitor;
* the post-partition recovery churn shows as a p95 spike against the
  pre-flash baseline.

And the distribution contract: series / SLO / flamegraph / metrics
artifacts are byte-identical for ``--jobs 1`` and ``--jobs 4``.
"""

import statistics

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments.runner import run_configuration, run_series
from repro.faults.report import availability_row
from repro.faults.scenarios import load_schedule
from repro.obs.export import Sweep, canonical_json, validate_series, write_bundle
from repro.obs.metrics import Histogram
from repro.obs.slo import evaluate_slo, load_slo
from repro.obs.validate import main as validate_main, validate_bundle
from repro.workload.openloop import OpenLoopConfig

DURATION = 36_000.0
WARMUP = 6_000.0

#: Flash crowd over [14.4 s, 21.6 s) at 8x the base rate, capped at 140
#: concurrent sessions so the surge hits admission control.
FLASH = OpenLoopConfig(
    scenario="flash-crowd",
    session_rate_per_s=6.0,
    duration_ms=DURATION,
    warmup_ms=WARMUP,
    think_time_ms=1_000.0,
    max_sessions=140,
)


def _partition():
    """edge1 partitioned from the router over [15 s, 24 s)."""
    return load_schedule("edge-partition", DURATION, WARMUP, edges=("edge1", "edge2"))


@pytest.fixture(scope="module")
def flash_cell():
    return run_configuration(
        "rubis",
        PatternLevel.REMOTE_FACADE,
        openloop=FLASH,
        faults=_partition(),
        obs_interval_ms=1000.0,
    )


def _windows(series, section, name):
    """{window start ms: entry} for the windows whose ``section`` has ``name``."""
    interval = series["interval_ms"]
    return {
        int(key) * interval: window[section][name]
        for key, window in series["windows"].items()
        if name in window.get(section, {})
    }


def _p95(series):
    """{window start ms: p95 of every response served in it}."""
    p95 = {}
    for start, data in _windows(series, "quantiles", "_all").items():
        histogram = Histogram(series["bounds"])
        histogram.counts = list(data["counts"])
        histogram.count = data["count"]
        p95[start] = histogram.percentile(0.95)
    return p95


def test_fault_window_rides_on_the_series(flash_cell):
    assert flash_cell.store.fault_windows == (
        {
            "kind": "partition",
            "label": "router<->edge1",
            "start": 15_000.0,
            "end": 24_000.0,
        },
    )
    state = flash_cell.measurements["series"]
    assert state["fault_windows"][0]["end"] == 24_000.0
    assert validate_series({"series": {"rubis/L2": state}}) == []


def test_sampler_streams_every_layer(flash_cell):
    series = flash_cell.measurements["series"]
    # Open-loop session lifecycle counters per window.
    for name in ("sessions.arrivals", "sessions.admitted", "requests.sent"):
        assert sum(_windows(series, "counters", name).values()) > 0, name
    # Database and kernel activity differentiated into windows.
    assert sum(_windows(series, "counters", "db.statements").values()) > 0
    assert sum(_windows(series, "counters", "kernel.events").values()) > 0
    assert len(_windows(series, "gauges", "kernel.ready")) > 20
    assert len(_windows(series, "gauges", "sessions.active")) > 20
    # Windowed quantiles exist for the aggregate.
    assert len(_p95(series)) > 20


def test_admission_drops_concentrate_in_the_flash(flash_cell):
    drops = _windows(flash_cell.measurements["series"], "counters", "sessions.dropped")
    total = sum(drops.values())
    assert total > 50
    # Nothing is dropped before the surge arrives...
    assert min(drops) >= 14_000.0
    # ...the bulk lands while the flash (14.4–21.6 s) is arriving (a thin
    # tail drains afterwards while partition churn holds sessions open)...
    surge = sum(v for start, v in drops.items() if start < 22_000.0)
    assert surge > 0.8 * total
    # ...and the peak window is inside the flash.
    peak = max(drops, key=drops.get)
    assert 15_000.0 <= peak <= 22_000.0


def test_availability_dips_in_partition_and_recovery_is_measured(flash_cell):
    series = flash_cell.measurements["series"]
    report = evaluate_slo(series, load_slo("policies/slo-default.json"))
    availability = report["objectives"]["availability"]
    assert availability["violated"] > 0
    bad = [row for row in availability["windows"] if not row["ok"]]
    # Every out-of-SLO window overlaps the partition, and the dip is deep:
    # edge1's whole population errors against the partitioned router.
    assert all(row["in_fault"] for row in bad)
    assert min(row["value"] for row in bad) < 0.85
    assert all(row["burn"] > 1.0 for row in bad)
    # Recovery to SLO is a number, not an eyeball: compliant again at the
    # first window boundary after the partition heals.
    recovery = availability["recovery"][0]
    assert recovery["fault"] == "partition:router<->edge1"
    assert recovery["recovery_ms"] is not None
    assert recovery["recovery_ms"] <= 2_000.0


def test_p95_spikes_on_post_partition_recovery(flash_cell):
    p95 = _p95(flash_cell.measurements["series"])
    baseline = statistics.median(
        p95[start] for start in p95 if 8_000.0 <= start <= 14_000.0
    )
    # First window after the partition heals: reconnect churn from the
    # backlog of edge1 sessions drives the tail up.
    spike_window = min(start for start in p95 if start >= 24_000.0)
    assert spike_window == 24_000.0
    assert p95[spike_window] > 1.5 * baseline


def test_telemetry_leaves_the_monitor_untouched(flash_cell):
    """The sampler adds kernel wakes but zero workload perturbation."""
    bare = run_configuration(
        "rubis",
        PatternLevel.REMOTE_FACADE,
        openloop=FLASH,
        faults=_partition(),
    )
    assert bare.measurements["series"] is None
    assert bare.monitor.to_state() == flash_cell.monitor.to_state()
    assert availability_row(bare.measurements["metrics"]) == availability_row(
        flash_cell.measurements["metrics"]
    )


# ---------------------------------------------------------------------------
# Serial vs parallel byte identity
# ---------------------------------------------------------------------------

LEVELS = [PatternLevel.REMOTE_FACADE, PatternLevel.ASYNC_UPDATES]
STEADY = OpenLoopConfig(
    scenario="steady",
    session_rate_per_s=4.0,
    duration_ms=20_000.0,
    warmup_ms=5_000.0,
    think_time_ms=1_000.0,
    max_sessions=120,
)


def _sweep(jobs):
    return run_series(
        "rubis",
        levels=LEVELS,
        openloop=STEADY,
        faults=load_schedule("edge-partition", 20_000.0, 5_000.0, edges=("edge1", "edge2")),
        seed=21,
        with_spans=True,
        jobs=jobs,
        obs_interval_ms=1000.0,
        obs_sample=0.25,
    )


@pytest.fixture(scope="module")
def serial_sweep():
    return _sweep(1)


@pytest.fixture(scope="module")
def parallel_sweep():
    return _sweep(4)


def _bundle(results, directory):
    """Write the bundle exactly as the CLI does with ``--slo``."""
    labelled = [(f"rubis/L{int(level)}", results[level]) for level in LEVELS]
    objectives = load_slo("policies/slo-default.json")
    slo = {
        label: evaluate_slo(cell.measurements["series"], objectives)
        for label, cell in labelled
    }
    directory.mkdir()
    return write_bundle(str(directory), Sweep(labelled, slo=slo))


def test_artifacts_byte_identical_for_any_jobs(
    serial_sweep, parallel_sweep, tmp_path
):
    names = _bundle(serial_sweep, tmp_path / "serial")
    assert _bundle(parallel_sweep, tmp_path / "parallel") == names
    assert "slo.json" in names and "availability.json" not in names
    for name in names:
        one = (tmp_path / "serial" / name).read_bytes()
        assert one == (tmp_path / "parallel" / name).read_bytes(), name
    assert all(
        problems == [] for problems in validate_bundle(str(tmp_path / "serial")).values()
    )


def test_validate_fails_on_a_bundle_missing_an_always_written_file(
    serial_sweep, tmp_path, capsys
):
    directory = tmp_path / "bundle"
    _bundle(serial_sweep, directory)
    (directory / "slo.json").unlink()  # only written with --slo
    assert validate_main([str(directory)]) == 0
    (directory / "metrics.json").unlink()
    assert validate_main([str(directory)]) == 1
    assert "metrics.json: INVALID\n  - missing" in capsys.readouterr().err


def test_metrics_identical_when_telemetry_is_on_everywhere(serial_sweep, parallel_sweep):
    """cpu gauges divide by end-of-run env.now, which the sampler's final
    wake extends — but identically in every process, so metrics stay
    byte-stable across --jobs as long as telemetry is on (or off) in both."""
    serial, parallel = (
        canonical_json([results[level].measurements["metrics"] for level in LEVELS])
        for results in (serial_sweep, parallel_sweep)
    )
    assert serial == parallel


def test_span_sampling_is_identical_across_processes(serial_sweep, parallel_sweep):
    for level in LEVELS:
        serial_spans = serial_sweep[level].measurements["spans"]
        parallel_spans = parallel_sweep[level].measurements["spans"]
        assert serial_spans == parallel_spans
        assert serial_spans["sample_rate"] == 0.25
        assert serial_spans["skipped_requests"] > serial_spans["sampled_requests"]


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_exports_and_validates_all_artifacts(tmp_path, capsys):
    from repro.experiments.__main__ import main

    argv = [
        "table7",
        "--workload", "open",
        "--scenario", "steady",
        "--session-rate", "3",
        "--think-time", "1",
        "--duration", "15",
        "--warmup", "4",
        "--jobs", "1",
        "--obs-sample", "0.5",
        "--slo", "policies/slo-default.json",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    out = tmp_path / "run" / "bundle"  # parents are created too
    assert main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "SLO report" in captured.out
    assert "Latency attribution" not in captured.out
    assert validate_main([str(out)]) == 0
    assert "slo.json: ok" in capsys.readouterr().out
    assert (out / "attribution.txt").read_text().startswith("Latency attribution — rubis/L1")
    assert not (out / "availability.json").exists()  # no --faults
    # The per-cell trace digest (stderr) reports the sampled fraction.
    assert "spans sampled" in captured.err


def test_cli_out_removes_an_earlier_runs_optional_file(tmp_path, capsys):
    """A run without ``--slo`` into a directory that holds an earlier
    run's ``slo.json`` removes it: the bundle is this run's alone."""
    from repro.experiments.__main__ import main

    out = tmp_path / "bundle"
    argv = ["table6", "--duration", "15", "--warmup", "4", "--jobs", "1", "--out", str(out)]
    assert main(argv + ["--level", "1", "--slo", "policies/slo-default.json"]) == 0
    assert (out / "slo.json").exists()
    assert main(argv + ["--level", "2"]) == 0
    assert not (out / "slo.json").exists()
    capsys.readouterr()
    assert validate_main([str(out)]) == 0
