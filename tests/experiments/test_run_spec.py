"""Tests for the one run description (``RunSpec``) and its keyword form.

``RunSpec`` is the only declaration of the per-cell options: the three
entry points take a spec, or any of its fields as keyword options, and
the CLI builds one spec and makes one ``run_cells`` call whatever
``--jobs`` says.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.patterns import PatternLevel
from repro.core.policy import load_policy
from repro.experiments import calibration
from repro.experiments.__main__ import OPTIONS, main
from repro.experiments.parallel import run_cells
from repro.experiments.runner import RunSpec, run_configuration, run_series
from repro.faults import scenarios
from repro.simnet.topology import TestbedConfig, TopologyOverrides
from repro.workload.openloop import OpenLoopConfig

POLICY_FILE = Path(__file__).resolve().parents[2] / "policies" / "replicas-one-edge.json"
TINY = calibration.default_workload(duration_ms=6_000.0, warmup_ms=1_000.0)

# One non-default value per option; the test below fails when RunSpec
# grows a field this table does not cover.
NON_DEFAULT = {
    "workload": TINY,
    "seed": 5,
    "with_spans": True,
    "faults": scenarios.scenario("latency-spike", 6_000.0, 1_000.0),
    "policy": load_policy(str(POLICY_FILE)),
    "topology": TopologyOverrides(edges=3),
    "openloop": OpenLoopConfig(
        session_rate_per_s=2.0, duration_ms=6_000.0, warmup_ms=1_000.0
    ),
    "obs_interval_ms": 1_000.0,
    "obs_sample": 0.5,
}
FIELDS = [field.name for field in dataclasses.fields(RunSpec)]
LEVEL = NON_DEFAULT["policy"].effective_level()

ENTRY_POINTS = {
    "run_configuration": lambda **options: run_configuration(
        "petstore", LEVEL, **options
    ),
    "run_series": lambda **options: run_series("petstore", **options)[LEVEL],
    "run_cells": lambda **options: run_cells([("petstore", LEVEL)], jobs=1, **options)[
        ("petstore", LEVEL)
    ],
}


def test_every_option_has_a_non_default_value():
    assert sorted(NON_DEFAULT) == sorted(FIELDS)
    defaults = RunSpec()
    for name in FIELDS:
        assert NON_DEFAULT[name] != getattr(defaults, name), name


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_field_is_an_option_of_every_entry_point(entry):
    result = ENTRY_POINTS[entry](**{name: NON_DEFAULT[name] for name in FIELDS})
    # Each option visibly took effect.
    assert result.label == "replicas-one-edge"
    assert result.topology["edge_servers"] == 3
    assert result.spans_state["sample_rate"] == 0.5
    assert result.measurements["series"] is not None


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_misspelt_option_is_a_type_error_naming_it(entry):
    with pytest.raises(TypeError, match="obs_smaple"):
        ENTRY_POINTS[entry](workload=TINY, obs_smaple=0.5)


def test_browser_pattern_cannot_cross_the_pool():
    """A callable: a direct keyword of ``run_configuration`` only."""
    assert "browser_pattern" not in FIELDS
    with pytest.raises(TypeError, match="browser_pattern"):
        run_cells([("rubis", 1)], workload=TINY, browser_pattern=lambda catalog: None)


def test_spec_and_keyword_form_agree_and_options_override_the_spec():
    spec = RunSpec(workload=TINY, seed=5)
    level = PatternLevel.REMOTE_FACADE
    by_spec = run_configuration("rubis", level, spec)
    by_keywords = run_configuration("rubis", level, workload=TINY, seed=5)
    overridden = run_configuration("rubis", level, spec, seed=6)
    assert by_spec.monitor.to_state() == by_keywords.monitor.to_state()
    assert by_spec.monitor.to_state() != overridden.monitor.to_state()
    assert spec.seed == 5  # frozen: options build a new spec


# ---------------------------------------------------------------------------
# The CLI: one spec, one sweep call, the same output for any --jobs
# ---------------------------------------------------------------------------


def test_cli_single_level_is_identical_for_any_jobs(capsys):
    outputs = []
    for jobs in ("1", "2"):
        argv = ["table7", "--level", "6", "--duration", "15", "--warmup", "5"]
        assert main(argv + ["--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("Method caching") == 1
    assert "Centralized" not in outputs[0]


@pytest.mark.parametrize(
    "flags",
    [
        ["--duration", "-5"],
        ["--warmup", "-1"],
        ["--workload", "open", "--duration", "0"],
        # Not finite: these used to print an empty table, hang, measure
        # the warm-up or crash.
        ["--duration", "nan"],
        ["--duration", "inf"],
        ["--warmup", "nan"],
        ["--workload", "open", "--duration", "nan"],
        ["--workload", "open", "--duration", "inf"],
        ["--workload", "open", "--warmup", "nan"],
        ["--workload", "open", "--session-rate", "nan"],
        ["--workload", "open", "--session-rate", "inf"],
        ["--workload", "open", "--think-time", "nan"],
        ["--workload", "open", "--think-time", "inf"],
    ],
)
def test_cli_rejects_an_invalid_workload(capsys, monkeypatch, flags):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    assert main(["table7", "--jobs", "1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("[workload] ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--workload", "open", "--session-rate", "0"], "--session-rate must be positive"),
        (["--workload", "open", "--think-time", "0"], "--think-time must be positive"),
        (["--duration", "0"], "--duration must be positive"),
        (["--workload", "open", "--duration", "0"], "--duration must be positive"),
        (["--warmup", "-1"], "--warmup must be non-negative"),
        (["--workload", "open", "--session-rate", "nan"], "--session-rate must be finite"),
    ],
)
def test_cli_names_the_flag_of_a_workload_value_out_of_range(
    capsys, monkeypatch, flags, message
):
    """These used to say "session rate must be positive" and the like,
    naming no flag."""

    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    assert main(["table7", "--jobs", "1"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"[workload] {message}\n"
    assert captured.out == ""


def test_cli_rejects_a_closed_loop_warmup_that_swallows_the_run(capsys):
    """Used to print a header-only table and exit 0."""
    argv = ["table7", "--jobs", "1", "--level", "1", "--duration", "10", "--warmup", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "[workload] warmup must be shorter than duration\n"
    assert captured.out == ""


@pytest.mark.parametrize("interval", ["nan", "inf", "0", "-1"])
def test_cli_rejects_an_obs_interval_that_is_not_positive_and_finite(
    capsys, monkeypatch, interval
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    argv = ["table6", "--level", "1", "--jobs", "1", "--duration", "5", "--warmup", "1",
            f"--obs-interval={interval}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "[obs] --obs-interval must be positive and finite\n"
    assert captured.out == ""


def test_cli_rejects_an_out_dir_it_cannot_create_before_any_cell_runs(
    capsys, monkeypatch, tmp_path
):
    """Used to simulate the sweep, then crash writing the first artifact."""

    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["table6", "--level", "1", "--jobs", "1", "--out", str(not_a_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("[out] ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--out", "unused-bundle"],
        ["--slo", "policies/slo-default.json"],
        ["--faults", "edge-partition"],
        ["--workload", "open"],
        ["--policy", str(POLICY_FILE)],
        ["--edges", "3"],
    ],
)
def test_cli_rejects_what_ablations_cannot_honour(capsys, monkeypatch, flags):
    def no_ablations(*args, **kwargs):
        raise AssertionError("the ablations ran")

    monkeypatch.setattr("repro.experiments.ablations.run_all_ablations", no_ablations)
    assert main(["ablations", "--jobs", "1"] + flags) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("[") for line in lines)
    assert lines[-1].endswith("not supported for ablations")
    assert captured.out == ""


@pytest.mark.parametrize("schedule", ["no-such-scenario", "missing", "bad-keys"])
def test_cli_rejects_a_fault_schedule_it_cannot_load(capsys, monkeypatch, tmp_path, schedule):
    """Used to print a traceback and exit 1."""

    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.experiments.__main__.run_cells", no_simulation)
    bad_keys = tmp_path / "bad.json"
    bad_keys.write_text('{"bogus": 1}')
    argument = {
        "no-such-scenario": "no-such-scenario",
        "missing": str(tmp_path / "missing.json"),
        "bad-keys": str(bad_keys),
    }[schedule]
    argv = ["table6", "--level", "1", "--jobs", "1", "--duration", "5", "--warmup", "1"]
    assert main(argv + ["--faults", argument]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("[faults] ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


class _SpecSeen(Exception):
    pass


def _spec_from_cli(monkeypatch, argv) -> RunSpec:
    """The spec ``main(argv)`` hands to ``run_cells``; no cell runs."""

    def capture(cells, spec, **kwargs):
        raise _SpecSeen(spec)

    monkeypatch.setattr("repro.experiments.__main__.run_cells", capture)
    with pytest.raises(_SpecSeen) as seen:
        main(argv)
    return seen.value.args[0]


def test_the_cli_sets_every_run_spec_field(monkeypatch, tmp_path):
    """Each flag lands in the field its table row names; a new RunSpec
    field the CLI cannot reach fails here."""
    short = ["--jobs", "1", "--duration", "6", "--warmup", "1"]
    topology = TopologyOverrides(edges=3, wan_latency=80.0, clients_per_group=2)
    closed = _spec_from_cli(monkeypatch, ["table6"] + short + [
        "--seed", "5", "--out", str(tmp_path / "bundle"), "--obs-interval", "2",
        "--obs-sample", "0.5", "--faults", "latency-spike", "--policy", str(POLICY_FILE),
        "--edges", "3", "--wan-latency", "80", "--clients-per-group", "2",
    ])
    assert closed == RunSpec(
        workload=calibration.default_workload(duration_ms=6_000.0, warmup_ms=1_000.0),
        seed=5,
        with_spans=True,
        faults=scenarios.scenario(
            "latency-spike", 6_000.0, 1_000.0,
            edges=scenarios.default_edges(topology.apply(TestbedConfig())),
        ),
        policy=load_policy(str(POLICY_FILE)),
        topology=topology,
        obs_interval_ms=2_000.0,
        obs_sample=0.5,
    )
    opened = _spec_from_cli(monkeypatch, ["table7"] + short + [
        "--workload", "open", "--arrival", "pareto", "--scenario", "diurnal",
        "--session-rate", "3", "--max-sessions", "9", "--think-time", "2",
    ])
    assert opened == RunSpec(openloop=OpenLoopConfig(
        arrival="pareto", scenario="diurnal", session_rate_per_s=3.0, duration_ms=6_000.0,
        warmup_ms=1_000.0, think_time_ms=2_000.0, max_sessions=9,
    ))
    defaults = RunSpec()
    set_by_cli = {
        name for spec in (closed, opened) for name in FIELDS
        if getattr(spec, name) != getattr(defaults, name)
    }
    assert set(FIELDS) == set_by_cli


def test_every_open_loop_field_is_set_by_a_flag_or_a_suite_workload():
    """A field of ``OpenLoopConfig`` that no ``OPTIONS`` row and no
    benchmark workload sets has one value in use: a constant."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("suite_workloads", path)
    suite = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = suite  # dataclasses look their module up by name
    try:
        module_spec.loader.exec_module(suite)
    finally:
        del sys.modules[module_spec.name]
    by_flag = {
        row.field for row in OPTIONS
        if row.sets.startswith(("OpenLoopConfig.", "loop."))
    }
    by_suite = {
        key for workload in suite.WORKLOADS if workload.loop == "open"
        for key in workload.params(1.0)
    }
    fields = {field.name for field in dataclasses.fields(OpenLoopConfig)}
    assert fields <= by_flag | by_suite, fields - by_flag - by_suite
