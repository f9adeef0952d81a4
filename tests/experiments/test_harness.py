"""Tests for the experiment harness: runner, tables, figures, probes, CLI."""

import gc
import weakref

import pytest

from repro.core.patterns import PatternLevel
from repro.experiments import calibration
from repro.experiments.figures import build_figure, render_figure
from repro.experiments.probes import ProbeResult, measure_pages
from repro.experiments.runner import APPS, run_configuration
from repro.experiments.tables import build_table, render_table

FAST = calibration.default_workload(duration_ms=30_000.0, warmup_ms=8_000.0)


@pytest.fixture(scope="module")
def small_series():
    # Live results (generator, system), so cell by cell.
    return {
        level: run_configuration("rubis", level, workload=FAST, seed=55)
        for level in (PatternLevel.CENTRALIZED, PatternLevel.QUERY_CACHING)
    }


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_app_specs_complete():
    assert set(APPS) == {"petstore", "rubis"}
    for spec in APPS.values():
        assert spec.browser_pages and spec.writer_pages


def test_petstore_profile_is_heavier_than_rubis():
    """"RUBiS is significantly lighter weight" — the profiles encode it."""
    petstore, rubis = calibration.PETSTORE_COSTS, calibration.RUBIS_COSTS
    assert petstore.servlet_base > rubis.servlet_base
    assert petstore.servlet_io_wait > rubis.servlet_io_wait
    assert petstore.rmi_dgc_fraction > rubis.rmi_dgc_fraction  # JBoss 2.4 vs 3.0


def test_baseline_modifications_are_applied():
    """§3.4: the paper's baseline removed two entity-lifecycle costs."""
    for costs in (calibration.PETSTORE_COSTS, calibration.RUBIS_COSTS):
        assert costs.store_on_read_only_tx is False
        assert costs.bmp_find_extra_db_call is False
    assert calibration.RUBIS_COSTS.finder_loads_rows is True   # CMP 2.0
    assert calibration.PETSTORE_COSTS.finder_loads_rows is False  # BMP


def test_rubis_database_colocated_with_main():
    assert calibration.rubis_testbed_config().db_colocated is True
    assert calibration.petstore_testbed_config().db_colocated is False


def test_workload_defaults_match_paper():
    workload = calibration.default_workload()
    assert workload.total_rate_per_s == 30.0
    assert workload.browser_fraction == 0.8


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def test_run_configuration_returns_complete_result(small_series):
    result = small_series[PatternLevel.CENTRALIZED]
    assert result.app == "rubis"
    assert result.level == PatternLevel.CENTRALIZED
    assert set(result.groups()) == {
        "local-browser", "local-bidder", "remote-browser", "remote-bidder",
    }
    assert result.wall_seconds > 0
    assert result.generator.total_requests() > 0


def test_runner_is_deterministic():
    first = run_configuration("rubis", PatternLevel.REMOTE_FACADE, workload=FAST, seed=77)
    second = run_configuration("rubis", PatternLevel.REMOTE_FACADE, workload=FAST, seed=77)
    for group in first.groups():
        assert first.session_mean(group) == second.session_mean(group), group


def test_a_cell_starts_after_the_previous_cells_deployment_is_freed():
    short = calibration.default_workload(duration_ms=2_000.0, warmup_ms=500.0)
    collecting = gc.isenabled()
    gc.disable()  # only run_configuration's own collection may free it
    try:
        first = run_configuration("petstore", PatternLevel.CENTRALIZED, workload=short)
        server = weakref.ref(first.system.main)
        del first
        assert server() is not None  # a deployment is reference cycles
        run_configuration("petstore", PatternLevel.CENTRALIZED, workload=short)
        assert server() is None
    finally:
        if collecting:
            gc.enable()


def test_runner_seed_changes_results():
    first = run_configuration("rubis", PatternLevel.CENTRALIZED, workload=FAST, seed=1)
    second = run_configuration("rubis", PatternLevel.CENTRALIZED, workload=FAST, seed=2)
    assert any(
        first.session_mean(g) != second.session_mean(g) for g in first.groups()
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def test_table_structure(small_series):
    table = build_table(small_series)
    assert table.app == "rubis"
    assert "Item" in table.pages and "Store Bid" in table.pages
    cell = table.get(PatternLevel.CENTRALIZED, "remote", "Item")
    assert cell is not None and cell.count > 0 and cell.mean > 0


def test_table_merges_browser_and_writer_observations(small_series):
    table = build_table(small_series)
    # Main is visited by both browsers and bidders; counts must combine.
    result = small_series[PatternLevel.CENTRALIZED]
    browser_n = result.monitor.page_stats("remote-browser", "Main").count
    bidder_n = result.monitor.page_stats("remote-bidder", "Main").count
    assert table.get(PatternLevel.CENTRALIZED, "remote", "Main").count == (
        browser_n + bidder_n
    )


def test_render_table_layout(small_series):
    text = render_table(build_table(small_series))
    assert "Table 7" in text
    assert "Local" in text and "Remote" in text
    assert "Centralized" in text and "Query caching" in text


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def test_figure_structure(small_series):
    figure = build_figure(small_series)
    assert figure.groups == [
        "local-browser", "local-bidder", "remote-browser", "remote-bidder",
    ]
    value = figure.value("remote-browser", PatternLevel.CENTRALIZED)
    assert value > 300.0


def test_render_figure_layout(small_series):
    text = render_figure(build_figure(small_series))
    assert "Figure 8" in text
    assert "|#" in text  # bars
    assert "remote-bidder" in text


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def test_probe_result_statistics():
    result = ProbeResult()
    for value in (10.0, 20.0, 30.0):
        result.add("P", value)
    assert result.mean("P") == 20.0
    assert result.mean("P", discard=1) == 25.0
    assert result.last("P") == 30.0
    assert result.pages() == ["P"]
    assert result.mean("missing") != result.mean("missing")  # NaN


def test_measure_pages_discards_cold_runs():
    from repro.core.patterns import PatternLevel
    from tests.helpers import tiny_system

    env, system = tiny_system(PatternLevel.STATEFUL_CACHING)
    system.warm_replicas()
    means = measure_pages(
        system, env, "client-main-0", [("Notes", {"note_id": 1})], repeats=3
    )
    assert means["Notes"] < 50.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_table7(capsys):
    from repro.experiments.__main__ import main

    code = main(["table7", "--duration", "20", "--warmup", "5", "--seed", "7"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Table 7" in output


def test_cli_rejects_unknown_target():
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["table99"])


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------


def test_table_to_csv(small_series):
    from repro.experiments.tables import table_to_csv

    csv_text = table_to_csv(build_table(small_series))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "configuration,locality,page,mean_ms,samples"
    assert any(line.startswith("Centralized,remote,") for line in lines)
    # Every data line has exactly the five columns (page is quoted).
    for line in lines[1:]:
        assert line.count(",") >= 4


def test_figure_to_csv(small_series):
    from repro.experiments.figures import figure_to_csv

    csv_text = figure_to_csv(build_figure(small_series))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "group,configuration,session_mean_ms"
    assert any(line.startswith("remote-bidder,Query caching,") for line in lines)


def test_cli_csv_mode(capsys):
    from repro.experiments.__main__ import main

    code = main(["figure8", "--duration", "15", "--warmup", "4", "--csv"])
    assert code == 0
    output = capsys.readouterr().out
    assert "group,configuration,session_mean_ms" in output
