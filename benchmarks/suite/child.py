"""One measurement in one fresh process.

``run.py`` starts this file once per (workload, repeat), once per traced
run and once for the layer micro-benchmarks, so the program's
process-wide state (``_PARSE_CACHE``, ``_http_pools``, ``_client_ids``,
the allocator's arenas, peak RSS) starts equal every time.  The child
receives its task as a JSON argument and prints one JSON object.

Every number here comes from calling the program's public functions or
reading public counters on what they return; nothing under ``src/repro``
is patched or instrumented.
"""

from __future__ import annotations

import time

# The clock starts before the program is imported: users pay the import
# on every cold start, so it is part of set-up time.
_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
GOLDEN_DIR = REPO_ROOT / "benchmarks" / "golden" / "d150_w40_s2003"


class PhaseSpans:
    """Phase spans recorded from the suite's own files, kept in memory.

    One record per phase: name, start and end in seconds since this
    process started, and the id of the span that caused it.
    """

    def __init__(self):
        self.records: List[dict] = []

    @staticmethod
    def now() -> float:
        return time.perf_counter() - _STARTED

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        self.records.append(
            {"id": len(self.records), "name": name, "start": start, "end": end,
             "parent": parent}
        )
        return len(self.records) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        span_id = self.add(name, self.now(), self.now(), parent)
        try:
            yield span_id
        finally:
            self.records[span_id]["end"] = self.now()


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def collect_cell(result) -> dict:
    """Work counts and the simulated outcome of one finished cell.

    Read from the public counters ``collect_system_metrics`` walks, plus
    the kernel's, the network's and the generator's own.
    """
    from repro.obs.metrics import MetricsRegistry, collect_system_metrics

    system = result.system
    generator = result.generator
    registry = collect_system_metrics(MetricsRegistry(), system, generator=generator)
    names = set(registry.names())

    def value(name: str) -> float:
        return registry.value(name) if name in names else 0

    def cache_total(section: str, counter: str) -> int:
        return sum(
            counters.get(counter, 0)
            for per_key in result.cache_stats[section].values()
            for counters in per_key.values()
        )

    wan_packets = sum(
        packets
        for link, directions in system.testbed.network.traffic_report().items()
        if link.startswith("wan-")
        for packets, _bytes in directions.values()
    )
    open_loop = hasattr(generator, "admitted")
    if open_loop:
        sessions = generator.admitted
        peak_sessions = generator.peak_active
        accounting_ok = (
            generator.completions == generator.admitted and generator.active == 0
        )
    else:
        sessions = sum(client.sessions_completed for client in generator.clients)
        peak_sessions = len(generator.clients)
        accounting_ok = True
    monitor_state = result.monitor.to_state()
    fetches = generator.total_requests()
    errors = value("workload.errors")
    return {
        "counts": {
            "fetches": fetches,
            "errors": errors,
            "sessions": sessions,
            "peak_sessions": peak_sessions,
            "kernel_events": system.env.stats()["sequence"],
            "net_transfers": system.testbed.network.total_transfers,
            "wan_packets": wan_packets,
            "db_statements": value("db.statements"),
            "db_commits": value("db.commits"),
            "db_rollbacks": value("db.rollbacks"),
            "db_statements_executed": value("db.statements_executed"),
            "db_rows_scanned": value("db.rows_scanned"),
            "db_index_scans": value("db.executor.index_scans"),
            "db_full_scans": value("db.executor.full_scans"),
            "replica_hits": cache_total("replicas", "hits"),
            "replica_misses": cache_total("replicas", "misses"),
            "query_cache_hits": cache_total("query_cache", "hits"),
            "query_cache_misses": cache_total("query_cache", "misses"),
            "pushes": value("propagator.sync_pushes")
            + value("propagator.async_publishes"),
            "jms_deliveries": value("jms.deliveries"),
            "sim_resp_count": sum(
                stats["count"] for _group, stats in monitor_state["session_stats"]
            ),
        },
        # Simulated milliseconds; summed apart from the integer counts.
        "sim_resp_total_ms": sum(
            stats["total"] for _group, stats in monitor_state["session_stats"]
        ),
        "accounting_ok": accounting_ok,
        "fingerprint": _sha256([monitor_state, fetches, sessions, errors]),
    }


def check_goldens(artifacts: Dict[str, Dict[str, str]]) -> str:
    """Byte-identity of the rendered tables and figures with the goldens."""
    differing = [
        f"{app}.{kind}"
        for app, kinds in artifacts.items()
        for kind, text in kinds.items()
        if text != (GOLDEN_DIR / f"{app}.{kind}.txt").read_text()
    ]
    return "failed: " + ", ".join(differing) if differing else "passed"


def profile_summary(stats, fetches: int) -> dict:
    """Per-layer fold and boundary-call counts of a merged profile."""
    from layers import calls_of, fold_profile
    from repro.core.usage import ScriptedPattern, WeightedPattern
    from repro.middleware.consistency import EdgeConsistencyManager
    from repro.middleware.jms import JmsProvider
    from repro.middleware.rmi import LocalRef, RemoteRef
    from repro.middleware.web import http_get
    from repro.rdbms import sql
    from repro.rdbms.engine import Database
    from repro.workload.openloop import TransitionMatrixPattern

    boundaries = {
        "middleware.web.gets": (http_get,),
        "middleware.rmi.remote_calls": (RemoteRef.call,),
        "middleware.rmi.local_calls": (LocalRef.call,),
        "middleware.consistency.deliveries": (EdgeConsistencyManager.deliver,),
        "middleware.jms.publishes": (JmsProvider.publish,),
        "rdbms.exec.executes": (Database.execute,),
        "rdbms.sql.parses": (sql.parse,),
        "workload.sessions_built": (
            TransitionMatrixPattern.session,
            WeightedPattern.session,
            ScriptedPattern.session,
        ),
    }
    return {
        "fetches": fetches,
        "layers": fold_profile(stats),
        "boundaries": {
            name: sum(calls_of(stats, func) for func in funcs)
            for name, funcs in boundaries.items()
        },
    }


def run_workload(task: dict) -> dict:
    """Run every cell of one workload; optionally under cProfile."""
    from workloads import BY_NAME, GOLDEN_SEED

    workload = BY_NAME[task["workload"]]
    seed, scale, traced = task["seed"], task["scale"], task["traced"]
    params = workload.params(scale)
    spans = PhaseSpans()
    with spans.span(f"workload:{workload.name}") as root:
        with spans.span("import", root):
            from repro.core.patterns import PAPER_LEVELS, PatternLevel
            from repro.experiments.calibration import default_workload
            from repro.experiments.figures import build_figure, render_figure
            from repro.experiments.parallel import CellResult
            from repro.experiments.profile import profile_call
            from repro.experiments.runner import run_configuration
            from repro.experiments.tables import build_table, render_table
            from repro.workload.openloop import OpenLoopConfig, TransitionMatrixPattern

        if workload.loop == "closed":
            kwargs = {"workload": default_workload(**params)}
        else:
            kwargs = {"openloop": OpenLoopConfig(**params)}
            if workload.browser_mean_pages is not None:
                from repro.apps.rubis import browser_pattern as stock_browser

                def short_browser(catalog):
                    return TransitionMatrixPattern(
                        stock_browser(catalog),
                        mean_length=workload.browser_mean_pages,
                    )

                kwargs["browser_pattern"] = short_browser

        cells: List[dict] = []
        rendered_from = {}
        run_s = cpu_run_s = 0.0
        profile = None
        for app, level in workload.cells:
            with spans.span(f"cell:{app}:{level}", root) as cell_span:
                started = spans.now()
                if traced:
                    result, cell_profile = profile_call(
                        run_configuration, app, level, seed=seed, **kwargs
                    )
                    profile = cell_profile if profile is None else profile.add(cell_profile)
                else:
                    result = run_configuration(app, level, seed=seed, **kwargs)
                ended = spans.now()
                # The run region is the program's own: ExperimentResult.
                # wall_seconds, timed around generator.run(env).  What
                # run_configuration does after it (closing counters) is
                # milliseconds and lands in "run" here.
                spans.add("setup", started, ended - result.wall_seconds, cell_span)
                spans.add("run", ended - result.wall_seconds, ended, cell_span)
                run_s += result.wall_seconds
                cpu_run_s += result.cpu_seconds
                with spans.span("collect", cell_span):
                    cells.append(collect_cell(result))
                    if workload.sweep:
                        # What run_cells(jobs=1) keeps of a cell; the live
                        # system is dropped so ten cells do not pile up in RSS.
                        rendered_from[(app, PatternLevel(level))] = (
                            CellResult.from_experiment(result)
                        )
                del result

        checks = {
            "fetches_positive": all(cell["counts"]["fetches"] > 0 for cell in cells),
            "accounting": all(cell["accounting_ok"] for cell in cells),
            "golden": "skipped: not a sweep",
        }
        if workload.sweep:
            with spans.span("render", root):
                artifacts = {}
                for app in sorted({app for app, _level in workload.cells}):
                    series = {level: rendered_from[(app, level)] for level in PAPER_LEVELS}
                    artifacts[app] = {
                        "table": render_table(build_table(series)),
                        "figure": render_figure(build_figure(series)),
                    }
            if seed == GOLDEN_SEED and scale == 1.0:
                checks["golden"] = check_goldens(artifacts)
            else:
                checks["golden"] = (
                    f"skipped: goldens exist for seed {GOLDEN_SEED} at scale 1 only"
                )

    counts: Dict[str, float] = {}
    for cell in cells:
        for name, count in cell["counts"].items():
            if name == "peak_sessions":
                counts[name] = max(counts.get(name, 0), count)
            else:
                counts[name] = counts.get(name, 0) + count
    child_s = spans.now()
    report = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "params": params,
        "host": {
            "child_s": child_s,
            "run_s": run_s,
            "cpu_run_s": cpu_run_s,
            "setup_s": child_s - run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "counts": counts,
        "sim_resp_total_ms": sum(cell["sim_resp_total_ms"] for cell in cells),
        "fingerprint": _sha256([cell["fingerprint"] for cell in cells]),
        "checks": checks,
        "spans": spans.records,
    }
    if profile is not None:
        report["profile"] = profile_summary(profile, counts["fetches"])
    return report


def main(argv: List[str]) -> int:
    task = json.loads(argv[1])
    sys.path.insert(0, str(REPO_ROOT / "src"))
    if task["kind"] == "workload":
        report = run_workload(task)
    else:
        import micro

        report = micro.run_all(task["scale"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
