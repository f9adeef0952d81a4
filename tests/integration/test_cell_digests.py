"""Whole-cell equivalence: short cells must reproduce recorded digests.

``cell_digests.json`` holds, for 76 short cells, the kernel's event
``sequence``, the network's ``total_transfers`` and sha256 digests of
the measurement store's whole-run and metrics sections and of the span
table —
{petstore, rubis} x levels 1-6 x {closed, open} with spans off / on /
sampled, plus one ``edge-crash`` fault cell.  The golden
Tables 6/7 cover levels 1-5, closed loop, untraced; this is the net
under level 6, faults, the open loop and tracing.

Three more ``edge-crash`` cells run with the telemetry sampler on
(``obs_interval_ms=1000``) and add digests of the store's series section
and of the availability row (``faults.report.availability_row`` of the
metrics section): the only pin on the sampler's ``cache.query_*`` /
``replica.*`` / ``methodcache.*`` deltas and on the availability
report's ``method_cache`` fold.

The file is recorded at the commit a host-only change starts from::

    PYTHONPATH=src python tests/integration/test_cell_digests.py --record

and must not be re-recorded by a change that claims to leave simulated
behaviour alone.  A change that *means* to move a simulated number
re-records it and says which cells moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.calibration import default_workload
from repro.experiments.runner import RunSpec, run_configuration
from repro.faults.report import availability_row
from repro.faults.scenarios import scenario
from repro.workload.openloop import OpenLoopConfig

DIGESTS = Path(__file__).with_name("cell_digests.json")

DURATION_MS = 12_000.0
WARMUP_MS = 3_000.0
FAULT_DURATION_MS = 30_000.0

LOOPS = {
    "closed": {"workload": default_workload(duration_ms=DURATION_MS, warmup_ms=WARMUP_MS)},
    "open": {
        "openloop": OpenLoopConfig(
            duration_ms=DURATION_MS, warmup_ms=WARMUP_MS, session_rate_per_s=3.0
        )
    },
}
SPANS = {
    "off": {},
    "on": {"with_spans": True},
    "sampled": {"with_spans": True, "obs_sample": 0.5},
}


def _cells():
    cells = {}
    for app in ("petstore", "rubis"):
        for level in range(1, 7):
            for loop, loop_options in LOOPS.items():
                for spans, span_options in SPANS.items():
                    cells[f"{app}-L{level}-{loop}-spans-{spans}"] = (
                        app,
                        level,
                        RunSpec(**loop_options, **span_options),
                    )
    cells["rubis-L6-closed-spans-on-edge-crash"] = (
        "rubis",
        6,
        RunSpec(
            with_spans=True,
            workload=default_workload(duration_ms=FAULT_DURATION_MS, warmup_ms=WARMUP_MS),
            faults=scenario("edge-crash", FAULT_DURATION_MS, WARMUP_MS),
        ),
    )
    fault_loops = {
        "closed": {
            "workload": default_workload(duration_ms=FAULT_DURATION_MS, warmup_ms=WARMUP_MS)
        },
        "open": {
            "openloop": OpenLoopConfig(
                duration_ms=FAULT_DURATION_MS, warmup_ms=WARMUP_MS, session_rate_per_s=3.0
            )
        },
    }
    for app, level, loop in (("petstore", 4, "closed"), ("rubis", 5, "open"), ("rubis", 6, "closed")):
        cells[f"{app}-L{level}-{loop}-series-edge-crash"] = (
            app,
            level,
            RunSpec(
                obs_interval_ms=1000.0,
                faults=scenario("edge-crash", FAULT_DURATION_MS, WARMUP_MS),
                **fault_loops[loop],
            ),
        )
    return cells


CELLS = _cells()


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def digest(app: str, level: int, spec: RunSpec) -> dict:
    result = run_configuration(app, level, spec)
    measurements = result.measurements
    entry = {
        "sequence": result.system.env.stats()["sequence"],
        "transfers": result.system.testbed.network.total_transfers,
        "requests": result.total_requests,
        "monitor": _sha256(measurements["whole_run"]),
        "spans": _sha256(result.spans_state),
        "metrics": _sha256(measurements["metrics"]),
    }
    if spec.obs_interval_ms:
        entry["series"] = _sha256(measurements["series"])
        entry["resilience"] = _sha256(availability_row(measurements["metrics"]))
    return entry


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_cell_is_recorded(recorded):
    assert sorted(recorded) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_digest(name, recorded):
    assert digest(*CELLS[name]) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    DIGESTS.write_text(
        json.dumps(
            {name: digest(*CELLS[name]) for name in sorted(CELLS)}, indent=1, sort_keys=True
        )
        + "\n"
    )
