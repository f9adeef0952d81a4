"""Full-scale open-loop benchmark as a pytest target.

Runs ``bench_scale.py`` at full scale (10^5 and 10^6 microbench cells
plus the 10^5-target full-stack RUBiS open loop) and checks the
properties that do not depend on the host's speed: the live kernel
(sleep lane, one heap) beats the frozen seed kernel (a ``Timeout`` per
think) at every cell, the full-stack run sustains >= 10^5 concurrent
sessions, and every admitted session completes.  The speedup
*magnitude* is recorded in the report, not asserted here — it varies
with machine and scale.

Marked ``slow``: the 10^6 cells alone take minutes.  The CI smoke job
(`scale-smoke`) runs the reduced 10^4 cells instead.

``REPRO_BENCH_JOBS`` is honored the only way a timing benchmark can:
the bench always runs its timed regions serially regardless of the
setting — a worker pool sharing the CPU would corrupt both kernels'
walls — but a multi-worker request is taken as "value wall clock over
repetition" and drops the interleaved repeat count to 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BENCH_JOBS

pytestmark = pytest.mark.slow

_BENCH = Path(__file__).parent / "bench_scale.py"

FULLSTACK_TARGET = 100_000


def test_full_scale_bench(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    repeat = "1" if BENCH_JOBS != 1 else "3"
    proc = subprocess.run(
        [sys.executable, str(_BENCH), "--output", str(out),
         "--repeat", repeat,
         "--require-sessions", str(FULLSTACK_TARGET)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())

    cells = report["kernel_microbench"]
    assert [c["concurrent_sessions"] for c in cells] == [100_000, 1_000_000]
    for cell in cells:
        assert cell["speedup"] > 1.0, cell

    stack = report["fullstack"]
    assert stack["peak_concurrent_sessions"] >= FULLSTACK_TARGET
    # Accounting identities only: fetch errors may be nonzero, because
    # an open loop drives the testbed past its capacity by design and
    # overload failures are deterministic for a fixed seed.
    assert stack["admitted"] == stack["completions"]
    assert stack["dropped_sessions"] == stack["arrivals"] - stack["admitted"]
    assert stack["errors"] <= stack["page_fetches"]
    print(f"\n1e6-cell speedup {cells[-1]['speedup']}x, "
          f"peak {stack['peak_concurrent_sessions']:,} sessions")
