"""Full-scale open-loop benchmark as a pytest target.

Runs ``bench_scale.py`` at full scale (the 10^5-target full-stack RUBiS
open loop) with ``--require-sessions 100000``.  The script's exit code
carries every check that does not depend on the host's speed: the run
sustains >= 10^5 concurrent sessions and its session accounting adds
up.  Wall clock is recorded in the report, not asserted.

Marked ``slow``: the cell takes minutes.  The CI smoke job
(`scale-smoke`) runs the reduced 10^4-target cell instead.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

_BENCH = Path(__file__).parent / "bench_scale.py"

FULLSTACK_TARGET = 100_000


def test_full_scale_bench(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    proc = subprocess.run(
        [sys.executable, str(_BENCH), "--output", str(out),
         "--require-sessions", str(FULLSTACK_TARGET)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stack = json.loads(out.read_text())["fullstack"]
    print(f"\npeak {stack['peak_concurrent_sessions']:,} sessions, "
          f"{stack['fetches_per_wall_sec']:,} fetches/s")
