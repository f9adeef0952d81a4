"""Smoke tests: every shipped example runs to completion and prints its
headline output."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script, *args, timeout=300):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_quickstart():
    output = _run("quickstart.py")
    assert "session-average response times" in output
    assert "design rules at level 4: PASS" in output
    assert "deployment plan" in output


def test_petstore_wan_study():
    output = _run("petstore_wan_study.py", "--duration", "30")
    assert "Table 6" in output
    assert "Figure 7" in output
    assert "faster than the centralized" in output


def test_rubis_consistency():
    output = _run("rubis_consistency.py")
    assert "level 3: Stateful component caching" in output
    assert "level 5: Asynchronous updates" in output
    # Zero staleness at level 3; the late read always converges at level 5.
    assert output.count("FRESH") >= 3


def test_design_rule_audit():
    output = _run("design_rule_audit.py")
    assert "design rules at level 5: PASS" in output
    assert "[R1] RubisItem" in output
    assert "[R2] Chatty Item" in output
    assert "runtime enforcement: AccessError" in output
