"""Every entry of ``tools/reach_justified.txt`` names a function that exists.

``python tools/reach.py table REACH --check`` also reports stale entries,
but only after the ~10-minute traced ``run``; a function deleted or
renamed without its entry shows up here in a second.
"""

import importlib.util
from pathlib import Path

_REACH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def _reach_module():
    spec = importlib.util.spec_from_file_location("reach_tool", _REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_justified_entry_names_an_existing_function():
    reach = _reach_module()
    existing = {f"{path}::{name}" for path, _line, name in reach.functions()}
    justified = reach.load_justified()
    assert justified, "no entries read from reach_justified.txt"
    assert sorted(justified - existing) == []
