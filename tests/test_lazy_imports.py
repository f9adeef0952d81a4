"""A cell loads only the code it runs.

Every package publishes its names through ``repro.lazy_exports``, so
importing a package runs none of its submodules; an optional subsystem
(the data tier, fault injection, spans, the §5 rule checker, the other
application) is imported by the code that selects it, during set-up and
never inside the timed run.  The probes run in a fresh interpreter:
this process has long since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

SOURCE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
POLICY = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "policies", "sharded-replicated.json")
)

PACKAGES = (
    "repro",
    "repro.apps.petstore",
    "repro.apps.rubis",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.middleware",
    "repro.obs",
    "repro.rdbms",
    "repro.rdbms.cluster",
    "repro.simnet",
    "repro.workload",
)

# What a plain cell (RUBiS, level 5, open loop, no faults, no spans, one
# database) must not load.
OPTIONAL = (
    "repro.apps.petstore",
    "repro.rdbms.cluster.raft",
    "repro.rdbms.cluster.router",
    "repro.rdbms.cluster.sharding",
    "repro.rdbms.cluster.stats",
    "repro.rdbms.cluster.tier",
    "repro.faults.injector",
    "repro.faults.scenarios",
    "repro.faults.schedule",
    "repro.faults.report",
    "repro.obs.spans",
    "repro.obs.slo",
    "repro.obs.flame",
    "repro.obs.export",
    "repro.core.rules",
)

# Runs cells one after another in one interpreter and reports, per cell,
# the repro modules it loaded (the first cell's count the runner's own
# import) and those loaded during generator.run.
PROBE = """
import json, sys
before = set(sys.modules)
from repro.experiments.runner import run_configuration
from repro.workload.generator import LoadGenerator
from repro.workload.openloop import OpenLoopConfig

loaded_during_run = []
plain_run = LoadGenerator.run

def run(self, env):
    before = set(sys.modules)
    plain_run(self, env)
    loaded_during_run.extend(sorted(set(sys.modules) - before))

LoadGenerator.run = run
loop = OpenLoopConfig(duration_ms=4_000.0, warmup_ms=1_000.0, session_rate_per_s=5.0)

def options(name):
    if name == "spans":
        return {"with_spans": True}
    if name == "faults":
        from repro.faults.scenarios import scenario
        return {"faults": scenario("edge-crash", loop.duration_ms, loop.warmup_ms)}
    if name == "data-tier":
        from repro.core.policy import load_policy
        return {"policy": load_policy(sys.argv[1])}
    return {}

report = {}
for name in ("plain", "spans", "faults", "data-tier", "petstore"):
    extra = options(name)
    app = "petstore" if name == "petstore" else "rubis"
    run_configuration(app, 5, openloop=loop, seed=7, **extra)
    after = set(sys.modules)
    report[name] = {
        "loaded": sorted(m for m in after - before if m.startswith("repro")),
        "during_run": loaded_during_run[:],
    }
    before = after
    loaded_during_run.clear()
print(json.dumps(report))
"""


def _python(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": SOURCE}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def _matches(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@pytest.fixture(scope="module")
def cells() -> dict:
    return json.loads(_python("-c", PROBE, POLICY))


def test_importing_every_package_runs_no_submodule():
    probe = (
        "import sys, importlib\n"
        f"for name in {PACKAGES!r}: importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    loaded = set(eval(_python("-c", probe)))
    # Importing a subpackage imports its parents, which are packages too.
    assert loaded == set(PACKAGES) | {"repro.apps"}


def test_a_plain_cell_loads_no_optional_subsystem(cells):
    loaded = cells["plain"]["loaded"]
    assert "repro.apps.rubis.app" in loaded
    assert [m for m in loaded if _matches(m, OPTIONAL)] == []


def test_nothing_is_imported_inside_the_timed_run(cells):
    assert {name: cell["during_run"] for name, cell in cells.items()} == {
        name: [] for name in cells
    }


@pytest.mark.parametrize(
    "cell, modules",
    [
        ("spans", ["repro.obs.spans"]),
        ("faults", ["repro.faults.injector"]),
        (
            "data-tier",
            [
                "repro.rdbms.cluster.raft",
                "repro.rdbms.cluster.router",
                "repro.rdbms.cluster.sharding",
                "repro.rdbms.cluster.stats",
                "repro.rdbms.cluster.tier",
            ],
        ),
        ("petstore", ["repro.apps.petstore.app", "repro.apps.petstore.data"]),
    ],
)
def test_a_cell_that_selects_a_subsystem_loads_it(cells, cell, modules):
    """The positive control: the probe sees these loads when they happen."""
    assert [m for m in modules if m not in cells[cell]["loaded"]] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_published_name_resolves_to_its_submodule(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        if name == "__version__":
            continue
        owners = [
            sub
            for sub in list(sys.modules.values())
            if isinstance(sub, types.ModuleType)
            and sub.__name__.startswith(package + ".")
            and (sub is value or sub.__dict__.get(name) is value)
        ]
        assert owners, f"{package}.{name} is no submodule's object"


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        repro.core.nonesuch
    # ``from package import submodule`` still falls back to the import system.
    from repro.core import usage

    assert usage is sys.modules["repro.core.usage"]
