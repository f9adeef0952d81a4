"""Pinned placements: every canned level and checked-in policy file plans
as recorded.

``placement_oracle.json`` holds, for both applications at levels 1-6 on
1, 2 and 4 edge servers, and for the three placement files under
``policies/`` on the same edge counts, what :func:`plan_deployment`
decides: the plan's placements, replicas, query-cache servers, method
caches and entry servers, and the tailored application — its component
set (auxiliaries included), the read-mostly descriptors that survive,
the active query caches and the implementation each component with a
``central_impl`` runs.

The file is recorded at the commit a refactoring of the policy→plan path
starts from, and the refactoring must leave it unchanged::

    PYTHONPATH=src python tests/core/test_placement_oracle.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.apps import petstore, rubis
from repro.core.planner import plan_deployment
from repro.core.policy import level_policy, load_policy

ORACLE = Path(__file__).with_name("placement_oracle.json")
POLICIES = Path(__file__).resolve().parents[2] / "policies"

BUILDERS = {"petstore": petstore.build_application, "rubis": rubis.build_application}
POLICY_FILES = {
    "replicas-one-edge": "petstore",
    "sharded-replicated": "rubis",
    "method-cache": "rubis",
}
EDGE_COUNTS = (1, 2, 4)


def _cases():
    cases = {}
    for edges in EDGE_COUNTS:
        for app in BUILDERS:
            for level in range(1, 7):
                cases[f"{app}-L{level}-e{edges}"] = (app, level, edges)
        for name, app in POLICY_FILES.items():
            cases[f"{app}-{name}-e{edges}"] = (app, name, edges)
    return cases


CASES = _cases()


def policy_of(source, application):
    if isinstance(source, int):
        return level_policy(source, application)
    return load_policy(str(POLICIES / f"{source}.json"))


def plan_of(app, source, edges):
    """The tailored application and the plan for one case."""
    application = BUILDERS[app]()
    names = [f"edge{i}" for i in range(1, edges + 1)]
    plan = plan_deployment(application, "main", names, policy_of(source, application))
    return plan.application, plan


def snapshot(application, plan) -> dict:
    components = application.components
    return {
        "components": list(components),
        "read_mostly": [n for n, d in components.items() if d.read_mostly is not None],
        "query_caches": list(application.query_caches),
        "impl": {
            n: d.impl.__name__
            for n, d in components.items()
            if d.central_impl is not None
        },
        "placements": plan.placements,
        "replicas": plan.replicas,
        "query_cache_servers": plan.query_cache_servers,
        "method_caches": plan.method_caches,
        "entry_servers": plan.entry_servers,
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(ORACLE.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_the_oracle(name, recorded):
    assert snapshot(*plan_of(*CASES[name])) == recorded[name]


def record(plan_case=plan_of) -> str:
    """The oracle file's text, one case per line."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(snapshot(*plan_case(*CASES[name])))}"
        for name in sorted(CASES)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    ORACLE.write_text(record())
