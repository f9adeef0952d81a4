"""The paper's contribution layer: patterns, policies, planning, rules.

Typical use::

    from repro.core import PatternLevel, distribute
    system = distribute(env, testbed, application, PatternLevel.QUERY_CACHING, db)

or, with an explicit placement policy::

    from repro.core import load_policy, distribute
    policy = load_policy("policies/replicas-one-edge.json")
    system = distribute(env, testbed, application, policy, db)
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DeployedSystem": "distribution",
    "distribute": "distribution",
    "ComponentPolicy": "policy",
    "PlacementPolicy": "policy",
    "PolicyError": "policy",
    "level_policy": "policy",
    "load_policy": "policy",
    "precheck": "rules",
    "PatternLevel": "patterns",
    "level_name": "patterns",
    "DeploymentPlan": "planner",
    "PlanError": "planner",
    "plan_deployment": "planner",
    "check_rules": "rules",
    "RuleReport": "rules",
    "RuleViolation": "rules",
    "PageVisit": "usage",
    "PatternError": "usage",
    "ScriptedPattern": "usage",
    "UsagePattern": "usage",
    "WeightedPattern": "usage",
})
