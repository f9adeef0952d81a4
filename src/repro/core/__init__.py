"""The paper's contribution layer: patterns, policies, planning, rules.

Typical use::

    from repro.core import PatternLevel, distribute
    system = distribute(env, testbed, application, PatternLevel.QUERY_CACHING, db)

or, with an explicit placement policy::

    from repro.core import load_policy, distribute
    policy = load_policy("policies/replicas-one-edge.json")
    system = distribute(env, testbed, application, policy, db)
"""

from .distribution import DeployedSystem, distribute
from .patterns import PatternLevel, level_name
from .planner import DeploymentPlan, PlanError, plan_deployment
from .policy import (
    ComponentPolicy,
    PlacementPolicy,
    PolicyError,
    level_policy,
    load_policy,
)
from .rules import RuleReport, RuleViolation, check_rules, precheck
from .usage import (
    PageVisit,
    PatternError,
    ScriptedPattern,
    UsagePattern,
    WeightedPattern,
)

__all__ = [
    "DeployedSystem",
    "distribute",
    "ComponentPolicy",
    "PlacementPolicy",
    "PolicyError",
    "level_policy",
    "load_policy",
    "precheck",
    "PatternLevel",
    "level_name",
    "DeploymentPlan",
    "PlanError",
    "plan_deployment",
    "check_rules",
    "RuleReport",
    "RuleViolation",
    "PageVisit",
    "PatternError",
    "ScriptedPattern",
    "UsagePattern",
    "WeightedPattern",
]
