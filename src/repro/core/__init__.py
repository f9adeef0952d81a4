"""The paper's contribution layer: patterns, policies, planning, rules.

Typical use::

    from repro.core import PatternLevel, distribute
    system = distribute(env, testbed, application, PatternLevel.QUERY_CACHING, db)

or, with an explicit placement policy::

    from repro.core import load_policy, distribute
    policy = load_policy("policies/replicas-one-edge.json")
    system = distribute(env, testbed, application, policy, db)
"""

from .automation import AutomationReport, apply_policy
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
from .rules import DesignRuleChecker, RuleReport, RuleViolation, precheck
from .usage import (
    PageVisit,
    PatternError,
    ScriptedPattern,
    UsagePattern,
    WeightedPattern,
)

__all__ = [
    "AutomationReport",
    "apply_policy",
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
    "DesignRuleChecker",
    "RuleReport",
    "RuleViolation",
    "PageVisit",
    "PatternError",
    "ScriptedPattern",
    "UsagePattern",
    "WeightedPattern",
]
