"""Deployment planning: resolve a placement policy onto a testbed.

``plan_deployment`` is a pure function from a
:class:`~repro.core.policy.PlacementPolicy` plus a concrete topology
(main server, edge list) to a :class:`DeploymentPlan`.  The paper's five
configurations arrive here as canned policies compiled by
:func:`~repro.core.policy.level_policy`; a hand-written policy file
arrives exactly the same way, so the planner has no notion of "levels"
beyond the metadata it copies into the plan for table labels.

A façade plus its co-located domain entities is the paper's "unit of
distribution"; the plan realizes exactly that granularity.  The plan
also records *entry servers* — the servers hosting the complete web
tier, where clients may connect; clients whose local server is not an
entry server fall back to the main server (the centralized
configuration "the main server got all 30 HTTP requests per second,
whereas the edge servers were not used at all", §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..middleware.descriptors import ApplicationDescriptor, ComponentKind
from .patterns import PatternLevel
from .policy import (
    ComponentPolicy,
    PlacementPolicy,
    PolicyError,
    resolve_selectors,
)

__all__ = ["DeploymentPlan", "plan_deployment", "PlanError"]


class PlanError(ValueError):
    """Raised when a placement cannot be satisfied."""


@dataclass
class DeploymentPlan:
    """Component-to-server placement for one configuration."""

    level: PatternLevel
    main: str
    edges: List[str]
    placements: Dict[str, List[str]] = field(default_factory=dict)
    replicas: Dict[str, List[str]] = field(default_factory=dict)
    query_cache_servers: List[str] = field(default_factory=list)
    # Level 6: component -> servers whose containers cache its annotated
    # methods transaction-consistently.
    method_caches: Dict[str, List[str]] = field(default_factory=dict)
    # Servers hosting the complete web tier; clients elsewhere use main.
    entry_servers: List[str] = field(default_factory=list)
    # The policy this plan realizes (None only for hand-built plans).
    policy: Optional[PlacementPolicy] = None

    @property
    def all_servers(self) -> List[str]:
        return [self.main] + list(self.edges)

    def servers_of(self, component: str) -> List[str]:
        return self.placements.get(component, [])

    def components_on(self, server: str) -> List[str]:
        return sorted(
            name for name, servers in self.placements.items() if server in servers
        )

    def describe(self) -> str:
        policy_name = self.policy.name if self.policy is not None else "?"
        lines = [
            f"deployment plan (policy {policy_name!r}, "
            f"level {int(self.level)}: {self.level.name})"
        ]
        for server in self.all_servers:
            components = self.components_on(server)
            replica_names = sorted(
                name for name, servers in self.replicas.items() if server in servers
            )
            entry = " [entry]" if server in self.entry_servers else ""
            lines.append(
                f"  {server}{entry}: {', '.join(components) or '-'}"
                + (f" | replicas: {', '.join(replica_names)}" if replica_names else "")
            )
        if self.query_cache_servers:
            lines.append(f"  query caches on: {', '.join(self.query_cache_servers)}")
        for name in sorted(self.method_caches):
            lines.append(
                f"  method cache for {name} on: {', '.join(self.method_caches[name])}"
            )
        return "\n".join(lines)


def component_policy(descriptor, policy: PlacementPolicy) -> ComponentPolicy:
    """The placement ``policy`` gives ``descriptor``'s component.

    A component the policy does not mention gets a default: the
    auxiliary maintenance components (``UpdaterFacade``,
    ``UpdateSubscriber``) follow the replica/cache placements they
    serve; anything else stays on the main server.
    """
    from ..middleware.updates import UPDATE_SUBSCRIBER, UPDATER_FACADE

    named = policy.components.get(descriptor.name)
    if named is not None:
        return named
    if descriptor.name == UPDATER_FACADE:
        return ComponentPolicy(deploy=policy.maintenance_selectors())
    if descriptor.name == UPDATE_SUBSCRIBER and policy.async_updates:
        return ComponentPolicy(deploy=policy.maintenance_selectors())
    return ComponentPolicy(deploy=("main",))


def plan_deployment(
    application: ApplicationDescriptor,
    main: str,
    edges: List[str],
    policy: PlacementPolicy,
) -> DeploymentPlan:
    """Resolve ``policy`` onto the (main, edges) topology.

    Call *after* :func:`repro.core.automation.apply_policy`, so extended
    descriptors already reflect the policy.
    """
    try:
        policy.validate_against(application)
    except PolicyError as exc:
        raise PlanError(str(exc)) from None

    plan = DeploymentPlan(
        level=policy.effective_level(), main=main, edges=list(edges), policy=policy
    )

    for name, descriptor in application.components.items():
        placed = component_policy(descriptor, policy)
        try:
            placement = resolve_selectors(placed.deploy, main, edges)
            if descriptor.kind == ComponentKind.ENTITY and placed.replicas:
                if descriptor.read_mostly is not None:
                    plan.replicas[name] = resolve_selectors(
                        placed.replicas, main, edges
                    )
            if placed.method_cache and descriptor.cached_methods:
                # A method cache only makes sense where the façade itself
                # is deployed; restrict the resolved selectors to that.
                cache_servers = [
                    server
                    for server in resolve_selectors(
                        placed.method_cache, main, edges
                    )
                    if server in placement
                ]
                if cache_servers:
                    plan.method_caches[name] = cache_servers
            plan.placements[name] = placement
        except PolicyError as exc:
            raise PlanError(f"component {name!r}: {exc}") from None

    if policy.query_caches and application.query_caches:
        try:
            plan.query_cache_servers = resolve_selectors(
                policy.query_caches, main, edges
            )
        except PolicyError as exc:
            raise PlanError(f"query caches: {exc}") from None

    # Entry servers: every server hosting the complete web tier.
    servlet_components = set(application.servlets.values())
    plan.entry_servers = [
        server
        for server in plan.all_servers
        if all(
            server in plan.placements.get(component, ())
            for component in servlet_components
        )
    ]

    # Sanity: every page's servlet must exist wherever clients connect.
    for page, servlet in application.servlets.items():
        if main not in plan.placements.get(servlet, []):
            raise PlanError(f"servlet {servlet!r} for page {page!r} missing on main")
    # Sanity: read-write entity state is single-master on the main server.
    for name, descriptor in application.components.items():
        if descriptor.kind == ComponentKind.ENTITY:
            if plan.placements.get(name) != [main]:
                raise PlanError(
                    f"entity {name!r} must live exactly on the main server"
                )

    return plan
