"""Deployment planning: tailor an application to a placement policy and
resolve the policy onto a testbed.

``plan_deployment`` is the one call from a
:class:`~repro.core.policy.PlacementPolicy` plus a concrete topology
(main server, edge list) to a :class:`DeploymentPlan`.  The paper's five
configurations arrive here as canned policies compiled by
:func:`~repro.core.policy.level_policy`; a hand-written policy file
arrives exactly the same way, so the planner has no notion of "levels"
beyond the metadata the plan's policy carries for table labels.

Before resolving placements it plays the container provider of §5:
applications declare read-mostly beans and cacheable queries in their
*extended deployment descriptors*, and the planner fits those
declarations to the policy on a copy of the application, which the plan
carries and :func:`~repro.core.distribution.distribute` deploys: it
strips read-mostly descriptors the policy gives no replicas and query
caches it activates nowhere, gives a component its ``central_impl``
where the policy keeps it on the main server only, and registers the
auxiliary system components
(``UpdaterFacade`` wherever maintenance traffic flows,
``UpdateSubscriber`` MDBs under asynchronous propagation), so that
"developers are freed from implementing tricky update mechanisms that
require the deployment of additional auxiliary components".
:func:`component_policy` is the one rule that places those auxiliaries.

A façade plus its co-located domain entities is the paper's "unit of
distribution"; the plan realizes exactly that granularity.  The plan
also records *entry servers* — the servers hosting the complete web
tier, where clients may connect; clients whose local server is not an
entry server fall back to the main server (the centralized
configuration "the main server got all 30 HTTP requests per second,
whereas the edge servers were not used at all", §4.1).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..middleware.descriptors import ApplicationDescriptor, ComponentKind
from ..middleware.updates import (
    UPDATE_SUBSCRIBER,
    UPDATER_FACADE,
    update_subscriber_descriptor,
    updater_facade_descriptor,
)
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

    # The policy this plan realizes.
    policy: PlacementPolicy
    # The application tailored to the policy: what gets deployed.
    application: ApplicationDescriptor = field(repr=False)
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

    @property
    def level(self) -> PatternLevel:
        """The policy's label level (table rows, rule reports)."""
        return self.policy.effective_level()

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
        lines = [
            f"deployment plan (policy {self.policy.name!r}, "
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
    named = policy.components.get(descriptor.name)
    if named is not None:
        return named
    if descriptor.name == UPDATER_FACADE:
        return ComponentPolicy(deploy=policy.maintenance_selectors())
    if descriptor.name == UPDATE_SUBSCRIBER and policy.async_updates:
        return ComponentPolicy(deploy=policy.maintenance_selectors())
    return ComponentPolicy(deploy=("main",))


def _tailor(
    application: ApplicationDescriptor, policy: PlacementPolicy
) -> ApplicationDescriptor:
    """A copy of ``application`` with its extended descriptors fitted to
    ``policy``; ``application`` itself is left untouched."""
    tailored = replace(
        application,
        components={
            name: copy(descriptor) for name, descriptor in application.components.items()
        },
        schemas=dict(application.schemas),
        queries=dict(application.queries),
        query_caches=dict(application.query_caches) if policy.query_caches else {},
        servlets=dict(application.servlets),
    )
    components = tailored.components
    for descriptor in components.values():
        placed = component_policy(descriptor, policy)
        if descriptor.read_mostly is not None and not placed.replicas:
            descriptor.read_mostly = None
        # Decided from the placement, so a component the policy leaves
        # out (and the planner keeps on main) counts as main-only.
        if descriptor.central_impl is not None and tuple(placed.deploy) == ("main",):
            descriptor.impl = descriptor.central_impl

    # Method caches ride the same maintenance bus as replicas and query
    # caches, so they too need the updater façade at their servers.
    method_caching = any(
        placed.method_cache and name in components and components[name].cached_methods
        for name, placed in policy.components.items()
    )
    needs_maintenance = (
        any(descriptor.read_mostly is not None for descriptor in components.values())
        or bool(tailored.query_caches)
        or method_caching
    )
    if needs_maintenance and UPDATER_FACADE not in components:
        tailored.add(updater_facade_descriptor())
    if policy.async_updates and UPDATE_SUBSCRIBER not in components:
        tailored.add(update_subscriber_descriptor())
    tailored.validate()
    return tailored


def plan_deployment(
    application: ApplicationDescriptor,
    main: str,
    edges: List[str],
    policy: PlacementPolicy,
) -> DeploymentPlan:
    """Tailor a copy of ``application`` to ``policy`` and resolve the
    policy onto the (main, edges) topology; the plan carries the copy.

    Tailoring comes first, so a policy may name the auxiliary components
    it causes to be added.  Planning an already tailored application
    (a plan's own) adds each auxiliary once.
    """
    application = _tailor(application, policy)
    try:
        policy.validate_against(application)
    except PolicyError as exc:
        raise PlanError(str(exc)) from None

    plan = DeploymentPlan(
        policy=policy, application=application, main=main, edges=list(edges)
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

    # Entry servers: every server hosting the complete web tier.  The
    # policy's validation keeps every servlet on main, so main is one.
    servlet_components = set(application.servlets.values())
    plan.entry_servers = [
        server
        for server in plan.all_servers
        if all(
            server in plan.placements.get(component, ())
            for component in servlet_components
        )
    ]
    return plan
