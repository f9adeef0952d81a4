"""Pattern-implementation automation (§5), driven by placement policies.

The paper argues the read-mostly and query-caching machinery should be
supplied by containers, configured purely from *extended deployment
descriptors*.  This module is that container-provider role: given an
application whose descriptors declare read-mostly beans and cacheable
queries, and a :class:`~repro.core.policy.PlacementPolicy` stating which
of those declarations are active and how updates propagate, it

* strips read-mostly descriptors the policy gives no replica placements
  (they exist in the application, but this deployment does not use them),
* strips query caches when the policy activates no cache servers,
* gives a component its ``central_impl`` when the policy deploys it on
  the main server only,
* switches the update mode of the surviving extended descriptors to the
  policy's propagation mode (sync push vs. JMS async),
* registers the auxiliary system components (``UpdaterFacade`` wherever
  maintenance traffic flows, ``UpdateSubscriber`` MDBs under
  asynchronous propagation) so that "developers are freed from
  implementing tricky update mechanisms that require the deployment of
  additional auxiliary components".

Application code never references these auxiliaries explicitly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..middleware.descriptors import (
    ApplicationDescriptor,
    QueryCacheDescriptor,
    UpdateMode,
)
from ..middleware.updates import (
    UPDATE_SUBSCRIBER,
    UPDATER_FACADE,
    update_subscriber_descriptor,
    updater_facade_descriptor,
)
from .planner import component_policy
from .policy import PlacementPolicy

__all__ = ["apply_policy", "AutomationReport"]


class AutomationReport:
    """What the automation pass did — inspectable by tests and docs."""

    def __init__(self):
        self.read_mostly_active: list = []
        self.read_mostly_stripped: list = []
        self.query_caches_active: list = []
        self.query_caches_stripped: list = []
        self.method_caches_active: list = []
        self.auxiliaries_added: list = []
        self.mode: UpdateMode = UpdateMode.SYNC

    def summary(self) -> str:
        return (
            f"read-mostly: {len(self.read_mostly_active)} active / "
            f"{len(self.read_mostly_stripped)} stripped; query caches: "
            f"{len(self.query_caches_active)} active / "
            f"{len(self.query_caches_stripped)} stripped; auxiliaries: "
            f"{', '.join(self.auxiliaries_added) or 'none'}; "
            f"update mode: {self.mode.value}"
        )


def apply_policy(
    application: ApplicationDescriptor, policy: PlacementPolicy
) -> AutomationReport:
    """Adjust ``application`` (in place) to the given placement policy."""
    report = AutomationReport()
    mode = policy.update_mode
    report.mode = mode

    # -- read-mostly entity beans -------------------------------------------
    for name, descriptor in list(application.components.items()):
        if descriptor.read_mostly is None:
            continue
        if not component_policy(descriptor, policy).replicas:
            descriptor.read_mostly = None
            report.read_mostly_stripped.append(name)
        else:
            descriptor.read_mostly = replace(descriptor.read_mostly, update_mode=mode)
            report.read_mostly_active.append(name)

    # -- query caches -----------------------------------------------------------
    if not policy.query_caches:
        report.query_caches_stripped.extend(application.query_caches)
        application.query_caches = {}
    else:
        adjusted: Dict[str, QueryCacheDescriptor] = {}
        for query_id, cache in application.query_caches.items():
            adjusted[query_id] = replace(cache, update_mode=mode)
            report.query_caches_active.append(query_id)
        application.query_caches = adjusted

    # -- centralized implementations ------------------------------------------
    # Decided from the planner's placement, so a component the policy
    # leaves out (and the planner keeps on main) counts as main-only.
    for descriptor in application.components.values():
        if (
            descriptor.central_impl is not None
            and tuple(component_policy(descriptor, policy).deploy) == ("main",)
        ):
            descriptor.impl = descriptor.central_impl

    # -- transactional method caches (level 6) ---------------------------------
    for name, placed in policy.components.items():
        if not placed.method_cache:
            continue
        descriptor = application.components.get(name)
        if descriptor is not None and descriptor.cached_methods:
            report.method_caches_active.append(name)

    # -- auxiliary system components ------------------------------------------
    # Method caches ride the same maintenance bus as replicas and query
    # caches, so they too need the updater façade at their servers.
    needs_maintenance = (
        bool(report.read_mostly_active)
        or bool(report.query_caches_active)
        or bool(report.method_caches_active)
    )
    if needs_maintenance and UPDATER_FACADE not in application.components:
        application.add(updater_facade_descriptor())
        report.auxiliaries_added.append(UPDATER_FACADE)
    if policy.async_updates and UPDATE_SUBSCRIBER not in application.components:
        application.add(update_subscriber_descriptor())
        report.auxiliaries_added.append(UPDATE_SUBSCRIBER)

    application.validate()
    return report
