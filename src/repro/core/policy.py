"""Declarative placement policy: distribution decisions as data (§5).

The paper's central claim is that "application deployers need only
declaratively express desired component behavior" and the container does
the rest.  RAFDA sharpens the same point: distribution *policy* should be
a first-class artifact, separate from application logic, swappable
without touching code.  This module is that artifact.

A :class:`PlacementPolicy` states, per component, where it deploys, where
its read-only replicas go, where query caches activate, and how updates
propagate (synchronous blocking push vs. JMS asynchronous publish).  It
is picklable, JSON-round-trippable, and *topology-independent*: server
sets are written as selectors (``"main"``, ``"edges"``, ``"all"``, or a
literal node name) that resolve against whatever testbed the run uses,
so one policy file works on two edge servers or ten.

The paper's five configurations are not special-cased anywhere
downstream: :func:`level_policy` is a small compiler from a
:class:`~repro.core.patterns.PatternLevel` plus an application descriptor
to a canned policy, and the planner, automation, design-rule checker and
distribution orchestrator consume only the policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..middleware.descriptors import ApplicationDescriptor, ComponentKind, UpdateMode
from ..rdbms.cluster.config import DataTierError, DataTierPolicy
from .patterns import PatternLevel

__all__ = [
    "PolicyError",
    "ComponentPolicy",
    "PlacementPolicy",
    "level_policy",
    "load_policy",
    "resolve_selectors",
    "SELECTOR_TOKENS",
]


class PolicyError(Exception):
    """Raised when a policy is malformed or contradicts the application."""


# Symbolic server-set selectors; anything else is a literal node name.
SELECTOR_TOKENS = ("main", "edges", "all")


def resolve_selectors(
    selectors: Sequence[str], main: str, edges: Sequence[str]
) -> List[str]:
    """Expand selectors to concrete server names in canonical order.

    Canonical order is main first, then edges in testbed order —
    the same order the level planner always produced — regardless of
    selector order.  Unknown literal names raise :class:`PolicyError`.
    """
    ordered = [main] + list(edges)
    chosen = set()
    for selector in selectors:
        if selector == "all":
            chosen.update(ordered)
        elif selector == "main":
            chosen.add(main)
        elif selector == "edges":
            chosen.update(edges)
        elif selector in ordered:
            chosen.add(selector)
        else:
            raise PolicyError(
                f"selector {selector!r} names no server in this topology "
                f"(servers: {', '.join(ordered)}; tokens: "
                f"{', '.join(SELECTOR_TOKENS)})"
            )
    return [server for server in ordered if server in chosen]


@dataclass(frozen=True)
class ComponentPolicy:
    """Placement of one component: deployment, replica and method-cache
    server sets.

    ``method_cache`` selects the servers whose containers intercept this
    component's annotated cacheable methods with a transactional method
    cache (level 6); empty means no method caching for this component.
    """

    deploy: Tuple[str, ...] = ("main",)
    replicas: Tuple[str, ...] = ()
    method_cache: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        payload: dict = {"deploy": list(self.deploy)}
        if self.replicas:
            payload["replicas"] = list(self.replicas)
        if self.method_cache:
            payload["method_cache"] = list(self.method_cache)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ComponentPolicy":
        if not isinstance(payload, dict):
            raise PolicyError(f"component policy must be an object, got {payload!r}")
        unknown = set(payload) - {"deploy", "replicas", "method_cache"}
        if unknown:
            raise PolicyError(f"unknown component policy keys: {sorted(unknown)}")
        return cls(
            deploy=tuple(payload.get("deploy", ("main",))),
            replicas=tuple(payload.get("replicas", ())),
            method_cache=tuple(payload.get("method_cache", ())),
        )


@dataclass(frozen=True)
class PlacementPolicy:
    """A complete distribution policy for one application.

    ``level`` is *metadata only*: the paper configuration this policy is
    closest to, used for table/figure labels.  Nothing downstream
    branches on it for placement, caching, update behaviour or the
    servlets an application runs.
    """

    name: str
    components: Dict[str, ComponentPolicy] = field(default_factory=dict)
    query_caches: Tuple[str, ...] = ()
    update_mode: UpdateMode = UpdateMode.SYNC
    level: Optional[int] = None
    # Optional distribution of the data tier itself (sharding +
    # replication); absent means today's single-instance database.
    data_tier: Optional[DataTierPolicy] = None

    # -- derived properties ---------------------------------------------------
    @property
    def async_updates(self) -> bool:
        return self.update_mode == UpdateMode.ASYNC

    def effective_level(self) -> PatternLevel:
        """Label level (defaults to the remote-façade configuration)."""
        if self.level is not None:
            return PatternLevel(self.level)
        return PatternLevel.REMOTE_FACADE

    def replica_selectors(self) -> Tuple[str, ...]:
        """Union of every component's replica selectors (stable order)."""
        seen: List[str] = []
        for name in self.components:
            for selector in self.components[name].replicas:
                if selector not in seen:
                    seen.append(selector)
        return tuple(seen)

    def method_cache_selectors(self) -> Tuple[str, ...]:
        """Union of every component's method-cache selectors (stable order)."""
        seen: List[str] = []
        for name in self.components:
            for selector in self.components[name].method_cache:
                if selector not in seen:
                    seen.append(selector)
        return tuple(seen)

    def maintenance_selectors(self) -> Tuple[str, ...]:
        """Servers that need the replica-maintenance machinery: main plus
        everywhere replicas, query caches or method caches live."""
        seen: List[str] = ["main"]
        selectors = (
            self.replica_selectors()
            + self.query_caches
            + self.method_cache_selectors()
        )
        for selector in selectors:
            if selector not in seen:
                seen.append(selector)
        return tuple(seen)

    # -- serialization --------------------------------------------------------
    def to_json(self) -> dict:
        payload: dict = {
            "name": self.name,
            "update_mode": self.update_mode.value,
            "components": {
                name: self.components[name].to_json()
                for name in sorted(self.components)
            },
        }
        if self.query_caches:
            payload["query_caches"] = list(self.query_caches)
        if self.level is not None:
            payload["level"] = int(self.level)
        if self.data_tier is not None:
            payload["data_tier"] = self.data_tier.to_json()
        return payload

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, payload: dict) -> "PlacementPolicy":
        if not isinstance(payload, dict):
            raise PolicyError(f"policy must be a JSON object, got {payload!r}")
        unknown = set(payload) - {
            "name", "components", "query_caches", "update_mode", "level", "data_tier"
        }
        if unknown:
            raise PolicyError(f"unknown policy keys: {sorted(unknown)}")
        mode_raw = payload.get("update_mode", UpdateMode.SYNC.value)
        try:
            mode = UpdateMode(mode_raw)
        except ValueError:
            raise PolicyError(
                f"update_mode must be one of "
                f"{[m.value for m in UpdateMode]}, got {mode_raw!r}"
            ) from None
        level = payload.get("level")
        if level is not None:
            try:
                level = int(PatternLevel(int(level)))
            except ValueError:
                raise PolicyError(f"level must be 1..6, got {level!r}") from None
        components_raw = payload.get("components", {})
        if not isinstance(components_raw, dict):
            raise PolicyError("components must be an object keyed by component name")
        data_tier_raw = payload.get("data_tier")
        data_tier = None
        if data_tier_raw is not None:
            try:
                data_tier = DataTierPolicy.from_json(data_tier_raw)
            except DataTierError as exc:
                raise PolicyError(str(exc)) from None
        return cls(
            name=str(payload.get("name", "custom")),
            components={
                name: ComponentPolicy.from_json(value)
                for name, value in components_raw.items()
            },
            query_caches=tuple(payload.get("query_caches", ())),
            update_mode=mode,
            level=level,
            data_tier=data_tier,
        )

    # -- validation -----------------------------------------------------------
    def validation_errors(self, application: ApplicationDescriptor) -> List[str]:
        """Static contradictions between this policy and the application."""
        errors: List[str] = []
        for name, cp in self.components.items():
            descriptor = application.components.get(name)
            if descriptor is None:
                errors.append(f"policy places unknown component {name!r}")
                continue
            if not cp.deploy:
                errors.append(f"component {name!r} has an empty deploy set")
            if descriptor.kind == ComponentKind.ENTITY:
                if tuple(cp.deploy) != ("main",):
                    errors.append(
                        f"entity {name!r} must deploy exactly on 'main' "
                        f"(read-write state is single-master); replicas are "
                        f"the way to place it elsewhere"
                    )
                if cp.replicas and descriptor.read_mostly is None:
                    errors.append(
                        f"entity {name!r} has replica placements but no "
                        f"read-mostly extended descriptor"
                    )
            elif cp.replicas:
                errors.append(
                    f"component {name!r} is not an entity bean; only "
                    f"entities have read-only replicas"
                )
            if cp.method_cache:
                if descriptor.kind != ComponentKind.STATELESS_SESSION:
                    errors.append(
                        f"component {name!r} has method-cache placements but "
                        f"is not a stateless session bean; only façade "
                        f"methods are cacheable"
                    )
                elif not descriptor.cached_methods:
                    errors.append(
                        f"component {name!r} has method-cache placements but "
                        f"its descriptor annotates no cacheable methods"
                    )
            if descriptor.kind == ComponentKind.SERVLET and "main" not in cp.deploy \
                    and "all" not in cp.deploy:
                errors.append(
                    f"servlet {name!r} must be deployed on 'main' so every "
                    f"client has an entry server"
                )
        if self.query_caches and not application.query_caches:
            errors.append(
                "policy activates query caches but the application declares none"
            )
        if self.data_tier is not None:
            errors.extend(
                f"data_tier: {error}"
                for error in self.data_tier.validation_errors()
            )
        return errors

    def validate_against(self, application: ApplicationDescriptor) -> "PlacementPolicy":
        errors = self.validation_errors(application)
        if errors:
            raise PolicyError(
                f"policy {self.name!r} is inconsistent with application "
                f"{application.name!r}:\n  " + "\n  ".join(errors)
            )
        return self


def level_policy(
    level: Union[PatternLevel, int], application: ApplicationDescriptor
) -> PlacementPolicy:
    """Compile one of the paper's five configurations into a policy.

    This is the *only* place the cumulative pattern-level semantics of
    §4 survive; everything downstream consumes the resulting policy.
    The compiled policy is topology-independent ("all" selectors), so
    the same five configurations run unchanged on any edge count.
    """
    from ..middleware.updates import UPDATE_SUBSCRIBER, UPDATER_FACADE

    level = PatternLevel(level)
    components: Dict[str, ComponentPolicy] = {}
    for name, descriptor in application.components.items():
        if descriptor.kind in (ComponentKind.SERVLET, ComponentKind.STATEFUL_SESSION):
            deploy = ("all",) if level >= PatternLevel.REMOTE_FACADE else ("main",)
            components[name] = ComponentPolicy(deploy=deploy)
        elif descriptor.kind == ComponentKind.STATELESS_SESSION:
            deploy = ("main",)
            threshold = descriptor.edge_from_level
            if threshold is not None and level >= threshold:
                deploy = ("all",)
            method_cache = (
                ("edges",)
                if level >= PatternLevel.METHOD_CACHING
                and descriptor.cached_methods
                and deploy == ("all",)
                else ()
            )
            components[name] = ComponentPolicy(deploy=deploy, method_cache=method_cache)
        elif descriptor.kind == ComponentKind.ENTITY:
            replicas = (
                ("all",)
                if descriptor.read_mostly is not None
                and level >= PatternLevel.STATEFUL_CACHING
                else ()
            )
            components[name] = ComponentPolicy(deploy=("main",), replicas=replicas)
        elif descriptor.kind == ComponentKind.MESSAGE_DRIVEN:
            deploy = ("all",) if level >= PatternLevel.ASYNC_UPDATES else ("main",)
            components[name] = ComponentPolicy(deploy=deploy)
        else:  # pragma: no cover - enum is closed
            raise PolicyError(f"unplaceable component kind {descriptor.kind}")

    replicating = level >= PatternLevel.STATEFUL_CACHING and any(
        d.read_mostly is not None for d in application.components.values()
    )
    caching = level >= PatternLevel.QUERY_CACHING and bool(application.query_caches)
    asynchronous = level >= PatternLevel.ASYNC_UPDATES

    # Auxiliary system components the automation pass will add: the
    # policy pre-places them so the planner never falls back to kind
    # heuristics for the canned configurations.
    if (replicating or caching) and UPDATER_FACADE not in components:
        components[UPDATER_FACADE] = ComponentPolicy(deploy=("all",))
    if asynchronous and UPDATE_SUBSCRIBER not in components:
        components[UPDATE_SUBSCRIBER] = ComponentPolicy(deploy=("all",))

    return PlacementPolicy(
        name=f"level-{int(level)}",
        components=components,
        query_caches=("all",) if caching else (),
        update_mode=UpdateMode.ASYNC if asynchronous else UpdateMode.SYNC,
        level=int(level),
    )


def load_policy(path: str) -> PlacementPolicy:
    """Read a policy JSON file (the ``--policy FILE`` entry point)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"policy file {path!r} is not valid JSON: {exc}") from None
    return PlacementPolicy.from_json(payload)
