"""Design-rule enforcement (§5): check deployments and their span tables.

The paper distils its findings into enforceable rules.  This checker
verifies them against a deployment plus the span table of a simulation
run (:mod:`repro.obs.spans`), producing a structured report:

* **R1 — façade-only remote access**: only components with remote
  interfaces are invoked across the network; entity beans expose local
  interfaces only.  (Violations are also raised at runtime by
  :class:`~repro.middleware.rmi.RemoteRef`; the checker catches
  descriptor-level risk even before running.)
* **R2 — one wide-area call per page**: serving any page incurs at most
  :data:`WAN_CALLS_PER_PAGE` (one) wide-area RMI/JDBC call on its span
  tree's client path; a page named in ``page_exceptions`` gets its own
  budget (the paper's stated exception: Verify Signin makes two).
  Checked only from a complete span table.
* **R3 — session state at the edge**: session-oriented state is created
  on the server the client connects to (every *entry server*), never
  fetched across the WAN.
* **R4 — shared read-mostly state cached at the edge**: wherever the
  policy places read-only replicas, they serve a healthy fraction of
  entity reads locally.
* **R5 — no blocking wide-area writes**: under asynchronous update
  propagation, transaction commits never block on synchronous WAN
  pushes.
* **R6 — coherent data tier**: when the policy distributes the data
  tier itself (a ``data_tier`` block), the shard/replica declaration
  must fit the topology (replica quorums achievable with the available
  database seats, sharded/global tables that actually exist), and at
  runtime every replica group must end the run with a live leader and
  zero failed log applications.
* **R7 — cacheable methods must not write**: a method annotated for
  transactional method caching (level 6) must have an empty *learned*
  write set — a cached writer's side effects would be silently skipped
  on hits.  Statically, every annotated method must exist on the bean
  class; at runtime, the method caches report any method observed
  writing a table through the JDBC layer.

Which rules apply is derived from the *deployment itself* — does the
plan distribute the web tier beyond the main server, does it place
replicas, does the policy propagate updates asynchronously — not from a
pattern-level comparison, so hand-written policies are checked by
exactly the same machinery as the paper's five configurations.
:func:`precheck` runs the static subset (R1, R3) against a plan alone,
before any simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..middleware.descriptors import ApplicationDescriptor
from ..obs.metrics import collect_cache_stats, sum_counter
from ..obs.spans import SpanRecorder, build_trees, client_path_wan_calls
from .distribution import DeployedSystem
from .patterns import PatternLevel
from .planner import DeploymentPlan

__all__ = ["RuleViolation", "RuleReport", "DesignRuleChecker", "precheck"]

#: R2's budget: wide-area client-path calls allowed per page.
WAN_CALLS_PER_PAGE = 1


@dataclass
class RuleViolation:
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


@dataclass
class RuleReport:
    """Outcome of a checker run."""

    level: PatternLevel
    violations: List[RuleViolation] = field(default_factory=list)
    checked_rules: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_of(self, rule: str) -> List[RuleViolation]:
        return [v for v in self.violations if v.rule == rule]

    def summary(self) -> str:
        status = "PASS" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"design rules at level {int(self.level)}: {status}"]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class DesignRuleChecker:
    """Checks the design rules against a deployment and its span table."""

    def __init__(
        self,
        system: DeployedSystem,
        page_exceptions: Optional[Dict[str, int]] = None,
        min_replica_hit_rate: float = 0.5,
    ):
        self.system = system
        # Pages allowed a higher budget, e.g. {"Verify Signin": 2} (§4.2).
        self.page_exceptions = dict(page_exceptions or {})
        self.min_replica_hit_rate = min_replica_hit_rate

    def check(self, spans: Optional[SpanRecorder] = None) -> RuleReport:
        """Check ``spans``, by default the deployment's own span table."""
        spans = spans if spans is not None else self.system.trace
        plan = self.system.plan
        report = RuleReport(level=plan.level)
        self._check_r1(report, spans)
        if _web_tier_distributed(plan):
            self._check_r2(report, spans)
            self._check_r3(report)
        if plan.replicas:
            self._check_r4(report)
        if plan.policy.async_updates:
            self._check_r5(report)
        if self.system.cluster is not None:
            self._check_r6(report)
        if plan.method_caches:
            self._check_r7(report)
        return report

    # -- R1 -----------------------------------------------------------------
    def _check_r1(self, report: RuleReport, spans: Optional[SpanRecorder]) -> None:
        report.checked_rules.append("R1")
        application = self.system.application
        _static_r1(report, application)
        if spans is None:
            return
        for span in spans.spans:
            if span.kind != "rmi" or not span.wide_area:
                continue
            descriptor = application.components.get(span.target)
            if descriptor is not None and not descriptor.remote_interface:
                report.violations.append(
                    RuleViolation(
                        "R1",
                        span.target,
                        f"invoked across the WAN from {span.node} "
                        f"without a remote interface",
                    )
                )

    # -- R2 -----------------------------------------------------------------
    def _check_r2(self, report: RuleReport, spans: Optional[SpanRecorder]) -> None:
        # The span trees carry the causal structure that lets the checker
        # prune replica-maintenance subtrees ("propagate"/"jms"/
        # "jms-delivery").  Without a table, or with one that dropped
        # spans (incomplete trees), R2 is not checked at all.
        if spans is None or spans.dropped:
            return
        report.checked_rules.append("R2")
        from ..middleware.updates import UPDATER_FACADE

        exclude = frozenset({UPDATER_FACADE})
        worst: Dict[str, int] = {}
        for tree in build_trees(spans.spans):
            if tree.root.kind != "http":
                continue  # detached maintenance roots (bounded flushes, ...)
            count = client_path_wan_calls(tree, exclude_targets=exclude)
            page = tree.root.page or "?"
            worst[page] = max(worst.get(page, 0), count)
        report.metrics["max_wan_calls_seen"] = float(max(worst.values()) if worst else 0)
        for page, count in sorted(worst.items()):
            budget = self.page_exceptions.get(page, WAN_CALLS_PER_PAGE)
            if count > budget:
                report.violations.append(
                    RuleViolation(
                        "R2",
                        page,
                        f"a request's span tree contains {count} wide-area "
                        f"client-path calls (budget {budget})",
                    )
                )

    # -- R3 -----------------------------------------------------------------
    def _check_r3(self, report: RuleReport) -> None:
        report.checked_rules.append("R3")
        _static_r3(report, self.system.application, self.system.plan)

    # -- R4 -----------------------------------------------------------------
    def _check_r4(self, report: RuleReport) -> None:
        report.checked_rules.append("R4")
        plan = self.system.plan
        for server in self.system.edges:
            for name, replica_servers in plan.replicas.items():
                if server.name not in replica_servers:
                    continue  # the policy does not cache here
                container = server.readonly_container(name)
                if container is None:
                    report.violations.append(
                        RuleViolation(
                            "R4", name, f"replica not deployed on {server.name}"
                        )
                    )
                    continue
                total = container.hits + container.misses
                if total == 0:
                    continue
                rate = container.hits / total
                report.metrics[f"hit_rate:{name}@{server.name}"] = rate
                if rate < self.min_replica_hit_rate:
                    report.violations.append(
                        RuleViolation(
                            "R4",
                            f"{name}@{server.name}",
                            f"replica hit rate {rate:.0%} below "
                            f"{self.min_replica_hit_rate:.0%}",
                        )
                    )

    # -- R6 -----------------------------------------------------------------
    def _check_r6(self, report: RuleReport) -> None:
        report.checked_rules.append("R6")
        cluster = self.system.cluster
        stats = cluster.stats
        report.metrics["cluster_elections_won"] = float(stats.elections_won)
        report.metrics["cluster_leader_failovers"] = float(stats.leader_failovers)
        report.metrics["cluster_apply_errors"] = float(stats.apply_errors)
        for group in cluster.groups:
            if len(group.members) != cluster.tier.replication_factor:
                report.violations.append(
                    RuleViolation(
                        "R6",
                        group.name,
                        f"{len(group.members)} member(s) for a declared "
                        f"replication factor of {cluster.tier.replication_factor}",
                    )
                )
            if group.live_leader() is None:
                report.violations.append(
                    RuleViolation(
                        "R6",
                        group.name,
                        "no live leader at the end of the run "
                        "(election never completed after the fault window)",
                    )
                )
        if stats.apply_errors > 0:
            report.violations.append(
                RuleViolation(
                    "R6",
                    "replication",
                    f"{stats.apply_errors} committed log entries failed "
                    f"to apply on a replica (copies diverged)",
                )
            )

    # -- R7 -----------------------------------------------------------------
    def _check_r7(self, report: RuleReport) -> None:
        report.checked_rules.append("R7")
        for server in self.system.servers.values():
            cache = server.method_cache
            if cache is None:
                continue
            for (component, method), tables in sorted(cache.write_violations.items()):
                report.violations.append(
                    RuleViolation(
                        "R7",
                        f"{component}.{method}@{server.name}",
                        f"cacheable method wrote table(s) {', '.join(tables)}; "
                        "its results cannot be cached safely",
                    )
                )
        section = collect_cache_stats(self.system).get("method_cache", {})
        for name in ("hits", "misses", "stale_serves"):
            report.metrics[f"method_cache_{name}"] = float(sum_counter(section, name))

    # -- R5 -----------------------------------------------------------------
    def _check_r5(self, report: RuleReport) -> None:
        report.checked_rules.append("R5")
        propagator = self.system.main.update_propagator
        if propagator is None:
            return
        report.metrics["sync_pushes"] = float(propagator.sync_pushes)
        report.metrics["async_publishes"] = float(propagator.async_publishes)
        if propagator.sync_pushes > 0:
            report.violations.append(
                RuleViolation(
                    "R5",
                    "UpdatePropagator",
                    f"{propagator.sync_pushes} commits blocked on synchronous "
                    "WAN pushes under an asynchronous-update policy",
                )
            )


# -- static (pre-run) checking ------------------------------------------------

def _web_tier_distributed(plan: DeploymentPlan) -> bool:
    """True when clients connect anywhere beyond the main server."""
    return any(server != plan.main for server in plan.entry_servers)


def _static_r1(report: RuleReport, application: ApplicationDescriptor) -> None:
    for name, descriptor in application.components.items():
        if descriptor.is_entity and descriptor.remote_interface:
            report.violations.append(
                RuleViolation(
                    "R1",
                    name,
                    "entity bean exposes a remote interface; entities must be "
                    "local-only so web tiers cannot bypass façades",
                )
            )


def _static_r3(
    report: RuleReport, application: ApplicationDescriptor, plan: DeploymentPlan
) -> None:
    for name, descriptor in application.components.items():
        if descriptor.kind.value in ("stateful-session", "servlet"):
            placed = set(plan.servers_of(name))
            missing = [s for s in plan.entry_servers if s not in placed]
            if missing:
                report.violations.append(
                    RuleViolation(
                        "R3",
                        name,
                        f"session-oriented component missing from entry "
                        f"server(s) {missing}",
                    )
                )


def precheck(application: ApplicationDescriptor, plan: DeploymentPlan) -> RuleReport:
    """Static design-rule check of a plan, before any simulation.

    Covers the rules decidable from descriptors and placements alone:
    R1 (entity beans must not expose remote interfaces), — when the
    plan distributes the web tier — R3 (session-oriented components
    present on every entry server), and — when the plan's policy
    declares a ``data_tier`` block — the static half of R6 (replica quorums
    achievable with this topology's database seats, shard keys against
    known entity tables), and — when the plan places method caches —
    the static half of R7 (annotated methods exist on the bean class).
    The run-driven rules (R2, R4, R5, runtime R6, runtime R7) need a
    run and stay with :class:`DesignRuleChecker`.
    """
    report = RuleReport(level=plan.level)
    report.checked_rules.append("R1")
    _static_r1(report, application)
    if _web_tier_distributed(plan):
        report.checked_rules.append("R3")
        _static_r3(report, application, plan)
    if plan.policy.data_tier is not None:
        report.checked_rules.append("R6")
        _static_r6(report, application, plan, plan.policy.data_tier)
    if plan.method_caches:
        report.checked_rules.append("R7")
        _static_r7(report, application, plan)
    return report


def _static_r7(report: RuleReport, application, plan) -> None:
    """Every annotated cacheable method must exist on the bean class.

    The *write-set* half of R7 is learned at runtime (footprints are
    derived from executed statements, never declared), so the static
    pass can only catch annotations that reference nothing at all.
    """
    for name in sorted(plan.method_caches):
        descriptor = application.components.get(name)
        if descriptor is None:
            continue
        for method in descriptor.cached_methods:
            if not callable(getattr(descriptor.impl, method, None)):
                report.violations.append(
                    RuleViolation(
                        "R7",
                        f"{name}.{method}",
                        f"annotated cacheable method does not exist on "
                        f"{descriptor.impl.__name__}",
                    )
                )


def _static_r6(report: RuleReport, application, plan, tier) -> None:
    # One database seat at the main site plus one per edge server.
    seat_count = 1 + len(plan.edges)
    for error in tier.validation_errors(seat_count=seat_count):
        report.violations.append(RuleViolation("R6", "data_tier", error))
    known = {
        descriptor.table
        for descriptor in application.components.values()
        if getattr(descriptor, "table", None)
    }
    if not known:
        return
    for table, key in tier.shard_tables:
        if table not in known:
            report.violations.append(
                RuleViolation(
                    "R6",
                    table,
                    f"sharded table (key {key!r}) matches no entity table "
                    f"of application {application.name!r}",
                )
            )
    for table in tier.global_tables:
        if table not in known:
            report.violations.append(
                RuleViolation(
                    "R6",
                    table,
                    f"global table matches no entity table of application "
                    f"{application.name!r}",
                )
            )
