"""Design-rule enforcement (§5): one table of rules, checked before and after a run.

The paper distils its findings into enforceable rules:

* **R1 — façade-only remote access**: only components with remote
  interfaces are invoked across the network; entity beans expose local
  interfaces only.  (Violations are also raised at runtime by
  :class:`~repro.middleware.rmi.RemoteRef`; the static half catches
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

Each rule is one row of :data:`RULES`: when it applies, read from the
plan alone (does the plan distribute the web tier beyond the main
server, place replicas, propagate updates asynchronously, declare a
data tier, place method caches — never a pattern-level comparison, so
hand-written policies are checked exactly like the paper's five
configurations); its static half, which reads the plan's tailored
descriptors; and its run half, which reads the deployment and its span
table.  :func:`precheck` runs the static halves of the rules that apply,
before any simulation; :func:`check_rules` runs both halves after a run.
Nothing else decides which rules apply, so every rule a precheck reports
is also on the run's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..middleware.updates import UPDATER_FACADE
from ..obs.spans import SpanRecorder, fold_paths
from .distribution import DeployedSystem
from .patterns import PatternLevel
from .planner import DeploymentPlan

__all__ = [
    "RuleViolation", "RuleReport", "check_rules", "client_path_wan_calls", "precheck",
]

#: R2's budget: wide-area client-path calls allowed per page.
WAN_CALLS_PER_PAGE = 1

# Span kinds whose subtrees are *not* client-path work: replica
# maintenance rides on the committing request but is not a call the
# client waits on a WAN round trip for (asynchronous deliveries never
# block it at all).
MAINTENANCE_KINDS = frozenset({"propagate", "jms", "jms-delivery"})

# One violation found by a rule half: (subject, detail).
Finding = Tuple[str, str]


@dataclass
class RuleViolation:
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


@dataclass
class RuleReport:
    """Outcome of a check: the rules checked, what they found, and the
    evidence no counter holds (R2's worst page, R4's replica hit rates)."""

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

    def _record(self, rule: str, findings: Iterable[Finding]) -> None:
        self.checked_rules.append(rule)
        self.violations.extend(
            RuleViolation(rule, subject, detail) for subject, detail in findings
        )


@dataclass
class _Run:
    """What a rule's run half reads, and where it leaves its evidence."""

    system: DeployedSystem
    spans: Optional[SpanRecorder]
    # Pages allowed a higher R2 budget, e.g. {"Verify Signin": 2} (§4.2).
    page_exceptions: Dict[str, int]
    min_replica_hit_rate: float
    metrics: Dict[str, float]


@dataclass(frozen=True)
class Rule:
    """One row of the rule table."""

    name: str
    applies: Callable[[DeploymentPlan], bool]
    static: Optional[Callable[[DeploymentPlan], Iterator[Finding]]] = None
    run: Optional[Callable[[_Run], Iterator[Finding]]] = None
    # Counts as checked after a run only with a complete span table.
    needs_spans: bool = False


# -- R1 ---------------------------------------------------------------------

def _static_r1(plan: DeploymentPlan) -> Iterator[Finding]:
    for name, descriptor in plan.application.components.items():
        if descriptor.is_entity and descriptor.remote_interface:
            yield (
                name,
                "entity bean exposes a remote interface; entities must be "
                "local-only so web tiers cannot bypass façades",
            )


def _run_r1(run: _Run) -> Iterator[Finding]:
    if run.spans is None:
        return
    components = run.system.application.components
    for span in run.spans.spans:
        if span["kind"] != "rmi" or not span["wide_area"]:
            continue
        target = span.get("target")
        descriptor = components.get(target)
        if descriptor is not None and not descriptor.remote_interface:
            yield (
                target,
                f"invoked across the WAN from {span['node']} without a remote interface",
            )


# -- R2 ---------------------------------------------------------------------

def client_path_wan_calls(spans: List[dict]) -> Dict[str, int]:
    """Per page, the most wide-area RMI/JDBC calls one request waited on.

    Each HTTP-rooted tree of the span table is one request (other roots
    are detached maintenance work, e.g. bounded flushes).  A span counts
    when every span on its path below the root is client-path work: the
    walk prunes maintenance subtrees (update propagation, JMS publishes
    and asynchronous deliveries) and spans against the updater façade.
    The filter is structural, not heuristic: a JDBC refresh executed
    *inside* propagation is excluded because of where it sits in the
    tree, not because of what it is named.
    """

    def extend(path: Tuple[dict, bool], span: dict) -> Tuple[dict, bool]:
        root, clean = path
        return root, clean and not (
            span["kind"] in MAINTENANCE_KINDS or span.get("target") == UPDATER_FACADE
        )

    paths = fold_paths(spans, lambda span: (span, True), extend)
    calls: Dict[int, int] = {}  # root span id -> counted calls
    for span in spans:
        root, clean = paths[span["id"]]
        if clean and span["wide_area"] and span["kind"] in ("rmi", "jdbc"):
            calls[root["id"]] = calls.get(root["id"], 0) + 1
    worst: Dict[str, int] = {}
    for span in spans:
        if span["kind"] == "http" and paths[span["id"]][0] is span:
            page = span.get("page") or "?"
            worst[page] = max(worst.get(page, 0), calls.get(span["id"], 0))
    return worst


def _run_r2(run: _Run) -> Iterator[Finding]:
    worst = client_path_wan_calls(run.spans.spans)
    run.metrics["max_wan_calls_seen"] = float(max(worst.values()) if worst else 0)
    for page, count in sorted(worst.items()):
        budget = run.page_exceptions.get(page, WAN_CALLS_PER_PAGE)
        if count > budget:
            yield (
                page,
                f"a request's span tree contains {count} wide-area "
                f"client-path calls (budget {budget})",
            )


# -- R3 ---------------------------------------------------------------------

def _static_r3(plan: DeploymentPlan) -> Iterator[Finding]:
    for name, descriptor in plan.application.components.items():
        if descriptor.kind.value in ("stateful-session", "servlet"):
            placed = set(plan.servers_of(name))
            missing = [s for s in plan.entry_servers if s not in placed]
            if missing:
                yield (
                    name,
                    f"session-oriented component missing from entry "
                    f"server(s) {missing}",
                )


# -- R4 ---------------------------------------------------------------------

def _run_r4(run: _Run) -> Iterator[Finding]:
    plan = run.system.plan
    for server in run.system.edges:
        for name, replica_servers in plan.replicas.items():
            if server.name not in replica_servers:
                continue  # the policy does not cache here
            container = server.readonly_container(name)
            if container is None:
                yield name, f"replica not deployed on {server.name}"
                continue
            total = container.hits + container.misses
            if total == 0:
                continue
            rate = container.hits / total
            run.metrics[f"hit_rate:{name}@{server.name}"] = rate
            if rate < run.min_replica_hit_rate:
                yield (
                    f"{name}@{server.name}",
                    f"replica hit rate {rate:.0%} below {run.min_replica_hit_rate:.0%}",
                )


# -- R5 ---------------------------------------------------------------------

def _run_r5(run: _Run) -> Iterator[Finding]:
    propagator = run.system.main.update_propagator
    if propagator is not None and propagator.sync_pushes > 0:
        yield (
            "UpdatePropagator",
            f"{propagator.sync_pushes} commits blocked on synchronous "
            "WAN pushes under an asynchronous-update policy",
        )


# -- R6 ---------------------------------------------------------------------

def _static_r6(plan: DeploymentPlan) -> Iterator[Finding]:
    tier = plan.policy.data_tier
    application = plan.application
    # One database seat at the main site plus one per edge server.
    for error in tier.validation_errors(seat_count=1 + len(plan.edges)):
        yield "data_tier", error
    known = {
        descriptor.table
        for descriptor in application.components.values()
        if descriptor.table
    }
    if not known:
        return
    for table, key in tier.shard_tables:
        if table not in known:
            yield (
                table,
                f"sharded table (key {key!r}) matches no entity table "
                f"of application {application.name!r}",
            )
    for table in tier.global_tables:
        if table not in known:
            yield (
                table,
                f"global table matches no entity table of application "
                f"{application.name!r}",
            )


def _run_r6(run: _Run) -> Iterator[Finding]:
    cluster = run.system.cluster
    for group in cluster.groups:
        if len(group.members) != cluster.tier.replication_factor:
            yield (
                group.name,
                f"{len(group.members)} member(s) for a declared "
                f"replication factor of {cluster.tier.replication_factor}",
            )
        if group.live_leader() is None:
            yield (
                group.name,
                "no live leader at the end of the run "
                "(election never completed after the fault window)",
            )
    if cluster.stats.apply_errors > 0:
        yield (
            "replication",
            f"{cluster.stats.apply_errors} committed log entries failed "
            f"to apply on a replica (copies diverged)",
        )


# -- R7 ---------------------------------------------------------------------

def _static_r7(plan: DeploymentPlan) -> Iterator[Finding]:
    """Every annotated cacheable method must exist on the bean class.

    The *write-set* half of R7 is learned at runtime (footprints are
    derived from executed statements, never declared), so the static
    half can only catch annotations that reference nothing at all.
    """
    for name in sorted(plan.method_caches):
        descriptor = plan.application.components.get(name)
        if descriptor is None:
            continue
        for method in descriptor.cached_methods:
            if not callable(getattr(descriptor.impl, method, None)):
                yield (
                    f"{name}.{method}",
                    f"annotated cacheable method does not exist on "
                    f"{descriptor.impl.__name__}",
                )


def _run_r7(run: _Run) -> Iterator[Finding]:
    for server in run.system.servers.values():
        cache = server.method_cache
        if cache is None:
            continue
        for (component, method), tables in sorted(cache.write_violations.items()):
            yield (
                f"{component}.{method}@{server.name}",
                f"cacheable method wrote table(s) {', '.join(tables)}; "
                "its results cannot be cached safely",
            )


# -- the table ----------------------------------------------------------------

def _web_tier_distributed(plan: DeploymentPlan) -> bool:
    """True when clients connect anywhere beyond the main server."""
    return any(server != plan.main for server in plan.entry_servers)


RULES: Tuple[Rule, ...] = (
    Rule("R1", lambda plan: True, static=_static_r1, run=_run_r1),
    Rule("R2", _web_tier_distributed, run=_run_r2, needs_spans=True),
    Rule("R3", _web_tier_distributed, static=_static_r3),
    Rule("R4", lambda plan: bool(plan.replicas), run=_run_r4),
    Rule("R5", lambda plan: plan.policy.async_updates, run=_run_r5),
    Rule("R6", lambda plan: plan.policy.data_tier is not None, static=_static_r6, run=_run_r6),
    Rule("R7", lambda plan: bool(plan.method_caches), static=_static_r7, run=_run_r7),
)


def precheck(plan: DeploymentPlan) -> RuleReport:
    """Static design-rule check of a plan, before any simulation: the
    static halves of the rules that apply to it."""
    report = RuleReport(level=plan.level)
    for rule in RULES:
        if rule.static is not None and rule.applies(plan):
            report._record(rule.name, rule.static(plan))
    return report


def check_rules(
    system: DeployedSystem,
    spans: Optional[SpanRecorder] = None,
    *,
    page_exceptions: Optional[Dict[str, int]] = None,
    min_replica_hit_rate: float = 0.5,
) -> RuleReport:
    """Both halves of every rule that applies to ``system``'s plan, read
    from ``spans``, by default the deployment's own span table.  A rule
    that needs a complete span table (R2) is left unchecked without one.
    """
    spans = spans if spans is not None else system.trace
    complete = spans is not None and not spans.dropped
    plan = system.plan
    report = RuleReport(level=plan.level)
    run = _Run(system, spans, page_exceptions or {}, min_replica_hit_rate, report.metrics)
    for rule in RULES:
        if not rule.applies(plan) or (rule.needs_spans and not complete):
            continue
        static = rule.static(plan) if rule.static is not None else ()
        observed = rule.run(run) if rule.run is not None else ()
        report._record(rule.name, chain(static, observed))
    return report
