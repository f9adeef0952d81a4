"""Design-rule enforcement (§5): audit a good and a bad deployment.

The paper argues component models should *enforce* its design rules —
"an effective way to promote and enforce the use of the façade pattern
is to define façades as the only components that can be invoked by
remote clients".  This example audits RUBiS twice:

1. deployed correctly at the asynchronous-updates level — every rule
   passes;
2. deliberately mis-engineered — entity beans exposed remotely and a
   chatty page making three wide-area calls — and shows the checker
   (and the runtime) catching it.

Run:  python examples/design_rule_audit.py
"""

from repro.apps.rubis import build_application, populate_rubis
from repro.core import DesignRuleChecker, PatternLevel, distribute
from repro.core.rules import RuleReport
from repro.experiments import run_configuration
from repro.experiments.calibration import default_workload
from repro.middleware.rmi import AccessError
from repro.middleware.context import InvocationContext, RequestInfo
from repro.simnet import Environment, Streams, Trace, build_testbed
from repro.simnet.topology import TestbedConfig


def audit_good_deployment() -> RuleReport:
    print("=== 1. correctly engineered deployment (level 5) ===")
    result = run_configuration(
        "rubis",
        PatternLevel.ASYNC_UPDATES,
        workload=default_workload(duration_ms=60_000.0, warmup_ms=15_000.0),
        with_trace=True,
    )
    report = DesignRuleChecker(result.system, min_replica_hit_rate=0.3).check(
        result.trace
    )
    print(report.summary())
    print(f"  rules checked: {', '.join(report.checked_rules)}")
    for key, value in sorted(report.metrics.items()):
        if key.startswith("hit_rate"):
            print(f"  {key}: {value:.0%}")
    return report


def audit_bad_deployment() -> RuleReport:
    print("\n=== 2. deliberately mis-engineered deployment ===")
    streams = Streams(13)
    database, catalog = populate_rubis(streams)
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=True))
    trace = Trace()
    application = build_application(catalog=catalog)
    # Mistake #1: expose the Item entity bean remotely (violates R1).
    application.components["RubisItem"].remote_interface = True
    system = distribute(
        env, testbed, application, PatternLevel.REMOTE_FACADE, database, trace=trace
    )

    # Mistake #2: a "page" that makes three fine-grained wide-area entity
    # calls instead of one façade call (violates R2) — now *possible*
    # because of mistake #1.
    edge = system.servers["edge1"]
    ctx = InvocationContext(
        env=env,
        server=edge,
        request=RequestInfo("Chatty Item", "demo", "s1", "client-edge1-0"),
        costs=edge.costs,
        trace=trace,
    )

    def chatty_page():
        home = yield from edge.lookup(ctx, "RubisItem")
        for method in ("get_details", "get_bid_summary", "get_details"):
            yield from home.entity(1).call(ctx, method)

    env.process(chatty_page())
    env.run()

    report = DesignRuleChecker(system).check(trace)
    print(report.summary())

    # Had the entity kept its local-only interface, the runtime itself
    # would have refused (the enforcement §5 recommends):
    application.components["RubisItem"].remote_interface = False
    edge.home_cache.invalidate()

    def rejected_page():
        home = yield from edge.lookup(ctx, "RubisItem")
        yield from home.entity(1).call(ctx, "get_details")

    process = env.process(rejected_page())
    try:
        env.run()
        print("  (unexpected: remote entity call was allowed)")
    except AccessError as error:
        print(f"  runtime enforcement: AccessError: {error}")
    return report


def main() -> None:
    good = audit_good_deployment()
    bad = audit_bad_deployment()
    assert good.ok and not bad.ok
    print(
        "\nThe checker passes the engineered deployment and pinpoints both "
        "mistakes in the broken one; with local-only entity interfaces the "
        "container refuses the bad call outright."
    )


if __name__ == "__main__":
    main()
