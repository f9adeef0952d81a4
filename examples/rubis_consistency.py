"""Consistency under replication: blocking push vs asynchronous updates.

Drives the same bid through RUBiS at level 3 (synchronous zero-staleness
push, §4.3) and level 5 (asynchronous JMS updates, §4.5), and shows:

* what the *writer* pays (blocked vs immediate),
* what an edge reader sees immediately after the commit,
* when the replicas converge.

Run:  python examples/rubis_consistency.py
"""

from repro.apps.rubis import build_application, populate_rubis
from repro.core import PatternLevel, distribute
from repro.middleware.web import WebRequest, http_get
from repro.simnet import Environment, Streams, build_testbed
from repro.simnet.topology import TestbedConfig

ITEM_ID = 42


def build(level):
    streams = Streams(99)
    database, catalog = populate_rubis(streams)
    env = Environment()
    testbed = build_testbed(env, TestbedConfig(db_colocated=True))
    system = distribute(
        env, testbed, build_application(catalog=catalog), level, database
    )
    system.warm_replicas()
    return env, system, catalog


def run_scenario(level) -> None:
    env, system, catalog = build(level)
    edge = system.servers["edge1"]
    log = []

    def get(server, page, params, client, session="consistency"):
        request = WebRequest(page=page, params=dict(params), session_id=session,
                             client_node=client)
        response = yield from http_get(env, server, request)
        return response

    def bidder():
        # Bid from the main site: the write transaction runs on main.
        start = env.now
        response = yield from get(
            system.main, "Store Bid",
            {"user_id": 7, "item_id": ITEM_ID, "increment": 25.0},
            client="client-main-0",
        )
        log.append(("writer", f"Store Bid took {env.now - start:6.1f} ms, "
                              f"new price {response.data['amount']:.2f}"))
        committed.succeed(response.data["amount"])

    def edge_reader():
        amount = yield committed
        # Immediately after commit: what does the edge replica show?
        response = yield from get(
            edge, "Item", {"item_id": ITEM_ID}, client="client-edge1-0"
        )
        seen = response.data["summary"]["max_bid"]
        verdict = "FRESH" if seen == amount else f"stale ({seen:.2f})"
        log.append(("edge read +0 ms", verdict))
        yield env.timeout(500.0)
        response = yield from get(
            edge, "Item", {"item_id": ITEM_ID}, client="client-edge1-0",
            session="later",
        )
        seen = response.data["summary"]["max_bid"]
        verdict = "FRESH" if seen == amount else f"STILL STALE ({seen:.2f})"
        log.append(("edge read +500 ms", verdict))

    committed = env.event()
    env.process(bidder())
    env.process(edge_reader())
    env.run()

    from repro.core.patterns import level_name

    print(f"\n=== level {int(level)}: {level_name(level)} ===")
    for who, what in log:
        print(f"  {who:18s} {what}")


def main() -> None:
    print("Bidding on item", ITEM_ID, "and watching edge replicas ...")
    run_scenario(PatternLevel.STATEFUL_CACHING)   # §4.3: zero staleness
    run_scenario(PatternLevel.ASYNC_UPDATES)      # §4.5: eventual, fast writes
    print(
        "\nLevel 3 blocks the writer until every edge acknowledges (zero "
        "staleness); level 5 returns immediately and the first racing read "
        "may see the previous value until the JMS delivery lands."
    )


if __name__ == "__main__":
    main()
