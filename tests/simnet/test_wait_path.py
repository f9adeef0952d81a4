"""The simnet wait path vs literal copies of the implementation it replaced.

A link hop and a CPU charge are arithmetic plus one bare-float yield
(``Hop.cross``, ``Network.transfer``, ``Resource.use``).  The promise is
that no simulated timestamp and no event sequence number moved.  These
tests hold the wait path to it:

* the element pipeline a link direction used to be — ``Counter.apply``,
  ``BandwidthShaper.occupy`` and ``FixedDelay`` — and the
  ``Network.transfer`` / ``_faulted_hop`` / ``Node.compute`` that walked
  it with ``env.sleep`` events, plus the hold that ``Resource.use`` was
  before it became one frame (``Resource.request`` / ``Resource.release``
  with a grant callback), are kept below as references, and a hypothesis
  property replays one traffic plan through both — multi-hop routes over
  slow links (shaper contention), CPU charges on a one-CPU node (queued
  waiters) and partition / jitter / loss windows, all opening mid-run —
  requiring bit-equal arrival and charge logs, kernel sequence counts,
  link counters, and shaper and CPU utilization;
* machine-independent gates count Python-level calls with
  ``sys.setprofile``: a single-hop transfer may take 3 and an
  uncontended CPU charge 4, and nothing outside the kernel may assign
  ``env.now``.
"""

import ast
import random
import sys
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.middleware.context import InvocationContext
from repro.simnet.kernel import Environment
from repro.simnet.network import LinkDown
from repro.simnet.router import PacketLoss
from repro.simnet.topology import TestbedConfig, build_testbed

# ---------------------------------------------------------------------------
# References: the element pipeline and the bodies that walked it before a
# hop became arithmetic, as free functions over those elements.
# ---------------------------------------------------------------------------


class _Counter:
    def __init__(self):
        self.packets = 0
        self.bytes = 0
        self.by_kind: dict = {}

    def apply(self, packet) -> None:
        self.packets += 1
        self.bytes += packet.size
        stats = self.by_kind.setdefault(packet.kind, [0, 0])
        stats[0] += 1
        stats[1] += packet.size


class _BandwidthShaper:
    def __init__(self, env, bandwidth: float):
        self.env = env
        self.bandwidth = bandwidth
        self._free_at = 0.0
        self._busy_time = 0.0
        self._started = env.now

    def occupy(self, size: int) -> float:
        """Reserve the port FIFO; returns queueing wait + transmission time."""
        now = self.env.now
        tx = size / self.bandwidth
        free_at = self._free_at
        self._busy_time += tx
        if free_at <= now:
            self._free_at = now + tx
            return tx
        self._free_at = free_at + tx
        return free_at - now + tx

    def utilization(self) -> float:
        elapsed = self.env.now - self._started
        if elapsed <= 0:
            return 0.0
        pending = self._free_at - self.env.now
        busy = self._busy_time - pending if pending > 0 else self._busy_time
        return busy / elapsed


class _FixedDelay:
    def __init__(self, env, delay: float):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.env = env
        self.delay = delay


def _reference_chains(network):
    """Per link direction, the counter -> shaper -> delay triple."""
    return {
        (link.name, direction): (
            _Counter(),
            _BandwidthShaper(network.env, link.bandwidth),
            _FixedDelay(network.env, link.latency),
        )
        for link in _unique_links(network)
        for direction in link._hops
    }


def _reference_traverse(chain, packet):
    counter, shaper, delay = chain
    counter.apply(packet)
    total = shaper.occupy(packet.size) + delay.delay
    if total > 0:
        yield shaper.env.sleep(total)


def _reference_faulted_hop(network, link, chain, packet):
    if not link.up:
        raise LinkDown(link.name, packet.src, packet.dst, packet.kind)
    if link.loss_probability > 0.0:
        if link._fault_rng.random() < link.loss_probability:
            link.dropped_packets += 1
            raise PacketLoss(packet.src, packet.dst, packet.kind)
    yield from _reference_traverse(chain, packet)
    extra = link.extra_latency
    if link.latency_jitter > 0.0:
        extra += link._fault_rng.uniform(0.0, link.latency_jitter)
    if extra > 0.0:
        yield network.env.sleep(extra)


def _reference_transfer(network, chains, src, dst, size, kind="data"):
    if size < 0:
        raise ValueError("size must be non-negative")
    if src == dst:
        return
    network.total_transfers += 1
    packet = SimpleNamespace(src=src, dst=dst, size=size, kind=kind)
    hop_src = src
    for link in network.route(src, dst):
        hop_dst = link.b.name if link.a.name == hop_src else link.a.name
        chain = chains[(link.name, (hop_src, hop_dst))]
        if link.faulted:
            yield from _reference_faulted_hop(network, link, chain, packet)
        else:
            yield from _reference_traverse(chain, packet)
        hop_src = hop_dst


def _reference_account(resource):
    now = resource.env.now
    resource._busy_time += resource._busy * (now - resource._last_change)
    resource._last_change = now


def _reference_request(resource):
    """``Resource.request`` with every unit busy (the only way
    ``_reference_use`` calls it): an event that fires once a unit is
    granted, with the grant booked by a callback."""
    event = resource.env.event()
    resource._waiters.append(event)

    def _granted(_event):
        _reference_account(resource)
        resource._busy += 1

    event.add_callback(_granted)
    return event


def _reference_release(resource):
    """``Resource.release``: return one granted unit, FIFO hand-off."""
    _reference_account(resource)
    resource._busy -= 1
    if resource._waiters:
        resource._waiters.popleft().succeed()
    else:
        resource._free += 1


def _reference_use(resource, duration):
    if resource._free > 0 and not resource._waiters:
        resource._free -= 1
        _reference_account(resource)
        resource._busy += 1
    else:
        yield _reference_request(resource)
    try:
        yield resource.env.sleep(duration)
    finally:
        _reference_release(resource)


def _reference_compute(node, work_ms):
    if work_ms < 0:
        raise ValueError("work_ms must be non-negative")
    if work_ms == 0:
        return
    yield from _reference_use(node.cpu, work_ms / node.cpu_speed)


# ---------------------------------------------------------------------------
# Traffic plans
# ---------------------------------------------------------------------------

# Slow links, so a burst of messages queues behind the shaper ports: the
# largest message occupies a WAN port for 400 ms, a LAN port for 100 ms.
_CONFIG = TestbedConfig(wan_bandwidth=500.0, lan_bandwidth=2_000.0)
_ROUTES = [
    ("client-edge1-0", "main"),  # client -> edge -> WAN -> router -> main
    ("main", "client-edge1-0"),
    ("client-edge1-1", "edge1"),  # one LAN hop
    ("edge1", "main"),
    ("main", "edge2"),
    ("edge1", "edge2"),  # two WAN hops
    ("main", "db"),
    ("client-main-0", "db"),
    ("main", "main"),  # loopback
]
# The links a fault may hit, as adjacent node pairs.
_LINKS = [("edge1", "router"), ("main", "router"), ("client-edge1-0", "edge1")]

_gap = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=5).map(float),
    st.floats(min_value=1e-3, max_value=60.0, allow_nan=False),
)
_size = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2_000),
    st.integers(min_value=2_000, max_value=200_000),
)
_message = st.tuples(
    _gap, st.sampled_from(_ROUTES), _size, st.sampled_from(["http", "rmi", "jdbc", "data"])
)
_senders = st.lists(st.lists(_message, max_size=8), min_size=1, max_size=10)
# ``router`` has one CPU, so two overlapping charges queue a waiter.
_charge = st.tuples(
    _gap,
    st.sampled_from(["router", "router", "edge1", "main"]),
    st.one_of(
        st.just(0.0),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
    ),
)
_workers = st.lists(st.lists(_charge, max_size=6), max_size=10)
_action = st.tuples(
    st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
    st.sampled_from(
        ["down", "up", "jitter", "calm", "loss", "lossless", "sample"]
    ),
    st.sampled_from(_LINKS),
)
_actions = st.lists(_action, max_size=10)


def _unique_links(network):
    seen = []
    for entries in network._adjacency.values():
        for _neighbor, link in entries:
            if link not in seen:
                seen.append(link)
    return seen


def _replay(senders, workers, actions, reference):
    """Run one plan; everything observable about the run, as plain data."""
    env = Environment()
    network = build_testbed(env, _CONFIG).network
    fault_rng = random.Random(11)
    log = []
    if reference:
        chains = _reference_chains(network)

        def transfer(*args):
            return _reference_transfer(network, chains, *args)

        def counters(link, direction):
            counter, shaper, _delay = chains[(link.name, direction)]
            return counter, shaper

        hold = _reference_compute
    else:
        transfer = network.transfer

        def counters(link, direction):
            hop = link.hop(*direction)
            return hop, hop

        def hold(node, work):
            return node.compute(work)

    def sender(index, messages):
        for position, (gap, (src, dst), size, kind) in enumerate(messages):
            yield env.sleep(gap)
            try:
                yield from transfer(src, dst, size, kind)
                outcome = "arrived"
            except (LinkDown, PacketLoss) as error:
                outcome = type(error).__name__
            log.append(("message", index, position, outcome, env.now))

    def worker(index, charges):
        for position, (gap, node, work) in enumerate(charges):
            yield env.sleep(gap)
            started = env.now
            yield from hold(network.node(node), work)
            log.append(("charge", index, position, started, env.now))

    def observe():
        return [
            (
                link.name,
                direction,
                counter.packets,
                counter.bytes,
                list(counter.by_kind.items()),
                port.utilization(),
                link.dropped_packets,
            )
            for link in _unique_links(network)
            for direction in link._hops
            for counter, port in [counters(link, direction)]
        ] + [
            (name, node.cpu.utilization(), node.cpu._busy)
            for name, node in network.nodes.items()
        ]

    def controller():
        for time, action, (a, b) in sorted(actions):
            if time > env.now:
                yield env.sleep(time - env.now)
            link = network.link_between(a, b)
            if action == "down":
                link.set_down(True)
            elif action == "up":
                link.set_down(False)
            elif action == "jitter":
                link.set_latency_fault(3.0, 2.0, rng=fault_rng)
            elif action == "calm":
                link.clear_latency_fault()
            elif action == "loss":
                link.set_loss(0.3, fault_rng)
            elif action == "lossless":
                link.clear_loss()
            else:
                log.append(("sample", env.now, observe()))

    for index, messages in enumerate(senders):
        env.process(sender(index, messages))
    for index, charges in enumerate(workers):
        env.process(worker(index, charges))
    env.process(controller())
    env.run()
    return {
        "log": log,
        "now": env.now,
        "sequence": env.stats()["sequence"],
        "transfers": network.total_transfers,
        "final": observe(),
    }


@given(senders=_senders, workers=_workers, actions=_actions)
@settings(max_examples=150, deadline=None)
def test_wait_path_is_bit_equal_to_the_reference(senders, workers, actions):
    assert _replay(senders, workers, actions, reference=False) == _replay(
        senders, workers, actions, reference=True
    )


def test_the_plans_reach_contention_and_faults():
    """The property above is only as good as the paths its plans take."""
    burst = [(0.0, ("client-edge1-0", "main"), 100_000, "http")] * 3
    outcome = _replay(
        senders=[burst, burst, [(50.0, ("edge1", "main"), 10, "rmi")] * 6],
        workers=[[(0.0, "router", 20.0)] * 2] * 3,
        actions=[
            (10.0, "loss", ("edge1", "router")),
            (60.0, "down", ("main", "router")),
            (300.0, "up", ("main", "router")),
            (320.0, "sample", ("main", "router")),
        ],
        reference=False,
    )
    outcomes = {entry[3] for entry in outcome["log"] if entry[0] == "message"}
    assert {"arrived", "LinkDown", "PacketLoss"} <= outcomes
    # Six 20 ms charges on the router's one CPU: some queued behind it.
    holds = [entry[4] - entry[3] for entry in outcome["log"] if entry[0] == "charge"]
    assert len(holds) == 6 and max(holds) > 20.0
    shapers = [row[5] for row in outcome["final"] if len(row) == 7]
    assert max(shapers) > 0.5  # a port stayed busy: messages queued behind it


# ---------------------------------------------------------------------------
# Machine-independent cost gates
# ---------------------------------------------------------------------------


def _one_wait(make):
    """Drive ``make()``'s generator through its single wait by hand, as
    the kernel would, under ``sys.setprofile``.

    Returns the delay it yielded and the names of the Python-level
    frames entered or resumed meanwhile (built-ins raise ``c_call``
    events, which are not counted).
    """
    calls = []

    def profiler(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        generator = make()
        delay = next(generator)
        try:
            generator.send(None)
        except StopIteration:
            pass
        else:
            calls.append("<a second wait>")
    finally:
        sys.setprofile(previous)
    return delay, calls[1:]  # minus make's own frame


def test_a_single_hop_transfer_costs_three_python_calls(env, network):
    list(network.transfer("a", "b", 1_000, "http"))  # fill the route memo
    delay, calls = _one_wait(lambda: network.transfer("a", "b", 1_000, "http"))
    assert type(delay) is float and delay > 5.0
    # transfer entered, Hop.cross, transfer resumed.
    assert len(calls) <= 3, calls


def test_an_uncontended_cpu_charge_costs_four_python_calls(env, network):
    server = SimpleNamespace(node=network.node("a"), name="a")
    ctx = InvocationContext(env, server, request=None, costs=None)
    delay, calls = _one_wait(lambda: ctx.cpu(5.0))
    assert delay == 5.0
    # ctx.cpu, Node.compute, Resource.use entered, Resource.use resumed.
    assert len(calls) <= 4, calls
    assert list(ctx.cpu(0.0)) == []
    assert network.node("a").cpu._busy == 0


def test_only_the_kernel_assigns_the_clock():
    """``Environment.now`` is a plain slot: a stray write would move time."""
    root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() == "simnet/kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                        offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []
