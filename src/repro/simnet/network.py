"""Nodes, links and routing: the emulated network fabric.

A :class:`Network` is a graph of named :class:`Node` objects joined by
:class:`Link` objects.  Each link direction is an independent Click-style
element chain (counter -> bandwidth shaper -> fixed delay), so latency and
bandwidth contention are per-direction, exactly as with the paper's
software router.

The only public transfer primitive is :meth:`Network.transfer`, a
generator that moves a message of ``size`` bytes from ``src`` to ``dst``
along the statically routed shortest path and returns when the last byte
arrives.  Higher layers (HTTP, RMI, JDBC, JMS) are built on it.

The wait path
-------------

A page fetch crosses ``transfer`` four times (no keep-alive: SYN,
SYN-ACK, request, response) and charges a CPU about six times, so both
are kept to one generator frame and no allocation.  Per healthy hop,
``transfer`` calls :meth:`ElementChain.hop_delay
<repro.simnet.router.ElementChain.hop_delay>` — plain arithmetic over
the chain's counter, shaper and delay — and yields the returned float
bare, which the kernel treats as "resume me that many ms from now".
Simulated time is bit-identical to walking the elements because the
float is the same sum in the same order and is added to the clock once,
at the same point in the event sequence.  A
:class:`~repro.simnet.router.Packet` is built, once per transfer, only
when a hop cannot take that path: the link has active fault state
(:meth:`Network._faulted_hop`) or its chain is no longer the canonical
triple.  :meth:`Node.compute` is a plain function that hands back
:meth:`Resource.use <repro.simnet.primitives.Resource.use>`'s generator,
so a CPU charge is that one frame.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from .kernel import Environment, Event
from .primitives import Resource
from .router import BandwidthShaper, Counter, ElementChain, FixedDelay, Packet, PacketLoss

__all__ = ["Node", "Link", "Network", "NetworkError", "LinkDown"]


class NetworkError(Exception):
    """Raised for malformed topologies or unroutable transfers."""


class LinkDown(NetworkError):
    """Raised when a transfer hits a partitioned link.

    The fault-injection layer (:mod:`repro.faults`) partitions links for
    scheduled windows; any transfer whose route crosses a downed link
    fails at that hop.  Messages already past the hop complete normally —
    the partition severs new hops, not in-flight bytes.
    """

    def __init__(self, link_name: str, src: str, dst: str, kind: str):
        super().__init__(
            f"link {link_name} is down: cannot carry {kind} traffic {src}->{dst}"
        )
        self.link_name = link_name
        self.src = src
        self.dst = dst
        self.kind = kind


class Node:
    """A physical machine: hosts processes and owns CPU capacity.

    ``cpus`` models the testbed's dual-processor Pentium III workstations;
    compute work on the node serializes through the :attr:`cpu` resource.
    """

    def __init__(self, env: Environment, name: str, cpus: int = 2, cpu_speed: float = 1.0):
        if cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")
        self.env = env
        self.name = name
        self.cpu_speed = cpu_speed
        self.cpu = Resource(env, capacity=cpus, name=f"{name}.cpu")
        self.tags: set = set()

    def compute(self, work_ms: float) -> Iterable[Event]:
        """Occupy one CPU for ``work_ms`` (scaled by the node's speed).

        A plain function handing back :meth:`Resource.use`'s generator
        (``()`` for zero work) for the caller to ``yield from``, so a CPU
        charge runs in one generator frame.
        """
        if work_ms < 0:
            raise ValueError("work_ms must be non-negative")
        if work_ms == 0:
            return ()
        return self.cpu.use(work_ms / self.cpu_speed)

    def cpu_utilization(self) -> float:
        """Mean CPU utilization since simulation start (0..1)."""
        return self.cpu.utilization()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name}>"


class Link:
    """A bidirectional link; each direction has its own element chain."""

    def __init__(
        self,
        env: Environment,
        a: Node,
        b: Node,
        latency: float,
        bandwidth: float,
        name: str = "",
    ):
        """``latency`` in ms one-way; ``bandwidth`` in bytes/ms per direction."""
        self.env = env
        self.a = a
        self.b = b
        self.name = name or f"{a.name}<->{b.name}"
        self.latency = latency
        self.bandwidth = bandwidth
        self._chains: Dict[Tuple[str, str], ElementChain] = {}
        for src, dst in ((a.name, b.name), (b.name, a.name)):
            self._chains[(src, dst)] = ElementChain(
                [Counter(), BandwidthShaper(env, bandwidth), FixedDelay(env, latency)]
            )
        # -- fault-injection state (see repro.faults) --------------------
        # ``faulted`` is the single flag the transfer hot path checks; the
        # individual fields only matter once it is set, so fault-free runs
        # pay one attribute test per hop and nothing else.
        self.up = True
        self.extra_latency = 0.0
        self.latency_jitter = 0.0
        self.loss_probability = 0.0
        self.faulted = False
        self._fault_rng = None  # random.Random for jitter/loss draws
        self.dropped_packets = 0

    # -- fault state (driven by repro.faults.injector) ----------------------
    def _refresh_faulted(self) -> None:
        self.faulted = (
            not self.up
            or self.extra_latency > 0.0
            or self.latency_jitter > 0.0
            or self.loss_probability > 0.0
        )

    def set_down(self, down: bool = True) -> None:
        """Partition (or heal) the link in both directions."""
        self.up = not down
        self._refresh_faulted()

    def set_latency_fault(self, extra_ms: float, jitter_ms: float = 0.0, rng=None) -> None:
        """Add ``extra_ms`` (+- uniform ``jitter_ms``) to every hop."""
        if extra_ms < 0 or jitter_ms < 0:
            raise NetworkError("latency fault must be non-negative")
        if jitter_ms > 0 and rng is None:
            raise NetworkError("latency jitter needs a seeded rng")
        self.extra_latency = extra_ms
        self.latency_jitter = jitter_ms
        if rng is not None:
            self._fault_rng = rng
        self._refresh_faulted()

    def clear_latency_fault(self) -> None:
        self.extra_latency = 0.0
        self.latency_jitter = 0.0
        self._refresh_faulted()

    def set_loss(self, probability: float, rng) -> None:
        """Drop each crossing packet with ``probability`` (seeded draws)."""
        if not 0.0 <= probability <= 1.0:
            raise NetworkError("loss probability must be within [0, 1]")
        if probability > 0 and rng is None:
            raise NetworkError("packet loss needs a seeded rng")
        self.loss_probability = probability
        if rng is not None:
            self._fault_rng = rng
        self._refresh_faulted()

    def clear_loss(self) -> None:
        self.loss_probability = 0.0
        self._refresh_faulted()

    def chain(self, src: str, dst: str) -> ElementChain:
        try:
            return self._chains[(src, dst)]
        except KeyError:
            raise NetworkError(f"link {self.name} does not join {src}->{dst}") from None

    def counter(self, src: str, dst: str) -> Counter:
        element = self.chain(src, dst).find(Counter)
        assert element is not None
        return element


class Network:
    """The network graph plus static shortest-path routing."""

    def __init__(self, env: Environment):
        self.env = env
        self.nodes: Dict[str, Node] = {}
        self._adjacency: Dict[str, List[Tuple[str, Link]]] = {}
        self._routes: Dict[Tuple[str, str], List[Link]] = {}
        self._path_latencies: Dict[Tuple[str, str], float] = {}
        # (src, dst) -> ordered per-hop (link, chain) pairs; saves
        # re-deriving hop direction and chain lookups on every transfer,
        # and keeps the owning link at hand for fault-state checks.
        self._hop_chains: Dict[Tuple[str, str], List[Tuple[Link, ElementChain]]] = {}
        self.total_transfers = 0
        # The keep-alive HTTP ConnectionPool, created by http_get on
        # first use: it lives and dies with the network it pools for.
        self.http_pool = None

    # -- construction ------------------------------------------------------
    def add_node(self, name: str, cpus: int = 2, cpu_speed: float = 1.0) -> Node:
        if name in self.nodes:
            raise NetworkError(f"duplicate node name {name!r}")
        node = Node(self.env, name, cpus=cpus, cpu_speed=cpu_speed)
        self.nodes[name] = node
        self._adjacency[name] = []
        return node

    def add_link(self, a: str, b: str, latency: float, bandwidth: float, name: str = "") -> Link:
        if a not in self.nodes or b not in self.nodes:
            raise NetworkError(f"link endpoints must exist: {a!r}, {b!r}")
        if a == b:
            raise NetworkError("cannot link a node to itself")
        link = Link(self.env, self.nodes[a], self.nodes[b], latency, bandwidth, name=name)
        self._adjacency[a].append((b, link))
        self._adjacency[b].append((a, link))
        self._routes.clear()
        self._path_latencies.clear()
        self._hop_chains.clear()
        return link

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link_between(self, a: str, b: str) -> Link:
        """The direct link joining two adjacent nodes (fault targeting)."""
        for neighbor, link in self._adjacency.get(a, ()):
            if neighbor == b:
                return link
        raise NetworkError(f"no direct link between {a!r} and {b!r}")

    # -- routing -------------------------------------------------------------
    def route(self, src: str, dst: str) -> List[Link]:
        """The hop-minimal path from ``src`` to ``dst`` (cached)."""
        if src == dst:
            return []
        cached = self._routes.get((src, dst))
        if cached is not None:
            return cached
        # Breadth-first search over the (small) graph.
        previous: Dict[str, Tuple[str, Link]] = {}
        frontier = deque([src])
        seen = {src}
        while frontier:
            current = frontier.popleft()
            if current == dst:
                break
            for neighbor, link in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    previous[neighbor] = (current, link)
                    frontier.append(neighbor)
        if dst not in previous:
            raise NetworkError(f"no route from {src!r} to {dst!r}")
        path: List[Link] = []
        cursor = dst
        while cursor != src:
            parent, link = previous[cursor]
            path.append(link)
            cursor = parent
        path.reverse()
        self._routes[(src, dst)] = path
        return path

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of propagation latencies along the route (no queueing).

        Memoized per node pair — the topology is static once built and
        ``Testbed.is_wide_area`` asks on every traced call; ``add_link``
        clears the memo together with the route cache.
        """
        latency = self._path_latencies.get((src, dst))
        if latency is None:
            latency = sum(link.latency for link in self.route(src, dst))
            self._path_latencies[(src, dst)] = latency
        return latency

    # -- transfer --------------------------------------------------------------
    def _hops(self, src: str, dst: str) -> List[Tuple[Link, ElementChain]]:
        """The route's ordered per-hop (link, chain) pairs, derived once."""
        hops = []
        hop_src = src
        for link in self.route(src, dst):
            hop_dst = link.b.name if link.a.name == hop_src else link.a.name
            hops.append((link, link.chain(hop_src, hop_dst)))
            hop_src = hop_dst
        self._hop_chains[(src, dst)] = hops
        return hops

    def transfer(
        self,
        src: str,
        dst: str,
        size: int,
        kind: str = "data",
        meta: Optional[dict] = None,
    ) -> Generator[Event, None, None]:
        """Move ``size`` bytes from ``src`` to ``dst``.

        Store-and-forward over each hop: the caller resumes when the
        message has fully arrived at ``dst``.  A healthy canonical hop is
        :meth:`ElementChain.hop_delay` plus one bare-float yield; a
        :class:`Packet` (carrying ``meta``) is built only when a hop has
        to walk its elements or the link has active fault state.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if src == dst:
            # Loopback: same-node IPC is effectively free at this scale.
            return
        self.total_transfers += 1
        try:
            hops = self._hop_chains[(src, dst)]
        except KeyError:
            hops = self._hops(src, dst)
        created = self.env.now
        packet = None
        for link, chain in hops:
            delay = None if link.faulted else chain.hop_delay(size, kind)
            if delay is None:
                if packet is None:
                    packet = Packet(src, dst, size, kind, created, meta)
                if link.faulted:
                    yield from self._faulted_hop(link, chain, packet)
                else:
                    yield from chain.traverse(packet)
            elif delay > 0:
                yield delay

    def _faulted_hop(self, link: Link, chain: ElementChain, packet: Packet):
        """One hop over a link with active fault state (cold path).

        Partition and loss are decided at hop entry — a message already
        past the hop when the fault begins is unaffected.  Loss and
        jitter draws come from the injector's named RNG streams, so runs
        are byte-identical for a given master seed regardless of worker
        count; fault-free links never draw at all.
        """
        if not link.up:
            raise LinkDown(link.name, packet.src, packet.dst, packet.kind)
        if link.loss_probability > 0.0:
            if link._fault_rng.random() < link.loss_probability:
                link.dropped_packets += 1
                raise PacketLoss(packet)
        yield from chain.traverse(packet)
        extra = link.extra_latency
        if link.latency_jitter > 0.0:
            extra += link._fault_rng.uniform(0.0, link.latency_jitter)
        if extra > 0.0:
            yield self.env.sleep(extra)

    # -- monitoring ---------------------------------------------------------
    def traffic_report(self) -> Dict[str, Dict[str, tuple]]:
        """Per-link, per-direction (packets, bytes) counts."""
        report: Dict[str, Dict[str, tuple]] = {}
        seen = set()
        for entries in self._adjacency.values():
            for _neighbor, link in entries:
                if id(link) in seen:
                    continue
                seen.add(id(link))
                directions = {}
                for (dsrc, ddst), chain in link._chains.items():
                    counter = chain.find(Counter)
                    directions[f"{dsrc}->{ddst}"] = (counter.packets, counter.bytes)
                report[link.name] = directions
        return report
