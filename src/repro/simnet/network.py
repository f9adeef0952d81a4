"""Nodes, links and routing: the emulated network fabric.

A :class:`Network` is a graph of named :class:`Node` objects joined by
:class:`Link` objects.  Each link direction is one
:class:`~repro.simnet.router.Hop` — counter, bandwidth shaper and fixed
delay, the paper's software-router pipeline — so latency and bandwidth
contention are per-direction, exactly as with that router.

The only public transfer primitive is :meth:`Network.transfer`, a
generator that moves a message of ``size`` bytes from ``src`` to ``dst``
along the statically routed shortest path and returns when the last byte
arrives.  Higher layers (HTTP, RMI, JDBC, JMS) are built on it.

The wait path
-------------

A page fetch crosses ``transfer`` four times (no keep-alive: SYN,
SYN-ACK, request, response) and charges a CPU about six times, so both
are kept to one generator frame and no allocation.  Per healthy hop,
``transfer`` calls :meth:`Hop.cross <repro.simnet.router.Hop.cross>` —
plain arithmetic over the hop's counter, port and delay — and yields
the returned float bare, which the kernel treats as "resume me that
many ms from now".  A link with active fault state takes
:meth:`Network._faulted_hop` instead, which draws partition, loss and
jitter around the same ``cross``.  :meth:`Node.compute` is a plain
function that hands back :meth:`Resource.use
<repro.simnet.primitives.Resource.use>`'s generator, so a CPU charge is
that one frame.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, Iterable, List, Tuple

from .kernel import Environment, Event
from .primitives import Resource
from .router import Hop, PacketLoss

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
        self.cpu = Resource(env, capacity=cpus)
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
    """A bidirectional link; each direction is its own :class:`Hop`."""

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
        self._hops: Dict[Tuple[str, str], Hop] = {
            (a.name, b.name): Hop(env, bandwidth, latency),
            (b.name, a.name): Hop(env, bandwidth, latency),
        }
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

    def hop(self, src: str, dst: str) -> Hop:
        """The ``src -> dst`` direction of this link."""
        try:
            return self._hops[(src, dst)]
        except KeyError:
            raise NetworkError(f"link {self.name} does not join {src}->{dst}") from None


class Network:
    """The network graph plus static shortest-path routing."""

    def __init__(self, env: Environment):
        self.env = env
        self.nodes: Dict[str, Node] = {}
        self._adjacency: Dict[str, List[Tuple[str, Link]]] = {}
        self._routes: Dict[Tuple[str, str], List[Link]] = {}
        self._path_latencies: Dict[Tuple[str, str], float] = {}
        # (src, dst) -> ordered (link, hop) pairs; saves re-deriving hop
        # direction on every transfer, and keeps the owning link at hand
        # for fault-state checks.
        self._route_hops: Dict[Tuple[str, str], List[Tuple[Link, Hop]]] = {}
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
        self._route_hops.clear()
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
    def _hops(self, src: str, dst: str) -> List[Tuple[Link, Hop]]:
        """The route's ordered (link, hop) pairs, derived once."""
        hops = []
        hop_src = src
        for link in self.route(src, dst):
            hop_dst = link.b.name if link.a.name == hop_src else link.a.name
            hops.append((link, link.hop(hop_src, hop_dst)))
            hop_src = hop_dst
        self._route_hops[(src, dst)] = hops
        return hops

    def transfer(
        self, src: str, dst: str, size: int, kind: str = "data"
    ) -> Generator[Event, None, None]:
        """Move ``size`` bytes from ``src`` to ``dst``.

        Each hop is store-and-forward: the caller resumes when the
        message has fully arrived at ``dst``.  A healthy hop is
        :meth:`Hop.cross` plus one bare-float yield.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if src == dst:
            # Loopback: same-node IPC is effectively free at this scale.
            return
        self.total_transfers += 1
        try:
            hops = self._route_hops[(src, dst)]
        except KeyError:
            hops = self._hops(src, dst)
        for link, hop in hops:
            if link.faulted:
                yield from self._faulted_hop(link, hop, src, dst, size, kind)
            else:
                delay = hop.cross(size, kind)
                if delay > 0:
                    yield delay

    def _faulted_hop(self, link: Link, hop: Hop, src: str, dst: str, size: int, kind: str):
        """One hop over a link with active fault state (cold path).

        Partition and loss are decided at hop entry — a message already
        past the hop when the fault begins is unaffected.  Loss and
        jitter draws come from the injector's named RNG streams, so runs
        are byte-identical for a given master seed regardless of worker
        count; fault-free links never draw at all.
        """
        if not link.up:
            raise LinkDown(link.name, src, dst, kind)
        if link.loss_probability > 0.0:
            if link._fault_rng.random() < link.loss_probability:
                link.dropped_packets += 1
                raise PacketLoss(src, dst, kind)
        delay = hop.cross(size, kind)
        if delay > 0:
            yield delay
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
                report[link.name] = {
                    f"{hop_src}->{hop_dst}": (hop.packets, hop.bytes)
                    for (hop_src, hop_dst), hop in link._hops.items()
                }
        return report
