"""Click-style modular router elements.

The paper's testbed emulates the WAN with "a software router built with
the Click modular router infrastructure; traffic shaping components were
used to simulate 100 ms latency each way ... with 100 Mbit/s maximum
combined network bandwidth".  This module reproduces that structure: a
link's behaviour is an *element chain* — classifier, counters, bandwidth
shaper, fixed-delay — through which every message passes.

What is arithmetic
------------------

Every link :mod:`repro.simnet.network` builds carries the same chain,
counter -> shaper -> fixed delay, and none of the three needs to suspend
on its own: a counter adds, a :class:`BandwidthShaper` models its port
as a free-from timestamp (so a reservation is a comparison and an
addition, with no grant or release event), and a fixed delay is a
constant.  :meth:`ElementChain.hop_delay` therefore crosses that chain
without a generator and without a :class:`Packet`: it counts the
message, reserves the port, and returns queueing wait + transmission +
propagation as the one float the sender sleeps — one wheel entry and one
dispatch per hop.  It is the only place that arithmetic lives;
:meth:`ElementChain.traverse` and ``Network.transfer`` both call it.

The sum is taken as ``(wait + tx) + delay``, left to right, and added to
the clock once by the kernel.  Float addition is not associative, so
that order is part of the model: the golden tables were produced with
it, and ``tests/simnet/test_wait_path.py`` holds the method bit-equal to
the element-by-element code it replaced.

When a chain still walks its elements
-------------------------------------

Any chain that is not exactly that triple — an element spliced in by a
test or a fault experiment, a :class:`Classifier`, a
:class:`TokenBucketShaper` — makes ``hop_delay`` return ``None`` before
it has touched anything, and :meth:`ElementChain.traverse` walks the
elements: generator-based ones (``traverse(packet)`` yields simulation
events and returns when the packet exits) compose with ``yield from``,
instant ones (``apply(packet)``) run inline.  That path, a link with
active fault state, and direct use of a single element are the only
places a :class:`Packet` exists.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from .kernel import Environment, Event
from .rng import Streams

__all__ = [
    "Packet",
    "Element",
    "FixedDelay",
    "BandwidthShaper",
    "TokenBucketShaper",
    "Counter",
    "Classifier",
    "LossElement",
    "PacketLoss",
    "ElementChain",
]


class Packet:
    """A unit of network transfer.

    ``kind`` tags the protocol ("http", "rmi", "jdbc", "jms", "dgc") so
    classifiers and monitors can differentiate traffic, mirroring Click's
    header-based classification.  Built only where elements are walked
    one by one (see the module docstring); ``meta`` is the caller's
    dict, or ``None``.
    """

    __slots__ = ("src", "dst", "size", "kind", "created", "meta")

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        kind: str = "data",
        created: float = 0.0,
        meta: Optional[dict] = None,
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.kind = kind
        self.created = created
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, size={self.size!r}, "
            f"kind={self.kind!r}, created={self.created!r}, meta={self.meta!r})"
        )


class PacketLoss(Exception):
    """Raised when a loss element drops the traversing packet."""

    def __init__(self, packet: Packet):
        super().__init__(f"packet {packet.kind} {packet.src}->{packet.dst} dropped")
        self.packet = packet


class Element:
    """Base router element.  Subclasses override :meth:`traverse`.

    Elements that never suspend (counters, loss checks) set ``instant``
    and implement :meth:`apply`; :class:`ElementChain` calls ``apply``
    directly instead of driving an empty generator through the kernel.
    """

    name = "element"
    instant = False

    def traverse(self, packet: Packet) -> Generator[Event, Any, None]:
        """Pass ``packet`` through this element; yield kernel events."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator in subclasses' eyes

    def apply(self, packet: Packet) -> None:
        """Instant-element effect (only when ``instant`` is True)."""
        raise NotImplementedError


class FixedDelay(Element):
    """Adds a constant propagation latency (the WAN's 100 ms each way)."""

    name = "delay"

    def __init__(self, env: Environment, delay: float):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.env = env
        self.delay = delay
        self.instant = delay == 0

    def apply(self, packet: Packet) -> None:
        pass  # zero-delay: nothing to do

    def traverse(self, packet: Packet):
        if self.delay > 0:
            yield self.env.sleep(self.delay)


class BandwidthShaper(Element):
    """Serializes packets onto a fixed-rate output port.

    ``bandwidth`` is in bytes per millisecond.  Transmission of a packet
    occupies the port for ``size / bandwidth`` ms; packets queue FIFO
    behind one another, which is how shared-bandwidth contention appears.

    The port is modelled as a free-from timestamp rather than a held
    resource: a packet arriving at ``t`` starts transmitting at
    ``max(t, free_at)`` and pushes ``free_at`` forward by its
    transmission time.  Departure times are exactly those of a FIFO
    unit-capacity resource, but a reservation is pure arithmetic — no
    grant/release events per packet.
    """

    name = "shaper"

    def __init__(self, env: Environment, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth = bandwidth
        self._free_at = 0.0
        self._busy_time = 0.0
        self._started = env.now

    def transmission_delay(self, size: int) -> float:
        return size / self.bandwidth

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

    def traverse(self, packet: Packet):
        delay = self.occupy(packet.size)
        if delay > 0:
            yield self.env.sleep(delay)

    def utilization(self) -> float:
        elapsed = self.env.now - self._started
        if elapsed <= 0:
            return 0.0
        # Busy time accrues at reservation; subtract the part of the
        # backlog that has not transmitted yet at query time.
        pending = self._free_at - self.env.now
        busy = self._busy_time - pending if pending > 0 else self._busy_time
        return busy / elapsed


class TokenBucketShaper(Element):
    """Token-bucket rate limiter (rate bytes/ms, burst bytes).

    Unlike :class:`BandwidthShaper` this admits bursts up to the bucket
    depth at line rate, then throttles to the sustained rate.
    """

    name = "token-bucket"

    def __init__(self, env: Environment, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.env = env
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last_fill = env.now

    def _refill(self) -> None:
        now = self.env.now
        self._tokens = min(self.burst, self._tokens + (now - self._last_fill) * self.rate)
        self._last_fill = now

    def traverse(self, packet: Packet):
        self._refill()
        if packet.size <= self._tokens:
            self._tokens -= packet.size
            return
        deficit = packet.size - self._tokens
        self._tokens = 0.0
        wait = deficit / self.rate
        yield self.env.sleep(wait)
        self._refill()
        self._tokens = max(0.0, self._tokens - deficit)


class Counter(Element):
    """Counts packets and bytes, optionally per protocol kind."""

    name = "counter"
    instant = True

    def __init__(self):
        self.packets = 0
        self.bytes = 0
        self.by_kind: dict = {}

    def apply(self, packet: Packet) -> None:
        self.packets += 1
        self.bytes += packet.size
        stats = self.by_kind.setdefault(packet.kind, [0, 0])
        stats[0] += 1
        stats[1] += packet.size

    def traverse(self, packet: Packet):
        self.apply(packet)
        return
        yield  # pragma: no cover


class Classifier(Element):
    """Routes packets to one of several sub-chains by protocol kind.

    ``branches`` maps a kind to an :class:`ElementChain`; unmatched kinds
    take the ``default`` chain (which may be empty).
    """

    name = "classifier"

    def __init__(self, branches: dict, default: Optional["ElementChain"] = None):
        self.branches = dict(branches)
        self.default = default if default is not None else ElementChain([])

    def traverse(self, packet: Packet):
        chain = self.branches.get(packet.kind, self.default)
        yield from chain.traverse(packet)


class LossElement(Element):
    """Drops packets with a fixed probability (0 by default everywhere).

    The paper's emulated testbed is loss-free; this element exists for the
    failure-injection tests and the mutable-services experiments.
    """

    name = "loss"

    instant = True

    def __init__(self, probability: float, streams: Streams, stream_name: str = "loss"):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.streams = streams
        self.stream_name = stream_name
        self.dropped = 0

    def apply(self, packet: Packet) -> None:
        if self.probability > 0.0:
            draw = self.streams.get(self.stream_name).random()
            if draw < self.probability:
                self.dropped += 1
                raise PacketLoss(packet)

    def traverse(self, packet: Packet):
        self.apply(packet)
        return
        yield  # pragma: no cover


class ElementChain:
    """An ordered pipeline of elements a packet traverses in sequence."""

    def __init__(self, elements: List[Element]):
        self.elements = list(elements)

    def hop_delay(self, size: int, kind: str) -> Optional[float]:
        """Cross the canonical hop (counter -> shaper -> delay) by arithmetic.

        Counts the message (as ``Counter.apply`` does), reserves the
        shaper's port by timestamp (as ``BandwidthShaper.occupy`` does)
        and returns the one delay the sender must sleep: queueing wait
        plus transmission plus propagation, summed left to right as
        ``(wait + tx) + delay`` — see the module docstring for why the
        order matters.  Returns ``None``, having touched nothing, when
        the chain is not exactly that triple (``elements`` is re-read
        per call: tests and fault experiments splice elements in
        mid-run), and the caller walks the elements instead.
        """
        try:
            counter, shaper, delay = self.elements
        except ValueError:
            return None
        if (
            type(shaper) is not BandwidthShaper
            or type(counter) is not Counter
            or type(delay) is not FixedDelay
        ):
            return None
        counter.packets += 1
        counter.bytes += size
        try:
            stats = counter.by_kind[kind]
        except KeyError:
            stats = counter.by_kind[kind] = [0, 0]
        stats[0] += 1
        stats[1] += size
        now = shaper.env.now
        tx = size / shaper.bandwidth
        free_at = shaper._free_at
        shaper._busy_time += tx
        if free_at <= now:
            shaper._free_at = now + tx
            return tx + delay.delay
        shaper._free_at = free_at + tx
        return free_at - now + tx + delay.delay

    def traverse(self, packet: Packet) -> Generator[Event, Any, None]:
        delay = self.hop_delay(packet.size, packet.kind)
        if delay is not None:
            if delay > 0:
                yield delay
            return
        # Instant elements run inline instead of through an empty
        # generator.
        for element in self.elements:
            if element.instant:
                element.apply(packet)
            else:
                yield from element.traverse(packet)

    def find(self, element_type: type) -> Optional[Element]:
        """First element of the given type, or None."""
        for element in self.elements:
            if isinstance(element, element_type):
                return element
        return None
