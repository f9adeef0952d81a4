"""One link direction of the emulated WAN router.

The paper's testbed emulates the WAN with "a software router built with
the Click modular router infrastructure; traffic shaping components were
used to simulate 100 ms latency each way ... with 100 Mbit/s maximum
combined network bandwidth".  Every link direction here is that router's
fixed pipeline — a counter, a bandwidth shaper and a fixed propagation
delay — and :class:`Hop` is the three as one object.

Crossing a hop never suspends on its own: the counter adds, the shaper
models its output port as a free-from timestamp (a reservation is a
comparison and an addition, with no grant or release event), and the
delay is a constant.  :meth:`Hop.cross` therefore returns the one float
the sender sleeps — queueing wait + transmission + propagation — and
``Network.transfer`` yields it bare: one heap entry and one dispatch
per hop.

The sum is taken as ``(wait + tx) + delay``, left to right, and added to
the clock once by the kernel.  Float addition is not associative, so
that order is part of the model: the golden tables were produced with
it, and ``tests/simnet/test_wait_path.py`` holds :meth:`Hop.cross`
bit-equal to the element-by-element walk it replaced.
"""

from __future__ import annotations

from .kernel import Environment

__all__ = ["Hop", "PacketLoss"]

_INF = float("inf")


class PacketLoss(Exception):
    """Raised when a lossy link (``Link.set_loss``) drops a message."""

    def __init__(self, src: str, dst: str, kind: str):
        super().__init__(f"packet {kind} {src}->{dst} dropped")
        self.src = src
        self.dst = dst
        self.kind = kind


class Hop:
    """One link direction: counter -> FIFO bandwidth shaper -> fixed delay.

    ``bandwidth`` is in bytes per millisecond, ``delay`` the one-way
    propagation latency in ms.  The counter keeps ``packets``, ``bytes``
    and per-protocol ``by_kind[kind] = [packets, bytes]`` ("http",
    "rmi", "jdbc", "jms", "dgc").  The port transmits a message for
    ``size / bandwidth`` ms; messages queue FIFO behind one another,
    which is how shared-bandwidth contention appears.  A message arriving
    at ``t`` starts transmitting at ``max(t, free_at)`` and pushes
    ``free_at`` forward by its transmission time — exactly the departure
    times of a FIFO unit-capacity resource, without its events.
    """

    __slots__ = (
        "env", "bandwidth", "delay", "packets", "bytes", "by_kind",
        "_free_at", "_busy_time", "_started",
    )

    def __init__(self, env: Environment, bandwidth: float, delay: float):
        # Checked once here so that ``cross`` can only ever yield a finite,
        # non-negative delay (the comparisons also reject NaN).
        if not 0 < bandwidth < _INF:
            raise ValueError(f"bandwidth must be positive and finite: {bandwidth!r}")
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and non-negative: {delay!r}")
        self.env = env
        self.bandwidth = bandwidth
        self.delay = delay
        self.packets = 0
        self.bytes = 0
        self.by_kind: dict = {}
        self._free_at = 0.0
        self._busy_time = 0.0
        self._started = env.now

    def cross(self, size: int, kind: str) -> float:
        """Count the message, reserve the port, return the delay to sleep.

        The delay is queueing wait plus transmission plus propagation,
        summed as ``(wait + tx) + delay`` — see the module docstring for
        why the order matters.
        """
        self.packets += 1
        self.bytes += size
        try:
            stats = self.by_kind[kind]
        except KeyError:
            stats = self.by_kind[kind] = [0, 0]
        stats[0] += 1
        stats[1] += size
        now = self.env.now
        tx = size / self.bandwidth
        free_at = self._free_at
        self._busy_time += tx
        if free_at <= now:
            self._free_at = now + tx
            return tx + self.delay
        self._free_at = free_at + tx
        return free_at - now + tx + self.delay

    def utilization(self) -> float:
        """Share of the time since construction the port spent transmitting."""
        elapsed = self.env.now - self._started
        if elapsed <= 0:
            return 0.0
        # Busy time accrues at reservation; subtract the part of the
        # backlog that has not transmitted yet at query time.
        pending = self._free_at - self.env.now
        busy = self._busy_time - pending if pending > 0 else self._busy_time
        return busy / elapsed
