"""Shared retry/timeout vocabulary for the middleware's fault handling.

One module answers "which exceptions are transient network faults?" and
"how long is the Nth backoff?" so the RMI fabric, the JMS provider, the
update propagator and the workload clients all agree.  Everything here
is pure computation — no kernel events — so importing it costs nothing
in fault-free runs.
"""

from __future__ import annotations

from ..simnet.network import LinkDown
from ..simnet.router import PacketLoss
from ..simnet.transport import NodeUnavailable

__all__ = ["RmiTimeout", "RETRYABLE_ERRORS", "backoff_delay"]

# Transient transport-level failures worth retrying: a partitioned link,
# a lost packet, a pool refusing to dial a crashed node.  Application
# errors (BeanError, ContainerTransactionError, ...) are deliberately absent —
# retrying those would mask bugs, not faults.
RETRYABLE_ERRORS = (LinkDown, PacketLoss, NodeUnavailable)


class RmiTimeout(Exception):
    """A remote invocation exhausted its deadline or retry budget.

    ``__cause__`` carries the last underlying transport fault.
    """

    def __init__(self, target: str, method: str, src: str, dst: str, attempts: int):
        super().__init__(
            f"rmi {target}.{method} {src}->{dst} failed after "
            f"{attempts} attempt(s)"
        )
        self.target = target
        self.method = method
        self.src = src
        self.dst = dst
        self.attempts = attempts


def backoff_delay(base_ms: float, cap_ms: float, attempt: int) -> float:
    """Capped exponential backoff for the Nth retry (attempt >= 1)."""
    if attempt < 1:
        raise ValueError("attempt numbering starts at 1")
    return min(cap_ms, base_ms * (2.0 ** (attempt - 1)))
