"""The session driver: the one process body behind both workload loops.

The paper's client emulator (§3.3) and its availability argument
("client requests can utilize several entry points into the service",
§1) are one behaviour — fetch a page, fail over to the main server, give
a broken session up — so it is written once, here.  What differs between
the closed and the open loop is *when sessions exist* and *how long a
user thinks*, and both arrive as values, not as a mode:

``sessions``
    An iterator of ``(session_id, visits)``.  Pulling an item starts a
    session; pulling the next one (or closing the iterator) ends it, so
    the iterator is where the generator keeps its session accounting
    (``admitted`` / ``active`` / ``completions``).
``think(elapsed, last, broken) -> delay``
    Milliseconds to wait after a visit that took ``elapsed`` ms, was the
    session's ``last``, or left the session ``broken``.
``deadline``
    No visit starts at or after this simulated time.

The driver owns everything else: the request, the failover, the lost-
visit classification, the one
:meth:`~repro.obs.store.MeasurementStore.observe` per served visit, and
the four counters of its owner, the
:class:`~repro.workload.generator.LoadGenerator` (``requests_sent``,
``errors``, ``failovers``, ``think_ms``) plus ``error_kinds``.  It is
the only caller of :func:`http_get` under ``workload/``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Tuple

from ..core.usage import PageVisit
from ..middleware.resilience import RETRYABLE_ERRORS, RmiTimeout
from ..middleware.rmi import AccessError
from ..middleware.web import ServerUnavailable, WebRequest, http_get
from ..rdbms.jdbc import JdbcError
from ..rdbms.transactions import TransactionError
from ..simnet.kernel import Environment, Event

__all__ = ["drive_sessions", "workload_counters"]

# Failures a browser reacts to by trying the other entry point: the
# server refusing connections, an RMI call beneath the page timing out,
# or the transport layer itself faulting mid-request.
_REQUEST_FAULTS = (ServerUnavailable, RmiTimeout) + RETRYABLE_ERRORS

# Application errors (a 500) that break the session.  The list is the
# kinds that reached the driver over every canned fault scenario, both
# apps and levels 1-6, the shipped policies and the test suite: R1's
# runtime refusal of a local-only component invoked across the WAN
# (AccessError, the replicas-one-edge policy), a row-lock wait timeout
# (TransactionError), a rollback on a JDBC connection that closed with
# its server (JdbcError), and Pet Store's beans refusing a session whose
# earlier visits were lost (ValueError: no signed-in customer, an empty
# order).  Anything else is a simulator bug and escapes the run.
_SESSION_FAULTS = (AccessError, TransactionError, JdbcError, ValueError)


def drive_sessions(
    env: Environment,
    owner,
    machine: str,
    group: str,
    sessions: Iterable[Tuple[str, List[PageVisit]]],
    think: Callable[[float, bool, bool], float],
    deadline: float,
    start_offset: float = 0.0,
) -> Generator[Event, None, None]:
    """Run ``sessions`` from ``machine`` as one simulation process.

    ``owner`` carries the deployment (``system``), the measurement
    ``store`` and the counters.
    """
    if start_offset > 0:
        yield start_offset
    system = owner.system
    # Fixed once distribute() returns, so asked once per process.
    server = system.entry_server_for(machine)
    observe = owner.store.observe
    for session_id, visits in sessions:
        last = len(visits) - 1
        for position, visit in enumerate(visits):
            if env.now >= deadline:
                return
            # The visit keeps its params as a flat (key, value, ...) tuple.
            params = dict(zip(visit.kv[::2], visit.kv[1::2]))
            request = WebRequest(
                page=visit.page,
                params=params,
                session_id=session_id,
                client_node=machine,
            )
            started = env.now
            # One page fetch with client-side failover: when the local
            # edge is down, fall back to the main server after the
            # connect timeout.  Session state lives on the failed edge,
            # so mid-session state is lost, but browse pages keep
            # working.  (Inlined rather than a helper generator: one less
            # frame per request and one less delegation hop for every
            # resume beneath it.)  ``lost`` names the exception class
            # that lost the visit — the name, not the exception, which
            # would pin this frame through its traceback.
            lost = None
            broken = False
            try:
                yield from http_get(env, server, request, client_group=group)
            except _REQUEST_FAULTS as fault:
                fallback = system.main
                if fallback is server or not fallback.available:
                    lost = type(fault).__name__
                else:
                    owner.failovers += 1
                    try:
                        yield from http_get(
                            env, fallback, request, client_group=group
                        )
                    except _REQUEST_FAULTS as second_fault:
                        lost = type(second_fault).__name__
                    except _SESSION_FAULTS as error:
                        # The fallback answered with an application
                        # error: conversational state (cart, bid drafts)
                        # lived on the faulted edge, so the replayed
                        # request is inconsistent there.
                        lost = type(error).__name__
                        broken = True
            except _SESSION_FAULTS as error:
                # The server itself answered with an application error (a
                # 500): under faults, earlier lost visits leave the
                # session's state inconsistent (e.g. committing a cart
                # whose additions never landed), and under overload a
                # transaction times out waiting for a row lock (a hot
                # item's bids queue behind each other).
                lost = type(error).__name__
                broken = True
            elapsed = env.now - started
            # Parked across the think, the frame keeps no request.
            request = params = None
            if lost is None:
                owner.requests_sent += 1
                observe(env.now, group, visit.page, elapsed)
            else:
                # Both entry points down, or the session is broken.
                owner.errors += 1
                kinds = owner.error_kinds
                kinds[lost] = kinds.get(lost, 0) + 1
            delay = think(elapsed, position == last, broken)
            if delay > 0:
                owner.think_ms += delay
                yield delay
            if broken:
                # The user gives up on this session.
                break


def workload_counters(owner) -> Dict[str, float]:
    """The cumulative counters the driver keeps on ``owner``, by metric name.

    Lost visits by kind appear only where non-zero, so a run that loses
    none names no kind.
    """
    counters = {
        "workload.requests": owner.total_requests(),
        "workload.errors": owner.errors,
    }
    for kind, count in sorted(owner.error_kinds.items()):
        counters[f"workload.errors.{kind}"] = count
    counters["workload.failovers"] = owner.failovers
    counters["workload.think_time_ms"] = owner.think_ms
    return counters
