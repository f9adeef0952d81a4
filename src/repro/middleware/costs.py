"""Middleware cost profile: CPU and protocol constants.

Every millisecond the middleware charges comes from this one dataclass,
so experiments can calibrate Pet Store (heavyweight: JSP template
framework, BMP entity beans, JBoss 2.4-era RMI) differently from RUBiS
(lightweight servlets, CMP 2.0, JBoss 3.0) — the paper's two
applications differ exactly this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MiddlewareCosts"]


@dataclass(frozen=True)
class MiddlewareCosts:
    """CPU times in ms; sizes in bytes; fractions dimensionless."""

    # -- web tier ------------------------------------------------------------
    servlet_base: float = 1.0          # request parsing, dispatch, session lookup
    page_render_per_kb: float = 0.15   # response generation cost per KB of HTML
    # Non-CPU per-request latency of the web stack (synchronous logging,
    # connection handling, JVM overheads): waits without occupying a CPU,
    # reconciling the paper's ~90 ms local pages with its <40% CPU load.
    servlet_io_wait: float = 0.0
    http_request_size: int = 420
    http_keep_alive: bool = False      # the paper did NOT use keep-alive

    # -- EJB container -------------------------------------------------------
    local_call: float = 0.05           # in-VM call through the container
    bean_method_base: float = 0.12     # interception/tx bookkeeping per method
    instance_creation: float = 0.8     # new bean instance (pool miss)
    stateful_passivation_threshold: int = 10_000

    # -- RMI -----------------------------------------------------------------
    rmi_marshal_base: int = 380        # serialized call header size
    rmi_marshal_per_arg: int = 24
    rmi_result_base: int = 260
    rmi_cpu: float = 0.35              # marshalling/unmarshalling CPU per side
    rmi_dgc_fraction: float = 0.5      # extra fractional RTT per call (DGC/pings)
    # The first call through a remote stub (rmi.RemoteRef) and each
    # un-cached remote JNDI lookup (AppServer.lookup) cost a round trip.

    # -- replica update propagation --------------------------------------------
    # §4.3 optimization: "transferring only the changes instead of the
    # entire bean's state (i.e., fields that were modified)".
    push_delta_only: bool = False

    # -- JMS -----------------------------------------------------------------
    jms_publish_cpu: float = 0.3
    jms_message_base: int = 420
    mdb_dispatch_cpu: float = 0.25

    # -- resilience ----------------------------------------------------------
    # Deadline/retry policy for remote invocations and JMS redelivery.
    # These only matter once the fault layer (repro.faults) disturbs the
    # network: a fault-free run never enters a retry or backoff path, so
    # the defaults change nothing in the paper-reproduction sweeps.
    rmi_timeout_ms: float = 3_000.0    # per-call deadline (matches the 2003-era
                                       # client connect timeout in the web tier)
    rmi_max_retries: int = 3
    rmi_backoff_base_ms: float = 50.0  # capped exponential: base * 2^(attempt-1)
    rmi_backoff_cap_ms: float = 2_000.0
    jms_max_redeliveries: int = 3      # then the message is dead-lettered
    jms_redelivery_backoff_ms: float = 500.0

    # -- persistence ---------------------------------------------------------
    ejb_load_cpu: float = 0.08
    ejb_store_cpu: float = 0.08
    # The paper's §3.4 baseline already removed the extra
    # ejbFindByPrimaryKey database call and the ejbStore at the end of
    # read-only transactions; ablations re-enable them.
    bmp_find_extra_db_call: bool = False
    store_on_read_only_tx: bool = False
    finder_loads_rows: bool = False       # CMP batches row loads into the finder

    def variant(self, **changes) -> "MiddlewareCosts":
        """A copy with the given fields replaced (profiles are immutable)."""
        return replace(self, **changes)
