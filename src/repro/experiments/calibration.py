"""Calibration: every cost constant behind the experiment suite.

The simulation reproduces the paper's *structure* exactly (call graphs,
round trips, blocking behaviour); absolute milliseconds additionally
depend on 2003-era CPU/JVM/DBMS speeds, which are condensed into the two
profiles below.

* **Pet Store** is the heavyweight application: JSP template framework,
  BMP entity beans, JBoss 2.4.4's older RMI stack (higher DGC overhead).
  The paper's baseline already includes its §3.4 modifications —
  ``ejbStore`` skipped on read-only transactions, the extra
  ``ejbFindByPrimaryKey`` database call removed — so those flags are off
  here and re-enabled only by the ablation benchmarks.
* **RUBiS** "is a significantly more lighter weight application":
  servlets render trivial pages, CMP 2.0 batches finder loads, JBoss
  3.0.3's RMI is leaner.

Values were fitted so that the centralized/local column lands in the
paper's range (Pet Store ~70-160 ms, RUBiS ~10-45 ms) and WAN effects
then follow from the network model; see EXPERIMENTS.md for the
paper-vs-measured comparison.
"""

from __future__ import annotations

from ..middleware.costs import MiddlewareCosts
from ..rdbms.server import DbCostModel
from ..simnet.topology import TestbedConfig
from ..workload.generator import WorkloadConfig

__all__ = [
    "PETSTORE_COSTS",
    "RUBIS_COSTS",
    "PETSTORE_DB_COSTS",
    "RUBIS_DB_COSTS",
    "petstore_testbed_config",
    "rubis_testbed_config",
    "default_workload",
    "SIM_DURATION_MS",
    "SIM_WARMUP_MS",
    "MASTER_SEED",
]

MASTER_SEED = 2003

# Simulated run length.  The paper ran ~1 hour; ten simulated minutes with
# a three-minute warm-up reaches the same steady state (caches warm, stub
# pools filled) at a practical wall-clock cost.
SIM_DURATION_MS = 600_000.0
SIM_WARMUP_MS = 180_000.0


PETSTORE_COSTS = MiddlewareCosts(
    servlet_base=6.0,
    page_render_per_kb=2.2,
    servlet_io_wait=38.0,
    local_call=0.05,
    bean_method_base=1.2,
    instance_creation=2.5,
    rmi_cpu=0.9,
    rmi_dgc_fraction=0.5,       # JBoss 2.4.4-era RMI: heavy DGC/ping traffic
    jms_publish_cpu=0.6,
    mdb_dispatch_cpu=0.5,
    ejb_load_cpu=0.35,
    ejb_store_cpu=0.35,
    bmp_find_extra_db_call=False,  # removed by the paper's baseline mods (§3.4)
    store_on_read_only_tx=False,   # likewise
    finder_loads_rows=False,       # BMP: the n+1 pattern stays
)

RUBIS_COSTS = MiddlewareCosts(
    servlet_base=1.2,
    page_render_per_kb=0.6,
    servlet_io_wait=4.0,
    local_call=0.03,
    bean_method_base=0.4,
    instance_creation=1.0,
    rmi_cpu=0.4,
    rmi_dgc_fraction=0.2,       # JBoss 3.0.3: leaner RMI stack
    jms_publish_cpu=0.3,
    mdb_dispatch_cpu=0.25,
    ejb_load_cpu=0.12,
    ejb_store_cpu=0.12,
    bmp_find_extra_db_call=False,
    store_on_read_only_tx=False,
    finder_loads_rows=True,        # CMP 2.0 finders batch row loads
)

# Oracle 8.1.7 on a dedicated dual-P3 (Pet Store tests).
PETSTORE_DB_COSTS = DbCostModel(
    statement_overhead=2.4,
    per_row_scanned=0.010,
    per_result_row=0.25,
    per_write=1.4,
    commit_overhead=1.2,
)

# MySQL 4.0.12 co-located with the main application server (RUBiS tests).
RUBIS_DB_COSTS = DbCostModel(
    statement_overhead=0.9,
    per_row_scanned=0.006,
    per_result_row=0.10,
    per_write=0.7,
    commit_overhead=0.5,
)


def petstore_testbed_config() -> TestbedConfig:
    """Dedicated Oracle workstation on the main LAN (§3.1)."""
    return TestbedConfig(db_colocated=False)


def rubis_testbed_config() -> TestbedConfig:
    """"we used a MySQL 4.0.12 database running on the same workstation
    as one of the application servers" (§3.1)."""
    return TestbedConfig(db_colocated=True)


def default_workload(
    duration_ms: float = SIM_DURATION_MS, warmup_ms: float = SIM_WARMUP_MS
) -> WorkloadConfig:
    """30 req/s combined, 80/20 browser/writer mix (§3.3)."""
    return WorkloadConfig(
        total_rate_per_s=30.0,
        browser_fraction=0.8,
        think_time_ms=7_000.0,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
    )
