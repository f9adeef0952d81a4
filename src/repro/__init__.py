"""repro — a reproduction of "Efficiently Distributing Component-Based
Applications Across Wide-Area Environments" (Llambiri, Totok, Karamcheti;
ICDCS 2003).

The package layers, bottom-up:

* :mod:`repro.simnet` — discrete-event simulation kernel, per-link
  network emulation, and the paper's 3-server + 9-client WAN testbed;
* :mod:`repro.rdbms` — an in-memory relational engine with a SQL subset
  and a JDBC-like remote access protocol;
* :mod:`repro.middleware` — a J2EE-style component middleware: EJB
  containers (stateless/stateful session, entity, message-driven), RMI,
  JNDI, JMS, servlets, read-only replication, and query caching;
* :mod:`repro.core` — the paper's contribution: pattern levels,
  placement policies, deployment planning (which tailors the extended
  descriptors to the policy) and design-rule checking;
* :mod:`repro.apps` — Java Pet Store and RUBiS built on the middleware;
* :mod:`repro.workload` — usage-pattern-driven client simulation;
* :mod:`repro.experiments` — the harness regenerating Tables 6/7 and
  Figures 7/8.

Quick start::

    from repro import PatternLevel, run_configuration
    result = run_configuration("rubis", PatternLevel.QUERY_CACHING)
    print(result.session_mean("remote-browser"))
"""

from .core import (
    DeployedSystem,
    PatternLevel,
    check_rules,
    distribute,
)
from .experiments import run_configuration, run_series
from .simnet import Environment, Streams, build_testbed

__version__ = "1.0.0"

__all__ = [
    "DeployedSystem",
    "check_rules",
    "PatternLevel",
    "distribute",
    "run_configuration",
    "run_series",
    "Environment",
    "Streams",
    "build_testbed",
    "__version__",
]
