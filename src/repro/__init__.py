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

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """A package's public names, each imported on first use (PEP 562).

    ``table`` maps every name to the submodule, relative to ``package``,
    that defines it; a name equal to its submodule's path is that
    submodule.  Returns the package's ``__getattr__``, ``__dir__`` and
    ``__all__``, so importing a package runs none of its submodules and
    a run loads only the code it selects.  A resolved name is stored in
    the package's namespace, so each is looked up once.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__, list(table)


__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DeployedSystem": "core.distribution",
    "distribute": "core.distribution",
    "PatternLevel": "core.patterns",
    "check_rules": "core.rules",
    "run_configuration": "experiments.runner",
    "run_series": "experiments.runner",
    "Environment": "simnet.kernel",
    "Streams": "simnet.rng",
    "build_testbed": "simnet.topology",
})
__all__.append("__version__")
