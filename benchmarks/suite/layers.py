"""The suite's file -> layer map and the fold of a cProfile table onto it.

Layers are this repository's modules, named as ROADMAP names them.  The
map lives here, outside ``src/repro``, so the benchmark decides what a
layer is and a change to the program cannot move a file between layers
unnoticed: ``test_suite.py`` asserts every file under ``src/repro``
belongs to exactly one.

``fold_profile`` differs from ``repro.experiments.profile.
subsystem_attribution`` in one way that matters: self time and calls of
built-ins and stdlib functions are charged to the layer that called
them (through the ``pstats`` callers table) instead of to an
``interpreter`` bucket.  The kernel's ``list.sort`` is a fifth of
``session-herd``; a bucket named after the interpreter hides who pays.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

OTHER = "other"

# Files named one by one where a package holds several layers.
_FILES: Dict[str, Tuple[str, ...]] = {
    "simnet.kernel": ("simnet/kernel.py",),
    "simnet.net": (
        "simnet/__init__.py", "simnet/network.py", "simnet/router.py",
        "simnet/transport.py", "simnet/primitives.py", "simnet/topology.py",
        "simnet/monitor.py", "simnet/rng.py",
    ),
    "middleware.web": ("middleware/web.py",),
    "middleware.rmi": (
        "middleware/rmi.py", "middleware/marshalling.py",
        "middleware/naming.py", "middleware/resilience.py",
    ),
    "middleware.container": (
        "middleware/__init__.py", "middleware/server.py", "middleware/ejb.py",
        "middleware/entity.py", "middleware/session.py", "middleware/mdb.py",
        "middleware/context.py", "middleware/descriptors.py",
        "middleware/costs.py",
    ),
    "middleware.consistency": (
        "middleware/consistency.py", "middleware/readonly.py",
        "middleware/querycache.py", "middleware/updates.py",
    ),
    "middleware.jms": ("middleware/jms.py",),
    "rdbms.sql": ("rdbms/sql.py", "rdbms/compiler.py", "rdbms/expressions.py"),
    "rdbms.exec": (
        "rdbms/__init__.py", "rdbms/executor.py", "rdbms/plan.py",
        "rdbms/storage.py", "rdbms/bptree.py", "rdbms/stats.py",
        "rdbms/transactions.py", "rdbms/engine.py", "rdbms/lru.py",
        "rdbms/types.py", "rdbms/schema.py",
    ),
    "rdbms.wire": ("rdbms/jdbc.py", "rdbms/server.py"),
    "core": ("__init__.py",),
}

# Whole packages that are one layer.
_PACKAGES: Dict[str, str] = {
    "rdbms.cluster": "rdbms/cluster/",
    "workload": "workload/",
    "apps": "apps/",
    "core": "core/",
    "obs": "obs/",
    "faults": "faults/",
    "experiments": "experiments/",
}

LAYERS: Tuple[str, ...] = (
    "simnet.kernel", "simnet.net",
    "middleware.web", "middleware.rmi", "middleware.container",
    "middleware.consistency", "middleware.jms",
    "rdbms.sql", "rdbms.exec", "rdbms.wire", "rdbms.cluster",
    "workload", "apps", "core", "obs", "faults", "experiments",
)


def layers_matching(relpath: str) -> List[str]:
    """Every layer whose rule claims ``relpath`` (relative to ``src/repro``)."""
    found = [layer for layer, files in _FILES.items() if relpath in files]
    found += [
        layer for layer, prefix in _PACKAGES.items() if relpath.startswith(prefix)
    ]
    return found


_REPRO_MARKER = "/repro/"


def layer_of_filename(filename: str) -> Optional[str]:
    """Layer of a profiled filename; ``None`` for non-``repro`` code."""
    marker = filename.rfind(_REPRO_MARKER)
    if marker < 0:
        return None
    found = layers_matching(filename[marker + len(_REPRO_MARKER):])
    return found[0] if len(found) == 1 else OTHER


def function_key(func) -> Tuple[str, int, str]:
    """The ``pstats`` key of a Python function or method."""
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def fold_profile(stats) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": n}}`` over a ``pstats.Stats``.

    A ``repro`` function belongs to its file's layer.  Any other
    function (built-in, stdlib) is charged edge by edge to its callers:
    the callers table says how many of its calls and how much of its
    self time each caller caused.  A caller that is itself not ``repro``
    code passes the charge on in proportion to who called *it*; what
    reaches no ``repro`` caller (profiler frames) lands in ``other``.

    Keys are visited in sorted order and sums use ``math.fsum``: cProfile
    emits its table in an address-dependent order, and the call counts
    are compared exactly between runs.
    """
    table = stats.stats
    own_layer = {func: layer_of_filename(func[0]) for func in table}
    shares_memo: Dict[tuple, Dict[str, float]] = {}

    def caller_shares(func, path: frozenset) -> Tuple[Dict[str, float], bool]:
        """Layer distribution of who is responsible for calls to ``func``.

        ``path`` holds the functions already on this walk.  The second
        result says whether the walk saw every edge; one cut short by
        the cycle guard depends on ``path`` and is not memoized.
        """
        layer = own_layer.get(func)
        if layer is not None:
            return {layer: 1.0}, True
        if func in shares_memo:
            return shares_memo[func], True
        callers = table[func][4] if func in table else {}
        path = path | {func}
        # Recursive stdlib code (copy.deepcopy) calls itself: only the
        # edges that enter the cycle from outside say who pays.
        edges = sorted(
            (caller, entry[0]) for caller, entry in callers.items()
            if caller not in path
        )
        complete = len(edges) == len(callers)
        total = sum(ncalls for _caller, ncalls in edges)
        if not total:
            return {OTHER: 1.0}, complete
        parts: Dict[str, List[float]] = {}
        for caller, ncalls in edges:
            shares, whole = caller_shares(caller, path)
            complete = complete and whole
            for layer, share in shares.items():
                parts.setdefault(layer, []).append(share * ncalls / total)
        result = {layer: math.fsum(values) for layer, values in parts.items()}
        if complete:
            shares_memo[func] = result
        return result, complete

    self_parts: Dict[str, List[float]] = {}
    call_parts: Dict[str, List[float]] = {}

    def charge(shares: Dict[str, float], ncalls: float, tottime: float) -> None:
        for layer, share in shares.items():
            self_parts.setdefault(layer, []).append(tottime * share)
            call_parts.setdefault(layer, []).append(ncalls * share)

    for func in sorted(table):
        _cc, ncalls, tottime, _ct, callers = table[func]
        layer = own_layer[func]
        if layer is not None:
            charge({layer: 1.0}, ncalls, tottime)
            continue
        if not callers:
            charge({OTHER: 1.0}, ncalls, tottime)
            continue
        for caller in sorted(callers):
            edge_calls, _edge_cc, edge_tottime, _edge_ct = callers[caller]
            shares, _complete = caller_shares(caller, frozenset((func,)))
            charge(shares, edge_calls, edge_tottime)

    return {
        layer: {
            "self_s": math.fsum(self_parts.get(layer, ())),
            "calls": math.fsum(call_parts.get(layer, ())),
        }
        for layer in (*LAYERS, OTHER)
    }


def calls_of(stats, func) -> int:
    """How often the profile entered ``func`` (0 when it never ran).

    cProfile counts every resume of a generator frame as a call, so for
    generator functions this is entries plus resumes.
    """
    entry = stats.stats.get(function_key(func))
    return entry[1] if entry is not None else 0
