"""JNDI-style naming: the home-stub cache and the cost of a remote lookup.

Each application server's JNDI tree is its own ``containers`` table.
Resolving a component that lives elsewhere requires a remote lookup
against the authoritative (main) server's tree — a network round trip —
unless the *EJBHomeFactory* cache already holds the stub.
Caching home stubs "to avoid unnecessary trips to the JNDI tree" is one
of the paper's remote-façade optimizations (§4.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["HomeCache", "NamingError"]

JNDI_LOOKUP_REQUEST = 140
JNDI_LOOKUP_RESPONSE = 420  # a marshalled home stub


class NamingError(Exception):
    """Raised when a name cannot be resolved anywhere."""


class HomeCache:
    """EJBHomeFactory: memoizes resolved references per server.

    With the cache disabled (the ablation baseline), every ``lookup``
    re-resolves — and pays the remote round trip when the component's
    home is on another server.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cache: Dict[Any, Any] = {}  # keys are the resolver's own
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Optional[Any]:
        if self.enabled:
            try:
                ref = self._cache[key]
            except KeyError:
                pass
            else:
                self.hits += 1
                return ref
        self.misses += 1
        return None

    def put(self, key: Any, ref: Any) -> None:
        if self.enabled:
            self._cache[key] = ref

    def invalidate(self, key: Optional[Any] = None) -> None:
        if key is None:
            self._cache.clear()
        else:
            self._cache.pop(key, None)
