"""Deterministic random-number streams.

Every source of randomness in the simulation (client think-time jitter,
page selection, database execution-time noise, ...) draws from a named
stream derived from a single master seed.  Two runs with the same master
seed are identical; changing one subsystem's draw pattern does not perturb
the others.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["Streams"]


def _derive_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Streams:
    """A factory of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 2003):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """The stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    # -- convenience draws -------------------------------------------------
    def uniform(self, name: str, low: float, high: float) -> float:
        return self.get(name).uniform(low, high)

    def choice(self, name: str, items: Sequence[T]) -> T:
        return self.get(name).choice(items)

    def randint(self, name: str, low: int, high: int) -> int:
        return self.get(name).randint(low, high)
