"""The ``data_tier`` policy block: sharding + replication as declared data.

The paper's placement policies stop at the application tier — the
database stays a single main-site process.  :class:`DataTierPolicy`
extends a :class:`~repro.core.policy.PlacementPolicy` with a declarative
description of how the *data tier itself* is distributed:

* **sharding** — which entity tables are hash/range partitioned, by
  which column, across how many shards;
* **replication** — how many copies each shard keeps (a raft group of
  that size), and how reads trade latency against staleness
  (``read_mode``: ``leader`` / ``quorum`` / ``stale-local``).

Like the rest of the policy layer it is frozen, picklable and
JSON-round-trippable, and it is *absent by default*: a policy without a
``data_tier`` block runs today's single-instance database, byte-identical
to every earlier release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = ["DataTierError", "DataTierPolicy", "READ_MODES", "SHARD_STRATEGIES"]


class DataTierError(Exception):
    """Raised when a data-tier block is malformed."""


READ_MODES = ("leader", "quorum", "stale-local")
SHARD_STRATEGIES = ("hash", "range")


@dataclass(frozen=True)
class DataTierPolicy:
    """Declarative sharding + replication for the database tier.

    ``shard_tables`` maps partitioned tables to their shard-key column
    (stored as a sorted tuple of pairs so the dataclass stays hashable
    and canonical).  Tables named in ``global_tables`` — and any table
    not mentioned at all — are copied in full to every shard, so joins
    against reference data stay single-shard.
    """

    shard_count: int = 1
    shard_tables: Tuple[Tuple[str, str], ...] = ()
    global_tables: Tuple[str, ...] = ()
    strategy: str = "hash"
    # Ascending upper bounds for the range strategy (len == shard_count-1).
    range_splits: Tuple[Any, ...] = ()
    replication_factor: int = 1
    read_mode: str = "leader"
    heartbeat_ms: float = 75.0
    # Must comfortably exceed the heartbeat round trip *under load* (WAN
    # one-way latency is 100 ms and heartbeats queue behind page traffic),
    # or followers election-storm in steady state.
    election_timeout_ms: Tuple[float, float] = (1000.0, 2000.0)

    # -- derived -------------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Majority of a replica group (2 of 3, 3 of 5, ...)."""
        return self.replication_factor // 2 + 1

    @property
    def replicated(self) -> bool:
        return self.replication_factor > 1

    @property
    def sharded(self) -> bool:
        return self.shard_count > 1

    def shard_key(self, table: str) -> Optional[str]:
        """The shard-key column of ``table`` (None when not sharded)."""
        for name, key in self.shard_tables:
            if name == table:
                return key
        return None

    # -- validation ----------------------------------------------------------
    def validation_errors(self, seat_count: Optional[int] = None) -> List[str]:
        """Static contradictions in the block itself.

        ``seat_count`` — the number of database seats the topology offers
        (main site plus one per edge) — bounds the replication factor
        when known.
        """
        errors: List[str] = []
        if self.shard_count < 1:
            errors.append(f"shard count must be >= 1, got {self.shard_count}")
        if self.replication_factor < 1:
            errors.append(
                f"replication factor must be >= 1, got {self.replication_factor}"
            )
        if self.read_mode not in READ_MODES:
            errors.append(
                f"read_mode must be one of {list(READ_MODES)}, got {self.read_mode!r}"
            )
        if self.strategy not in SHARD_STRATEGIES:
            errors.append(
                f"strategy must be one of {list(SHARD_STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        if self.strategy == "range":
            expected = max(0, self.shard_count - 1)
            if len(self.range_splits) != expected:
                errors.append(
                    f"range strategy with {self.shard_count} shards needs "
                    f"{expected} split point(s), got {len(self.range_splits)}"
                )
        if self.shard_count > 1 and not self.shard_tables:
            errors.append("shard count > 1 but no tables declare a shard key")
        overlap = {name for name, _ in self.shard_tables} & set(self.global_tables)
        if overlap:
            errors.append(
                f"tables cannot be both sharded and global: {sorted(overlap)}"
            )
        if self.heartbeat_ms <= 0:
            errors.append(f"heartbeat_ms must be positive, got {self.heartbeat_ms}")
        lo, hi = self.election_timeout_ms
        if not (0 < lo <= hi):
            errors.append(
                f"election_timeout_ms must be an increasing positive pair, "
                f"got {self.election_timeout_ms}"
            )
        if lo <= self.heartbeat_ms:
            errors.append(
                "election timeout must exceed the heartbeat interval "
                f"({lo} <= {self.heartbeat_ms})"
            )
        if seat_count is not None and self.replication_factor > seat_count:
            errors.append(
                f"replication factor {self.replication_factor} exceeds the "
                f"{seat_count} database seat(s) this topology offers "
                f"(main site + one per edge)"
            )
        return errors

    def validate(self, seat_count: Optional[int] = None) -> "DataTierPolicy":
        errors = self.validation_errors(seat_count)
        if errors:
            raise DataTierError(
                "invalid data_tier block:\n  " + "\n  ".join(errors)
            )
        return self

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        shards: dict = {"count": int(self.shard_count)}
        if self.shard_tables:
            shards["tables"] = {name: key for name, key in self.shard_tables}
        if self.global_tables:
            shards["global_tables"] = list(self.global_tables)
        if self.strategy != "hash":
            shards["strategy"] = self.strategy
        if self.range_splits:
            shards["range_splits"] = list(self.range_splits)
        replication: dict = {
            "factor": int(self.replication_factor),
            "read_mode": self.read_mode,
        }
        if self.heartbeat_ms != 75.0:
            replication["heartbeat_ms"] = self.heartbeat_ms
        if self.election_timeout_ms != (1000.0, 2000.0):
            replication["election_timeout_ms"] = list(self.election_timeout_ms)
        return {"shards": shards, "replication": replication}

    @classmethod
    def from_json(cls, payload: dict) -> "DataTierPolicy":
        if not isinstance(payload, dict):
            raise DataTierError(f"data_tier must be an object, got {payload!r}")
        unknown = set(payload) - {"shards", "replication"}
        if unknown:
            raise DataTierError(f"unknown data_tier keys: {sorted(unknown)}")
        shards = payload.get("shards", {})
        if not isinstance(shards, dict):
            raise DataTierError(f"data_tier.shards must be an object, got {shards!r}")
        unknown = set(shards) - {
            "count", "tables", "global_tables", "strategy", "range_splits"
        }
        if unknown:
            raise DataTierError(f"unknown data_tier.shards keys: {sorted(unknown)}")
        tables_raw = shards.get("tables", {})
        if not isinstance(tables_raw, dict):
            raise DataTierError(
                "data_tier.shards.tables must map table names to shard-key columns"
            )
        replication = payload.get("replication", {})
        if not isinstance(replication, dict):
            raise DataTierError(
                f"data_tier.replication must be an object, got {replication!r}"
            )
        unknown = set(replication) - {
            "factor", "read_mode", "heartbeat_ms", "election_timeout_ms"
        }
        if unknown:
            raise DataTierError(
                f"unknown data_tier.replication keys: {sorted(unknown)}"
            )
        timeout_raw = replication.get("election_timeout_ms", (1000.0, 2000.0))
        try:
            lo, hi = timeout_raw
        except (TypeError, ValueError):
            raise DataTierError(
                f"election_timeout_ms must be a [lo, hi] pair, got {timeout_raw!r}"
            ) from None
        tier = cls(
            shard_count=int(shards.get("count", 1)),
            shard_tables=tuple(
                sorted((str(name), str(key)) for name, key in tables_raw.items())
            ),
            global_tables=tuple(shards.get("global_tables", ())),
            strategy=str(shards.get("strategy", "hash")),
            range_splits=tuple(shards.get("range_splits", ())),
            replication_factor=int(replication.get("factor", 1)),
            read_mode=str(replication.get("read_mode", "leader")),
            heartbeat_ms=float(replication.get("heartbeat_ms", 75.0)),
            election_timeout_ms=(float(lo), float(hi)),
        )
        return tier.validate()
