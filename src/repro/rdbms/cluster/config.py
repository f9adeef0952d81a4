"""The ``data_tier`` policy block: sharding + replication as declared data.

The paper's placement policies stop at the application tier — the
database stays a single main-site process.  :class:`DataTierPolicy`
extends a :class:`~repro.core.policy.PlacementPolicy` with a declarative
description of how the *data tier itself* is distributed:

* **sharding** — which entity tables are hash partitioned, by which
  column, across how many shards;
* **replication** — how many copies each shard keeps (a raft group of
  that size), and whether reads go to the shard's leader or trade
  freshness for latency at a local replica (``read_mode``: ``leader`` /
  ``stale-local``).  The raft timing (heartbeat, election timeout) is
  fixed in :mod:`.raft`, not declared here.

Like the rest of the policy layer it is frozen, picklable and
JSON-round-trippable, and it is *absent by default*: a policy without a
``data_tier`` block runs today's single-instance database, byte-identical
to every earlier release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["DataTierError", "DataTierPolicy", "READ_MODES"]


class DataTierError(Exception):
    """Raised when a data-tier block is malformed."""


READ_MODES = ("leader", "stale-local")


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
    replication_factor: int = 1
    read_mode: str = "leader"

    # -- derived -------------------------------------------------------------
    @property
    def replicated(self) -> bool:
        return self.replication_factor > 1

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
        if self.shard_count > 1 and not self.shard_tables:
            errors.append("shard count > 1 but no tables declare a shard key")
        overlap = {name for name, _ in self.shard_tables} & set(self.global_tables)
        if overlap:
            errors.append(
                f"tables cannot be both sharded and global: {sorted(overlap)}"
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
        replication = {"factor": int(self.replication_factor), "read_mode": self.read_mode}
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
        unknown = set(shards) - {"count", "tables", "global_tables"}
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
        unknown = set(replication) - {"factor", "read_mode"}
        if unknown:
            raise DataTierError(
                f"unknown data_tier.replication keys: {sorted(unknown)}"
            )
        tier = cls(
            shard_count=int(shards.get("count", 1)),
            shard_tables=tuple(
                sorted((str(name), str(key)) for name, key in tables_raw.items())
            ),
            global_tables=tuple(shards.get("global_tables", ())),
            replication_factor=int(replication.get("factor", 1)),
            read_mode=str(replication.get("read_mode", "leader")),
        )
        return tier.validate()
