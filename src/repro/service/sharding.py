"""Key-range sharding of the replicated key space.

One pairwise anti-entropy exchange decomposes per key: the engine's merge
of key ``k`` reads and writes only ``k``'s own state on the two stores
(:meth:`~repro.replication.store.StoreReplica._merge_key_states` and the
replication fork touch nothing else).  A whole-store sync is therefore
*exactly* equal to syncing each shard of the key space separately, as long
as each shard's exchanges stay ordered -- which is what lets the
datacenter-scale service parallelize one logical round across shards
with no cross-shard coordination at all.

:class:`KeyShards` defines the shards as contiguous ranges of the hashed
key space (CRC32, so the assignment is stable across processes, Python
versions and ``PYTHONHASHSEED``), and :func:`shard_keys` computes the
shard-restricted key list both the service and its synchronous
reference executor feed to ``WireSyncEngine.sync(..., keys=...)`` -- one
shared helper, so the two paths cannot drift.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Optional

from ..replication.store import StoreReplica

__all__ = ["KeyShards", "shard_keys"]


class KeyShards:
    """Deterministic assignment of keys to ``count`` hashed key ranges."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"need at least one shard, got {count}")
        self.count = count

    def shard_of(self, key: str) -> int:
        """The shard owning ``key``: its CRC32 bucketed into ``count`` ranges."""
        if self.count == 1:
            return 0
        return (zlib.crc32(key.encode("utf-8")) * self.count) >> 32

    def split(self, keys: Iterable[str]) -> List[List[str]]:
        """Partition ``keys`` into per-shard lists (each sorted)."""
        parts: List[List[str]] = [[] for _ in range(self.count)]
        for key in sorted(keys):
            parts[self.shard_of(key)].append(key)
        return parts


def shard_keys(
    first: StoreReplica,
    second: StoreReplica,
    shards: KeyShards,
    shard: int,
) -> Optional[List[str]]:
    """The keys of ``shard`` spanned by a sync of these two stores.

    ``None`` means "unrestricted" (single-shard configuration); an empty
    list means this shard has nothing to exchange and the session part can
    be skipped outright.  Computed fresh per shard part: keys an earlier
    part replicated onto a store belong to that earlier shard by
    definition, so the filter makes the evaluation order irrelevant.
    """
    if shards.count == 1:
        return None
    spanned = set(first._keys) | set(second._keys)
    return sorted(key for key in spanned if shards.shard_of(key) == shard)
