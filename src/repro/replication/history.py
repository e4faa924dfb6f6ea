"""Bounded recording of what each pairwise sync actually carried.

:class:`~repro.replication.synchronizer.AntiEntropy` keeps per-round
aggregates (:class:`~repro.replication.synchronizer.RoundReport`), but the
aggregates cannot answer the question a contract violation raises: *which
exchange should have carried this key's knowledge to that replica and
didn't?*  :class:`SyncHistory` is the opt-in answer -- a bounded ring
buffer (``collections.deque(maxlen=...)``) of per-exchange
:class:`ExchangeRecord` entries appended by
:meth:`~repro.replication.synchronizer.WireSyncEngine.session`:

* which pair of replicas exchanged,
* which keys completed the exchange (both sides share the combined
  knowledge afterwards),
* which keys were *lost* -- request leg dropped past the retry budget,
  response leg rolled back, or frame rejected at decode -- with the
  per-exchange fault counters (drops, retries, corruptions) that explain
  the loss,
* the gossip round number, when an :class:`~repro.replication.
  synchronizer.AntiEntropy` driver is marking rounds.

The buffer is bounded by construction: memory stays ``O(maxlen)`` no
matter how long a soak runs, at the price that provenance reconstruction
over evicted records reports itself truncated instead of guessing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Tuple

from ..core.errors import ReplicationError

__all__ = ["ExchangeRecord", "SyncHistory"]


@dataclass(frozen=True)
class ExchangeRecord:
    """What one pairwise sync exchange did, key by key.

    ``keys_synced`` lists the keys whose exchange completed -- after the
    session both replicas hold the combined causal knowledge for them
    (merged, replicated, or proven EQUAL).  ``keys_lost`` lists the keys
    the session *attempted* but could not complete, each with the reason:
    ``"request-lost"`` (the frames carrying the key never survived the
    retry budget), ``"response-lost"`` (the return leg died, both sides
    rolled back), or ``"rejected:<stage>: <why>"`` (a frame survived
    transport retries but failed decode).  The fault counters are this
    exchange's deltas on the engine meter, so a lost key sits next to the
    drops and retries that killed it.
    """

    seq: int
    round_number: Optional[int]
    first: str
    second: str
    keys_synced: Tuple[str, ...]
    keys_lost: Tuple[Tuple[str, str], ...]
    messages: int
    bytes_sent: int
    dropped: int
    duplicated: int
    retried: int
    corrupted: int
    deliveries_failed: int

    def involves(self, key: str) -> bool:
        """Whether this exchange attempted ``key`` at all."""
        return key in self.keys_synced or any(k == key for k, _ in self.keys_lost)

    def carried(self, key: str) -> bool:
        """Whether the exchange completed for ``key`` (knowledge shared)."""
        return key in self.keys_synced

    def lost_reason(self, key: str) -> Optional[str]:
        """Why ``key`` failed this exchange, or ``None`` if it did not."""
        for name, reason in self.keys_lost:
            if name == key:
                return reason
        return None


class SyncHistory:
    """A bounded ring buffer of :class:`ExchangeRecord` entries.

    Pass one as ``WireSyncEngine(history=...)`` and every completed
    session appends a record; :class:`~repro.replication.synchronizer.
    AntiEntropy` stamps the current round number onto records via
    :meth:`mark_round`.  ``maxlen`` bounds memory for arbitrarily long
    soaks -- :attr:`evicted` counts what the bound discarded, so
    provenance reconstruction can tell "no record" apart from "record
    rotated out".
    """

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen < 1:
            raise ReplicationError(
                f"sync history needs maxlen >= 1, got {maxlen}"
            )
        self.maxlen = maxlen
        self._records: Deque[ExchangeRecord] = deque(maxlen=maxlen)
        self._next_seq = 0
        #: Records discarded by the ring bound so far.
        self.evicted = 0
        #: The round number stamped on subsequent records (None outside
        #: a round-marking driver).
        self.current_round: Optional[int] = None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ExchangeRecord]:
        return iter(self._records)

    def records(self) -> List[ExchangeRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    @property
    def next_seq(self) -> int:
        """The sequence number the next recorded exchange will get.

        Contract checkers snapshot this when an operation is recorded, so
        provenance can walk exactly the exchanges that happened after it.
        """
        return self._next_seq

    def mark_round(self, round_number: int) -> None:
        """Stamp subsequent records with ``round_number``."""
        self.current_round = round_number

    def append(
        self,
        *,
        first: str,
        second: str,
        keys_synced: Tuple[str, ...],
        keys_lost: Tuple[Tuple[str, str], ...],
        messages: int,
        bytes_sent: int,
        dropped: int,
        duplicated: int,
        retried: int,
        corrupted: int,
        deliveries_failed: int,
    ) -> ExchangeRecord:
        """Append one exchange record (called by the sync engine)."""
        record = ExchangeRecord(
            seq=self._next_seq,
            round_number=self.current_round,
            first=first,
            second=second,
            keys_synced=keys_synced,
            keys_lost=keys_lost,
            messages=messages,
            bytes_sent=bytes_sent,
            dropped=dropped,
            duplicated=duplicated,
            retried=retried,
            corrupted=corrupted,
            deliveries_failed=deliveries_failed,
        )
        self._next_seq += 1
        if len(self._records) == self.maxlen:
            self.evicted += 1
        self._records.append(record)
        return record

    def since(self, seq: int, *, until: Optional[int] = None) -> List[ExchangeRecord]:
        """Retained records with ``seq <= record.seq < until``, in order."""
        return [
            record
            for record in self._records
            if record.seq >= seq and (until is None or record.seq < until)
        ]

    def __repr__(self) -> str:
        return (
            f"SyncHistory(len={len(self._records)}, maxlen={self.maxlen}, "
            f"evicted={self.evicted})"
        )
