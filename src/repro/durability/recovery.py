"""Crash recovery: rebuild a live store replica from snapshot + journal tail.

The recovery procedure and why it is sound (the full argument is the
design record in ``ROADMAP.md``):

1. **Snapshot first.**  The installed snapshot, when present, is decoded
   through the same kernel codecs that produced it -- each group's
   ``"CS"`` stream yields the trackers, the key table the values -- so
   the rebuilt trackers are *byte-identical* to the pre-crash ones
   (canonical codecs: equal bytes are equal clocks).  A snapshot failing
   its seal or structure raises :class:`~repro.core.errors.LogCorrupt`:
   there is no valid prefix to fall back to below a broken snapshot.
2. **Then the journal tail.**  Records are replayed in sequence order;
   each is the post-mutation state of one key, so replay is pure
   last-writer-wins assignment -- naturally idempotent.  Records whose
   sequence number the snapshot already covers are skipped, which is
   what makes a crash *between* snapshot installation and journal
   truncation harmless.
3. **Torn tails truncate, never poison.**  The log backend cuts the
   journal at the first record that fails its CRC seal and reports a
   typed :class:`~repro.durability.log.TailDamage`.  Whatever the tail
   carried still exists on the peers it was synced with; anti-entropy
   re-syncs the gap.  The one thing that can never happen is a damaged
   frame silently entering the rebuilt state.

The rebuilt replica reattaches to the same journal (sequence numbers
continue after the highest recovered), so recovery composes: crash,
recover, crash again, recover again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .. import kernel
from ..core.errors import LogCorrupt
from ..kernel.stream import decode_stream
from .log import DurableLog, TailDamage
from .records import (
    KIND_CLEAR,
    KIND_STATE,
    decode_record,
    decode_snapshot,
    decode_state_body,
    decode_value,
)
from .store import StoreJournal, open_log

__all__ = ["RecoveryReport", "rebuild", "recover_replica"]


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass found and did -- typed, never silent.

    ``tail`` is ``None`` for a clean shutdown; otherwise it describes the
    torn journal tail that was truncated away (and that anti-entropy will
    re-sync).  ``records_skipped`` counts journal records the snapshot
    already covered -- nonzero exactly when the pre-crash process died
    between installing a snapshot and truncating the journal.
    """

    snapshot_keys: int
    snapshot_groups: int
    records_replayed: int
    records_skipped: int
    clears_applied: int
    upto_seq: int
    last_seq: int
    tail: Optional[TailDamage]

    @property
    def clean(self) -> bool:
        """True when no damage was found (tail intact)."""
        return self.tail is None


def _rebuild_keys(log: DurableLog):
    """Replay snapshot + journal into ``{key: (values, clock-or-bytes,
    independent)}`` plus the bookkeeping the report needs."""
    from ..replication.store import KeyState

    keys = {}
    snapshot_keys = 0
    snapshot_groups = 0
    upto_seq = 0
    blob = log.read_snapshot()
    if blob is not None:
        upto_seq, groups = decode_snapshot(blob)
        snapshot_groups = len(groups)
        for group in groups:
            stream = decode_stream(group.stream)
            if len(stream) != len(group.records):
                raise LogCorrupt(
                    f"snapshot group carries {len(group.records)} keys but "
                    f"its stream holds {len(stream)} frames"
                )
            for index, record in enumerate(group.records):
                keys[record.key] = KeyState(
                    values=[decode_value(value) for value in record.values],
                    tracker=stream[index],
                    independently_created=record.independently_created,
                )
                snapshot_keys += 1

    replayed = skipped = clears = 0
    last_seq = upto_seq
    blobs, tail = log.replay()
    for record_blob in blobs:
        kind, seq, body = decode_record(record_blob)
        if seq > last_seq:
            last_seq = seq
        if seq <= upto_seq:
            skipped += 1
            continue
        if kind == KIND_CLEAR:
            keys.clear()
            clears += 1
            continue
        record = decode_state_body(body)
        if not record.present:
            keys.pop(record.key, None)
        else:
            keys[record.key] = KeyState(
                values=[decode_value(value) for value in record.values],
                tracker=kernel.from_bytes(record.tracker),
                independently_created=record.independently_created,
            )
        replayed += 1
    report = RecoveryReport(
        snapshot_keys=snapshot_keys,
        snapshot_groups=snapshot_groups,
        records_replayed=replayed,
        records_skipped=skipped,
        clears_applied=clears,
        upto_seq=upto_seq,
        last_seq=last_seq,
        tail=tail,
    )
    return keys, report


def rebuild(
    log: DurableLog,
    *,
    name: str,
    tracker_factory=None,
    policy=None,
    snapshot_every: Optional[int] = None,
) -> Tuple["StoreReplica", RecoveryReport]:
    """Rebuild a replica from an open log and reattach it for journaling.

    ``tracker_factory`` (for keys created *after* recovery) defaults to
    the family of the recovered state, falling back to version stamps for
    an empty store.
    """
    from ..replication.store import StoreReplica

    keys, report = _rebuild_keys(log)
    if tracker_factory is None:
        family = "version-stamp"
        for state in keys.values():
            family = state.tracker.family
            break
        tracker_factory = kernel.family(family).factory
    journal = StoreJournal(log, snapshot_every=snapshot_every)
    journal.next_seq = report.last_seq + 1
    # The tail recovery replayed is still on disk past the snapshot.
    journal.records_since_snapshot = report.records_replayed + report.clears_applied
    store = StoreReplica(
        name, tracker_factory=tracker_factory, policy=policy, journal=journal
    )
    store._keys.update(keys)
    return store, report


def recover_replica(
    path,
    *,
    name: str,
    backend: str = "file",
    tracker_factory=None,
    policy=None,
    fsync_every: Optional[int] = None,
    snapshot_every: Optional[int] = None,
) -> Tuple["StoreReplica", RecoveryReport]:
    """Open the durable log at ``path`` and rebuild its replica."""
    log = open_log(path, backend=backend, fsync_every=fsync_every)
    return rebuild(
        log,
        name=name,
        tracker_factory=tracker_factory,
        policy=policy,
        snapshot_every=snapshot_every,
    )
