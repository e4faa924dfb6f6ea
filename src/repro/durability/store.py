"""The store-side journaling layer: live key states in, sealed records out.

:class:`StoreJournal` sits between a
:class:`~repro.replication.store.StoreReplica` and a
:class:`~repro.durability.log.DurableLog`.  The store calls
:meth:`StoreJournal.record_key` after every accepted mutation (a local
write, a merge, a replication, a rollback) with the key's *post-mutation*
state; the journal turns it into one sealed record and buffers it on the
log.  Every mutation path then ends in the store's one durability barrier,
:meth:`~repro.replication.store.StoreReplica._flush_journal`, which
commits the buffer with :meth:`flush` (see the soundness record in
``ROADMAP.md``: the flush-at-sync-completion rule is what makes restoring
a journal safe under the paper's I2 invariant).

The same barrier bounds the journal: once the tail past the last snapshot
holds :attr:`StoreJournal.SNAPSHOT_FACTOR` records per live key (or
``snapshot_every`` records), it writes the whole live store as one
snapshot and truncates the journal -- **the snapshot is the bytes already
shipped on the wire**: every tracker serializes through its canonical
envelope codec, grouped per ``(family, epoch)`` into the same batched
``"CS"`` streams the sync engine ships.  So recovery replays a few
records per live key, never the whole history.

Only kernel-tracked stores can be durable: the dynamic-VV baseline
tracker has no byte form, and inventing a private pickle for it
would break the "snapshot = wire state" property the recovery proof
rests on.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..core.errors import DurabilityError
from ..kernel.clocks import KernelClock
from ..kernel.stream import encode_stream
from .log import DurableLog, FileDurableLog
from .records import (
    KIND_CLEAR,
    KeyRecord,
    SnapshotGroup,
    encode_key_state_record,
    encode_record,
    encode_snapshot,
    encode_value,
)

__all__ = ["StoreJournal", "open_log", "BACKENDS"]

BACKENDS = ("file", "sqlite")

#: Default database filename when the SQLite backend is given a directory.
SQLITE_FILENAME = "store.sqlite"


def open_log(
    path,
    *,
    backend: str = "file",
    fsync_every: Optional[int] = None,
) -> DurableLog:
    """Open (creating if needed) a durable log at ``path``.

    ``backend="file"`` treats ``path`` as a directory holding
    ``journal.log`` + ``snapshot.bin``; ``backend="sqlite"`` treats it as
    the database file (or, when it is an existing directory, places
    ``store.sqlite`` inside it, so both backends can share one store
    directory convention).
    """
    if backend == "file":
        return FileDurableLog(path, fsync_every=fsync_every)
    if backend == "sqlite":
        from .sqlite_log import SQLiteDurableLog

        target = os.fspath(path)
        if os.path.isdir(target):
            target = os.path.join(target, SQLITE_FILENAME)
        return SQLiteDurableLog(target, fsync_every=fsync_every)
    raise DurabilityError(
        f"unknown durable log backend {backend!r} (choose from {BACKENDS})"
    )


def _tracker_bytes(key: str, tracker) -> bytes:
    try:
        return tracker.to_bytes()
    except DurabilityError as exc:
        raise DurabilityError(f"cannot journal key {key!r}: {exc}") from exc


class StoreJournal:
    """Journal + compaction driver of one durable store replica.

    Parameters
    ----------
    log:
        The backing :class:`~repro.durability.log.DurableLog`.
    snapshot_every:
        Snapshot threshold in journal records past the last snapshot.
        ``None`` (default) scales it with the store:
        :attr:`SNAPSHOT_FACTOR` records per live key.
    """

    #: Tail records per live key that make the barrier snapshot.  A
    #: snapshot writes every key while a tail record replays one, so a
    #: factor of a few keeps snapshot work a small fraction of journal work.
    SNAPSHOT_FACTOR = 4

    def __init__(
        self, log: DurableLog, *, snapshot_every: Optional[int] = None
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise DurabilityError(
                f"snapshot_every must be None or >= 1, got {snapshot_every}"
            )
        self.log = log
        self.snapshot_every = snapshot_every
        #: Sequence number the next record will carry (monotonic).
        self.next_seq = 1
        #: Records journaled since the last installed snapshot.
        self.records_since_snapshot = 0
        #: Snapshots installed by this journal (benchmarks and reports).
        self.snapshots_written = 0

    # -- journaling --------------------------------------------------------

    def record_key(self, key: str, state) -> None:
        """Journal the post-mutation state of ``key`` (``None`` = removed)."""
        if state is None:
            blob = encode_key_state_record(self.next_seq, key, False, False, (), b"")
        else:
            blob = encode_key_state_record(
                self.next_seq,
                key,
                True,
                bool(state.independently_created),
                [encode_value(value) for value in state.values],
                _tracker_bytes(key, state.tracker),
            )
        self.log.append(blob)
        self.next_seq += 1
        self.records_since_snapshot += 1

    def record_clear(self) -> None:
        """Journal a whole-store clear (crash-stop ``reset()``)."""
        self.log.append(encode_record(KIND_CLEAR, self.next_seq, b""))
        self.next_seq += 1
        self.records_since_snapshot += 1

    def flush(self) -> None:
        """Commit buffered records (the commit step of the store's barrier)."""
        self.log.flush()

    # -- compaction --------------------------------------------------------

    def snapshot(self, store) -> int:
        """Compact ``store``'s live state into an installed snapshot.

        Returns the snapshot size in bytes.  Buffered records are
        committed first, so the snapshot's covered-sequence claim
        (everything below :attr:`next_seq`) is honest even if the
        installation crashes half way.
        """
        self.flush()
        groups = {}
        for key in sorted(store._keys):
            state = store._keys[key]
            clock = state.tracker
            if not isinstance(clock, KernelClock):
                _tracker_bytes(key, clock)  # raises the typed error
            record = KeyRecord(
                key=key,
                present=True,
                independently_created=bool(state.independently_created),
                values=tuple(encode_value(value) for value in state.values),
                tracker=b"",  # carried by the group stream instead
            )
            groups.setdefault((clock.family, clock.epoch), []).append(
                (record, clock)
            )
        encoded: List[SnapshotGroup] = []
        for (family_name, epoch), members in sorted(groups.items()):
            stream = encode_stream(
                [clock for _, clock in members],
                family_name=family_name,
                epoch=epoch,
            )
            encoded.append(
                SnapshotGroup(
                    records=tuple(record for record, _ in members),
                    stream=stream,
                )
            )
        blob = encode_snapshot(self.next_seq - 1, encoded)
        self.log.install_snapshot(blob)
        self.records_since_snapshot = 0
        self.snapshots_written += 1
        return len(blob)

    # -- lifecycle ---------------------------------------------------------

    def simulate_crash(self, *, torn_bytes: int = 0) -> None:
        """Forward a simulated crash to the log (uncommitted records die)."""
        self.log.simulate_crash(torn_bytes=torn_bytes)

    def close(self) -> None:
        self.log.close()
