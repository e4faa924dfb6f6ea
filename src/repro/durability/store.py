"""The store-side journaling layer: live key states in, sealed records out.

:class:`StoreJournal` sits between a
:class:`~repro.replication.store.StoreReplica` and a
:class:`~repro.durability.log.DurableLog`.  The store calls
:meth:`StoreJournal.record_key` after every accepted mutation (a local
write, a merge, a replication, a rollback) with the key's *post-mutation*
state; the journal turns it into one sealed record and buffers it on the
log.  :meth:`flush` is the durability barrier the replication layer
invokes at its sync boundaries (see the soundness record in
``ROADMAP.md``: the flush-at-sync-completion rule is what makes restoring
a journal safe under the paper's I2 invariant).

Compaction writes the whole live store as one snapshot --
**the snapshot is the bytes already shipped on the wire**: every tracker
serializes through its canonical envelope codec, grouped per
``(family, epoch)`` into the same batched ``"CS"`` streams the sync
engine ships, then the journal is truncated.  Epoch bumps are the natural
moment: right after :meth:`~repro.replication.synchronizer.AntiEntropy.
compact_key` re-roots a key, the old epoch's records describe identifier
space that no longer exists, so the store snapshots and drops them.

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


#: Envelope header prefixes (magic | version | family tag | epoch u32) by
#: ``(family, epoch)``.  The first 8 bytes of every envelope in one epoch
#: are identical, and journaling mostly sees *fresh* clocks (each merge
#: forks new objects) whose payload cache is warm but whose envelope was
#: never built -- so the hot path assembles the frame from the cached
#: prefix instead of re-running the registry lookup and field validation
#: ``encode_envelope`` performs.  A prefix is only cached after the full
#: validated path ran once for that ``(family, epoch)``, so anything a
#: fresh epoch could get wrong is still caught.
_ENVELOPE_PREFIXES = {}


def _tracker_bytes(key: str, tracker) -> bytes:
    clock = getattr(tracker, "clock", None)
    if isinstance(clock, KernelClock):
        wire = clock._wire
        if wire is not None:
            return wire
        prefix = _ENVELOPE_PREFIXES.get((clock.family, clock.epoch))
        if prefix is not None:
            payload = clock.payload_bytes()
            return prefix + len(payload).to_bytes(4, "big") + payload
        wire = clock.to_bytes()
        _ENVELOPE_PREFIXES[(clock.family, clock.epoch)] = wire[:8]
        return wire
    to_bytes = getattr(tracker, "to_bytes", None)
    if to_bytes is None:
        raise DurabilityError(
            f"key {key!r} is tracked by {type(tracker).__name__}, which has "
            f"no canonical byte form; durable stores need kernel trackers "
            f"(KernelTracker.factory(<family>))"
        )
    try:
        return to_bytes()
    except DurabilityError as exc:
        raise DurabilityError(f"cannot journal key {key!r}: {exc}") from exc


class StoreJournal:
    """Journal + compaction driver of one durable store replica.

    Parameters
    ----------
    log:
        The backing :class:`~repro.durability.log.DurableLog`.
    snapshot_every:
        Auto-compaction threshold: once this many records accumulate past
        the last snapshot, the next :meth:`maybe_snapshot` call compacts.
        ``None`` (default) compacts only when told to (epoch bumps and
        explicit calls).
    """

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
        #: Lifetime counters (benchmarks and reports).
        self.records_written = 0
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
        self.records_written += 1

    def record_clear(self) -> None:
        """Journal a whole-store clear (crash-stop ``reset()``)."""
        self.log.append(encode_record(KIND_CLEAR, self.next_seq, b""))
        self.next_seq += 1
        self.records_since_snapshot += 1
        self.records_written += 1

    def flush(self) -> None:
        """Commit buffered records -- the store layer's durability barrier."""
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
            clock = getattr(state.tracker, "clock", None)
            if clock is None:
                _tracker_bytes(key, state.tracker)  # raises the typed error
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

    def maybe_snapshot(self, store) -> bool:
        """Compact when the auto-compaction threshold has been reached."""
        if (
            self.snapshot_every is not None
            and self.records_since_snapshot >= self.snapshot_every
        ):
            self.snapshot(store)
            return True
        return False

    #: Bump-time snapshots amortize against the journal tail: one fires
    #: only once the tail holds this many records *per live key*.  A
    #: snapshot writes every key while a tail record replays one, so a
    #: factor of a few keeps snapshot work a small fraction of journal
    #: work even under re-rooting storms.
    BUMP_SNAPSHOT_FACTOR = 4

    def snapshot_on_bump(self, store) -> bool:
        """Compact at an epoch bump, amortized against the snapshot's cost.

        Epoch bumps are the natural truncation point (the old epoch's
        records describe identifier space that no longer exists), but a
        snapshot costs O(live keys) -- taking one at *every* bump makes
        frequent re-rooting quadratic.  So the bump only snapshots once
        the journal tail holds :data:`BUMP_SNAPSHOT_FACTOR` records per
        live key (i.e. replaying the tail clearly outweighs writing the
        snapshot), or sooner when ``snapshot_every`` is tighter.
        Correctness never depends on the snapshot happening: replay
        handles stale-epoch records by sequence number regardless.
        """
        threshold = self.BUMP_SNAPSHOT_FACTOR * max(1, len(store._keys))
        if self.snapshot_every is not None:
            threshold = min(threshold, self.snapshot_every)
        if self.records_since_snapshot >= threshold:
            self.snapshot(store)
            return True
        return False

    # -- lifecycle ---------------------------------------------------------

    def simulate_crash(self, *, torn_bytes: int = 0) -> None:
        """Forward a simulated crash to the log (uncommitted records die)."""
        self.log.simulate_crash(torn_bytes=torn_bytes)

    def close(self) -> None:
        self.log.close()
