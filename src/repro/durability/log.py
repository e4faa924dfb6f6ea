"""The ``DurableLog`` interface and its plain-file backend.

A durable log is the persistence primitive of the store layer: an
**append-only journal** of sealed record blobs
(:mod:`repro.durability.records`) plus at most one **compacted snapshot**,
installed atomically.  The contract every backend honours:

* :meth:`DurableLog.append` *buffers*; :meth:`DurableLog.flush` is the
  commit point.  Records never committed are lost on a crash -- that is
  the deal, and the store layer places its flushes so that only purely
  local writes can sit in the window (see the recovery soundness record
  in ``ROADMAP.md``).
* ``fsync_every=N`` batches expensive device syncs: every Nth flush also
  fsyncs (``N=1`` is synchronous durability, the default ``None`` stops
  at the OS page cache, which survives process crashes -- the crash model
  of the simulation).
* :meth:`DurableLog.replay` returns every committed record blob whose
  seal verifies, **truncating the log to that valid prefix** when it
  finds damage: a torn tail is reported as a typed
  :class:`TailDamage`, never silently decoded and never fatal.  Damage
  that makes the artifact structurally unreadable (a snapshot failing its
  seal) raises :class:`~repro.core.errors.LogCorrupt` instead.  Each
  backend's replay is a read-only scan (:func:`scan_journal` here,
  :func:`~repro.durability.sqlite_log.scan_rows` for SQLite) followed by
  the truncation, and ``repro store inspect`` runs the same scan.
* :meth:`DurableLog.install_snapshot` replaces the snapshot and truncates
  the journal as one logical step, ordered so that a crash at *any*
  intermediate point recovers: the new snapshot lands atomically
  (temp-file + rename, or one SQLite transaction) before the journal
  shrinks, and journal records the snapshot already covers are skipped on
  replay by their sequence numbers.

Crash injection is first class rather than bolted on: `simulate_crash`
throws away everything after the last commit point (optionally tearing
the final committed write, like a sector that half-hit the platter), and
``crash_hook`` fires at the named points of a compaction so tests can
kill the process image between "snapshot installed" and "journal
truncated".
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.errors import DurabilityError, LogCorrupt
from .records import decode_record

__all__ = ["TailDamage", "DurableLog", "FileDurableLog", "CRASH_POINTS", "scan_journal"]

_LEN = struct.Struct(">I")

#: Named points at which ``crash_hook`` fires during a compaction.  A hook
#: that raises leaves the on-disk state exactly as it was at that point --
#: the two windows a mid-compaction crash can land in.
CRASH_POINTS = ("snapshot-written", "snapshot-installed")


@dataclass(frozen=True)
class TailDamage:
    """A journal tail that failed validation and was truncated away.

    ``offset`` is where the valid prefix ends, ``dropped_bytes`` how much
    was cut, ``reason`` the typed decode failure that condemned the first
    bad record.  The data is not lost to the *system*: whatever the tail
    carried still lives on the peers it was synchronized with, and
    anti-entropy re-syncs the gap -- the recovery layer reports the
    damage precisely so that nothing is ever silently accepted.
    """

    offset: int
    dropped_bytes: int
    reason: str


def scan_journal(data: bytes) -> Tuple[List[bytes], Optional[TailDamage]]:
    """Walk file-journal bytes: the seal-valid record blobs, then any damage.

    Read-only -- :meth:`FileDurableLog.replay` truncates at the returned
    :attr:`TailDamage.offset`, and ``repro store inspect`` reports it.
    """
    blobs: List[bytes] = []
    offset = 0
    reason: Optional[str] = None
    while offset < len(data):
        if offset + _LEN.size > len(data):
            reason = "torn length prefix at end of journal"
            break
        (length,) = _LEN.unpack_from(data, offset)
        start = offset + _LEN.size
        if start + length > len(data):
            reason = (
                f"record declares {length} bytes but only "
                f"{len(data) - start} remain (torn tail)"
            )
            break
        blob = data[start : start + length]
        try:
            decode_record(blob)
        except LogCorrupt as exc:
            reason = str(exc)
            break
        blobs.append(blob)
        offset = start + length
    if reason is None:
        return blobs, None
    return blobs, TailDamage(offset, len(data) - offset, reason)


class DurableLog:
    """Abstract interface of a durable journal + snapshot store.

    Concrete backends: :class:`FileDurableLog` (length-prefixed records in
    a plain file, snapshot as a sibling file) and
    :class:`~repro.durability.sqlite_log.SQLiteDurableLog` (one row per
    record).  Both store the *same sealed blobs*, so everything above this
    interface -- journaling, compaction, recovery -- is backend-agnostic.
    """

    #: Test hook fired at each named :data:`CRASH_POINTS` stage of a
    #: snapshot installation; raising from it simulates a mid-compaction
    #: crash with the on-disk state frozen at that point.
    crash_hook: Optional[Callable[[str], None]] = None

    def __init__(self, *, fsync_every: Optional[int] = None) -> None:
        if fsync_every is not None and fsync_every < 1:
            raise DurabilityError(
                f"fsync_every must be None or >= 1, got {fsync_every}"
            )
        self.fsync_every = fsync_every
        self._buffer: List[bytes] = []
        self._flushes_since_fsync = 0
        self.crash_hook = None

    # -- the append path ---------------------------------------------------

    def append(self, blob: bytes) -> None:
        """Buffer one sealed record blob; durable only after :meth:`flush`."""
        self._buffer.append(blob)

    def flush(self) -> None:
        """Commit every buffered record (the durability barrier)."""
        if self._buffer:
            blobs, self._buffer = self._buffer, []
            self._commit(blobs)
        if self.fsync_every is not None:
            self._flushes_since_fsync += 1
            if self._flushes_since_fsync >= self.fsync_every:
                self._flushes_since_fsync = 0
                self._fsync()

    @property
    def pending(self) -> int:
        """Buffered records not yet committed by :meth:`flush`."""
        return len(self._buffer)

    def _crash_point(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    # -- backend obligations ----------------------------------------------

    def _commit(self, blobs: List[bytes]) -> None:
        raise NotImplementedError

    def _fsync(self) -> None:
        raise NotImplementedError

    def replay(self) -> Tuple[List[bytes], Optional[TailDamage]]:
        """Every committed, seal-valid record blob, truncating bad tails."""
        raise NotImplementedError

    def read_snapshot(self) -> Optional[bytes]:
        """The installed snapshot blob, or ``None`` when never compacted."""
        raise NotImplementedError

    def install_snapshot(self, blob: bytes) -> None:
        """Atomically install ``blob`` as the snapshot, truncate the journal."""
        raise NotImplementedError

    def journal_bytes(self) -> int:
        """Committed journal size in bytes (monitoring and benchmarks)."""
        raise NotImplementedError

    def simulate_crash(self, *, torn_bytes: int = 0) -> None:
        """Drop everything after the last commit point, as a crash would.

        ``torn_bytes`` additionally tears that many bytes off the end of
        the *committed* journal, modelling a final write that only
        partially reached the device; recovery must truncate it away and
        report, never decode it.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileDurableLog(DurableLog):
    """Plain-file backend: ``journal.log`` + ``snapshot.bin`` in one directory.

    The journal frames each sealed record blob with a big-endian ``u32``
    length.  Snapshot installation is temp-file + ``os.replace`` (atomic on
    POSIX), *then* journal truncation -- a crash between the two leaves a
    snapshot plus a journal it entirely covers, which replay resolves by
    sequence number.
    """

    JOURNAL = "journal.log"
    SNAPSHOT = "snapshot.bin"
    _SNAPSHOT_TMP = "snapshot.tmp"

    def __init__(self, path, *, fsync_every: Optional[int] = None) -> None:
        super().__init__(fsync_every=fsync_every)
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        self._journal_path = os.path.join(self.path, self.JOURNAL)
        self._snapshot_path = os.path.join(self.path, self.SNAPSHOT)
        # Open for append, creating an empty journal on first use; reads
        # go through separate handles so the append offset never moves.
        # Unbuffered: a commit's single write() goes straight to the OS
        # page cache, which *is* the "survives a process crash" bar --
        # a Python-side buffer between commit and kernel would weaken
        # the barrier and cost an extra flush per commit.
        self._journal = open(self._journal_path, "ab", buffering=0)

    # -- appends -----------------------------------------------------------

    def _commit(self, blobs: List[bytes]) -> None:
        chunks = []
        for blob in blobs:
            chunks.append(_LEN.pack(len(blob)))
            chunks.append(blob)
        # One raw write per commit: past this point the records survive
        # a *process* crash (they sit in the OS page cache); surviving
        # power loss is what the fsync batching below buys.
        self._journal.write(b"".join(chunks))

    def _fsync(self) -> None:
        os.fsync(self._journal.fileno())

    def journal_bytes(self) -> int:
        self._journal.flush()
        try:
            return os.path.getsize(self._journal_path)
        except OSError:
            return 0

    # -- replay ------------------------------------------------------------

    def replay(self) -> Tuple[List[bytes], Optional[TailDamage]]:
        self._journal.flush()
        with open(self._journal_path, "rb") as handle:
            blobs, damage = scan_journal(handle.read())
        if damage is not None:
            self._truncate_to(damage.offset)
        return blobs, damage

    def _truncate_to(self, offset: int) -> None:
        self._journal.flush()
        with open(self._journal_path, "r+b") as handle:
            handle.truncate(offset)
        # The append handle's position is past the cut; reopen so new
        # records land right after the valid prefix.
        self._journal.close()
        self._journal = open(self._journal_path, "ab", buffering=0)

    # -- snapshots ---------------------------------------------------------

    def read_snapshot(self) -> Optional[bytes]:
        try:
            with open(self._snapshot_path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def install_snapshot(self, blob: bytes) -> None:
        tmp = os.path.join(self.path, self._SNAPSHOT_TMP)
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync_every is not None:
                os.fsync(handle.fileno())
        self._crash_point("snapshot-written")
        os.replace(tmp, self._snapshot_path)
        self._crash_point("snapshot-installed")
        self._truncate_to(0)

    # -- crash simulation --------------------------------------------------

    def simulate_crash(self, *, torn_bytes: int = 0) -> None:
        self._buffer.clear()
        self._journal.flush()
        if torn_bytes:
            size = os.path.getsize(self._journal_path)
            self._truncate_to(max(0, size - torn_bytes))
        self._journal.close()
        # A crashed process holds nothing open; reopen lazily on restart.
        self._journal = open(self._journal_path, "ab", buffering=0)

    def close(self) -> None:
        self.flush()
        self._journal.close()
