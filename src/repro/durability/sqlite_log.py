"""SQLite backend of the :class:`~repro.durability.log.DurableLog` interface.

Stores the *same sealed record blobs* as the plain-file backend, one row
per record, so everything above the interface (journaling, compaction,
recovery, the corruption properties) runs unchanged over either backend.
What SQLite buys is its own write-ahead machinery: a commit is one
transaction, snapshot installation + journal truncation is **one atomic
transaction** (no rename/truncate window at all), and torn writes at the
device level are SQLite's problem rather than ours.

What it does *not* buy is trust: the per-record CRC seals are still
verified on replay.  A blob damaged inside the database (bit rot, a
hostile edit) condemns that record and everything after it exactly like
a torn file tail -- the valid prefix is kept, the rest is deleted and
reported as :class:`~repro.durability.log.TailDamage`, never silently
decoded.  Belt and braces: the log's integrity story never depends on
the container.  The walk is :func:`scan_rows`, which only reads; replay
deletes after it, and ``repro store inspect`` runs it over the rows
:func:`read_store` reads through a read-only connection.

``fsync_every`` maps onto ``PRAGMA synchronous``: ``None`` runs at
``OFF`` (commits reach the OS cache -- the process-crash model, same as
the file backend's default), any batching value runs at ``FULL`` so
every Nth flush is a device-durable checkpoint.
"""

from __future__ import annotations

import os
import sqlite3
from typing import List, Optional, Tuple
from urllib.parse import quote

from ..core.errors import DurabilityError, LogCorrupt
from .log import DurableLog, TailDamage
from .records import decode_record

__all__ = ["SQLiteDurableLog", "read_store", "scan_rows"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    id   INTEGER PRIMARY KEY AUTOINCREMENT,
    blob BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshot (
    id   INTEGER PRIMARY KEY CHECK (id = 1),
    blob BLOB NOT NULL
);
"""


def _snapshot(connection: sqlite3.Connection) -> Optional[bytes]:
    row = connection.execute("SELECT blob FROM snapshot WHERE id = 1").fetchone()
    return bytes(row[0]) if row is not None else None


def _journal_rows(connection: sqlite3.Connection) -> List[Tuple[int, bytes]]:
    return connection.execute("SELECT id, blob FROM journal ORDER BY id").fetchall()


#: Framing bytes counted per journal row: the u32 length prefix the file
#: journal writes before each record, so both backends count one unit.
_ROW_FRAME = 4


def _journal_bytes(connection: sqlite3.Connection) -> int:
    row = connection.execute(
        "SELECT COALESCE(SUM(LENGTH(blob) + ?), 0) FROM journal", (_ROW_FRAME,)
    ).fetchone()
    return int(row[0])


def read_store(path: str) -> Tuple[Optional[bytes], List[Tuple[int, bytes]], int]:
    """The snapshot blob, journal rows and journal bytes of the store at ``path``.

    Opens the database read-only (``mode=ro``): nothing is created,
    truncated or deleted, so a damaged store stays as it was found.  The
    path is percent-quoted into the URI: a raw ``#`` or ``?`` would end
    the path there and drop ``mode=ro``.
    """
    try:
        connection = sqlite3.connect(f"file:{quote(path)}?mode=ro", uri=True)
        try:
            return (
                _snapshot(connection),
                _journal_rows(connection),
                _journal_bytes(connection),
            )
        finally:
            connection.close()
    except sqlite3.DatabaseError as exc:
        raise DurabilityError(f"cannot read SQLite store {path!r}: {exc}") from exc


def scan_rows(
    rows: List[Tuple[int, bytes]],
) -> Tuple[List[bytes], Optional[TailDamage]]:
    """Walk journal rows ``(id, blob)``: the seal-valid blobs, then any damage.

    Read-only -- :meth:`SQLiteDurableLog.replay` deletes the damaged row
    and every row after it.  Offsets and dropped bytes count framed bytes,
    each row's blob plus its 4-byte length prefix, the unit
    :meth:`~SQLiteDurableLog.journal_bytes` and the file journal count:
    ``offset + dropped_bytes`` is the journal's size before the cut.
    """
    blobs: List[bytes] = []
    offset = 0
    for position, (_, blob) in enumerate(rows):
        try:
            decode_record(blob)
        except LogCorrupt as exc:
            dropped = sum(len(rest) + _ROW_FRAME for _, rest in rows[position:])
            return blobs, TailDamage(offset, dropped, str(exc))
        blobs.append(blob)
        offset += len(blob) + _ROW_FRAME
    return blobs, None


class SQLiteDurableLog(DurableLog):
    """One-file SQLite store of sealed journal records plus one snapshot."""

    def __init__(self, path, *, fsync_every: Optional[int] = None) -> None:
        super().__init__(fsync_every=fsync_every)
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._connection = self._connect()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path)
        connection.executescript(_SCHEMA)
        connection.commit()
        mode = "FULL" if self.fsync_every is not None else "OFF"
        connection.execute(f"PRAGMA synchronous = {mode}")
        return connection

    # -- appends -----------------------------------------------------------

    def _commit(self, blobs: List[bytes]) -> None:
        self._connection.executemany(
            "INSERT INTO journal (blob) VALUES (?)",
            [(sqlite3.Binary(blob),) for blob in blobs],
        )
        self._connection.commit()

    def _fsync(self) -> None:
        # Commits already ran at synchronous=FULL when fsync batching is
        # on; there is no separate device-sync step to perform.
        pass

    def journal_bytes(self) -> int:
        return _journal_bytes(self._connection)

    # -- replay ------------------------------------------------------------

    def replay(self) -> Tuple[List[bytes], Optional[TailDamage]]:
        rows = _journal_rows(self._connection)
        blobs, damage = scan_rows(rows)
        if damage is not None:
            # The scan stopped at row len(blobs): it and all later rows go.
            self._connection.execute(
                "DELETE FROM journal WHERE id >= ?", (rows[len(blobs)][0],)
            )
            self._connection.commit()
        return blobs, damage

    # -- snapshots ---------------------------------------------------------

    def read_snapshot(self) -> Optional[bytes]:
        return _snapshot(self._connection)

    def install_snapshot(self, blob: bytes) -> None:
        # One transaction installs the snapshot and truncates the journal
        # atomically; the crash hooks still fire (with an intermediate
        # commit between them) so mid-compaction crash tests can freeze
        # the same two windows the file backend has.
        self._crash_point("snapshot-written")
        self._connection.execute(
            "INSERT INTO snapshot (id, blob) VALUES (1, ?) "
            "ON CONFLICT (id) DO UPDATE SET blob = excluded.blob",
            (sqlite3.Binary(blob),),
        )
        if self.crash_hook is not None:
            # Split the transaction only when a crash test needs the
            # window to exist; production installs stay atomic.
            self._connection.commit()
            self._crash_point("snapshot-installed")
        self._connection.execute("DELETE FROM journal")
        self._connection.commit()

    # -- crash simulation --------------------------------------------------

    def simulate_crash(self, *, torn_bytes: int = 0) -> None:
        self._buffer.clear()
        self._connection.rollback()
        if torn_bytes:
            # Model a torn final write by shaving bytes off the last
            # committed blob: recovery must detect the broken seal,
            # drop the record and report, exactly as with a torn file.
            row = self._connection.execute(
                "SELECT id, blob FROM journal ORDER BY id DESC LIMIT 1"
            ).fetchone()
            if row is not None:
                row_id, blob = row
                torn = bytes(blob)[: max(0, len(bytes(blob)) - torn_bytes)]
                self._connection.execute(
                    "UPDATE journal SET blob = ? WHERE id = ?",
                    (sqlite3.Binary(torn), row_id),
                )
                self._connection.commit()
        self._connection.close()
        self._connection = self._connect()

    def close(self) -> None:
        self.flush()
        self._connection.close()
