"""Header-only inspection of durable store artifacts (``repro store inspect``).

Answers "what is in this store directory?" -- backend, snapshot groups
(family, epoch, record count), journal record counts, sequence range,
the tail recovery would replay and CRC status -- **without decoding a
single clock payload or value**: snapshot groups are classified through
:func:`~repro.kernel.stream.stream_info` (the ``"CS"`` header peek) and
journal trackers through :func:`~repro.kernel.envelope_info` (the
``"CK"`` header peek).  Damage is part of the answer, not an obstacle to
it: a torn journal tail or a snapshot failing its seal is *described* in
the report instead of aborting the dump -- this is the tool one reaches
for exactly when a store looks broken.

Inspection is strictly read-only.  It walks the journal with the scans
the backends' ``replay`` runs before it truncates --
:func:`~repro.durability.log.scan_journal` over the file journal's bytes,
:func:`~repro.durability.sqlite_log.scan_rows` over rows read through a
read-only SQLite connection -- so it reports damage in recovery's words:
the reason and offset recovery would cut at, without cutting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.errors import DurabilityError, LogCorrupt
from ..kernel import envelope_info
from ..kernel.stream import stream_info
from .log import FileDurableLog, TailDamage, scan_journal
from .records import KIND_CLEAR, decode_record, decode_state_body, snapshot_streams
from .sqlite_log import read_store, scan_rows
from .store import SQLITE_FILENAME

__all__ = [
    "GroupInfo",
    "JournalInfo",
    "SnapshotInfo",
    "StoreInfo",
    "inspect_path",
    "format_report",
]

_SQLITE_MAGIC = b"SQLite format 3\x00"


@dataclass(frozen=True)
class GroupInfo:
    """One snapshot group, classified from its stream header alone."""

    family: str
    epoch: int
    keys: int
    stream_bytes: int


@dataclass(frozen=True)
class SnapshotInfo:
    present: bool
    bytes: int = 0
    crc_ok: bool = False
    upto_seq: int = 0
    groups: Tuple[GroupInfo, ...] = ()
    error: Optional[str] = None


@dataclass(frozen=True)
class JournalInfo:
    bytes: int
    records: int
    state_records: int
    clear_records: int
    first_seq: int
    last_seq: int
    #: ``family -> count`` of state-record trackers, from envelope headers.
    families: Tuple[Tuple[str, int], ...]
    #: Epochs seen across state-record trackers.
    epochs: Tuple[int, ...]
    #: Records recovery would replay (seq above the snapshot's covered
    #: seq) and records the snapshot covers, which it would skip.
    replayable: int
    covered: int
    #: Where the CRC-valid prefix ends, when damage was found.
    damage: Optional[str] = None
    damage_offset: int = 0


@dataclass(frozen=True)
class StoreInfo:
    path: str
    backend: str
    snapshot: SnapshotInfo
    journal: JournalInfo

    @property
    def healthy(self) -> bool:
        return (
            self.journal.damage is None
            and (not self.snapshot.present or self.snapshot.crc_ok)
        )


def _detect(path: str) -> Tuple[str, str]:
    """Resolve ``path`` to ``(backend, concrete path)``."""
    if os.path.isdir(path):
        sqlite_path = os.path.join(path, SQLITE_FILENAME)
        journal_path = os.path.join(path, FileDurableLog.JOURNAL)
        snapshot_path = os.path.join(path, FileDurableLog.SNAPSHOT)
        if os.path.exists(journal_path) or os.path.exists(snapshot_path):
            return "file", path
        if os.path.exists(sqlite_path):
            return "sqlite", sqlite_path
        raise DurabilityError(
            f"{path!r} holds neither a file-backend store "
            f"({FileDurableLog.JOURNAL}) nor a SQLite store ({SQLITE_FILENAME})"
        )
    if not os.path.exists(path):
        raise DurabilityError(f"no durable store at {path!r}")
    with open(path, "rb") as handle:
        head = handle.read(len(_SQLITE_MAGIC))
    if head == _SQLITE_MAGIC:
        return "sqlite", path
    raise DurabilityError(
        f"{path!r} is neither a store directory nor a SQLite store file"
    )


def _inspect_snapshot(blob: Optional[bytes]) -> SnapshotInfo:
    if blob is None:
        return SnapshotInfo(present=False)
    try:
        upto_seq, streams, seal_ok = snapshot_streams(blob)
    except LogCorrupt as exc:
        return SnapshotInfo(present=True, bytes=len(blob), error=str(exc))
    groups = []
    error = None
    for keys, stream in streams:
        try:
            info = stream_info(stream)
        except Exception as exc:  # typed EncodingError family in practice
            error = f"unreadable group stream header: {exc}"
            continue
        groups.append(
            GroupInfo(
                family=info.family,
                epoch=info.epoch,
                keys=keys,
                stream_bytes=len(stream),
            )
        )
    return SnapshotInfo(
        present=True,
        bytes=len(blob),
        crc_ok=seal_ok,
        upto_seq=upto_seq,
        groups=tuple(groups),
        error=error,
    )


def _scan_blobs(
    blobs, total_bytes, damage: Optional[TailDamage], upto_seq: int
) -> JournalInfo:
    records = state = clears = covered = 0
    first_seq = last_seq = 0
    families = {}
    epochs = set()
    for blob in blobs:
        kind, seq, body = decode_record(blob)
        records += 1
        if first_seq == 0:
            first_seq = seq
        last_seq = max(last_seq, seq)
        if seq <= upto_seq:
            covered += 1
        if kind == KIND_CLEAR:
            clears += 1
            continue
        state += 1
        record = decode_state_body(body)
        if record.tracker:
            info = envelope_info(record.tracker)
            families[info.family] = families.get(info.family, 0) + 1
            epochs.add(info.epoch)
    return JournalInfo(
        bytes=total_bytes,
        records=records,
        state_records=state,
        clear_records=clears,
        first_seq=first_seq,
        last_seq=last_seq,
        families=tuple(sorted(families.items())),
        epochs=tuple(sorted(epochs)),
        replayable=records - covered,
        covered=covered,
        damage=damage.reason if damage else None,
        damage_offset=damage.offset if damage else 0,
    )


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def inspect_path(path) -> StoreInfo:
    """Inspect the durable store at ``path`` (directory or SQLite file)."""
    backend, concrete = _detect(os.fspath(path))
    if backend == "file":
        snapshot_blob = _read(os.path.join(concrete, FileDurableLog.SNAPSHOT))
        data = _read(os.path.join(concrete, FileDurableLog.JOURNAL)) or b""
        journal_bytes = len(data)
        blobs, damage = scan_journal(data)
    else:
        snapshot_blob, rows, journal_bytes = read_store(concrete)
        blobs, damage = scan_rows(rows)
    snapshot = _inspect_snapshot(snapshot_blob)
    return StoreInfo(
        path=concrete,
        backend=backend,
        snapshot=snapshot,
        journal=_scan_blobs(blobs, journal_bytes, damage, snapshot.upto_seq),
    )


def format_report(info: StoreInfo) -> str:
    """Human-readable dump of one :class:`StoreInfo` (the CLI output)."""
    lines = [
        f"store:    {info.path}",
        f"backend:  {info.backend}",
        f"status:   {'healthy' if info.healthy else 'DAMAGED'}",
    ]
    snapshot = info.snapshot
    if not snapshot.present:
        lines.append("snapshot: none")
    else:
        seal = "ok" if snapshot.crc_ok else "FAILED"
        lines.append(
            f"snapshot: {snapshot.bytes} bytes, crc {seal}, "
            f"covers seq <= {snapshot.upto_seq}"
        )
        if snapshot.error:
            lines.append(f"  damage: {snapshot.error}")
        for group in snapshot.groups:
            lines.append(
                f"  group: family={group.family} epoch={group.epoch} "
                f"keys={group.keys} stream={group.stream_bytes}B"
            )
    journal = info.journal
    lines.append(
        f"journal:  {journal.bytes} bytes, {journal.records} records "
        f"({journal.state_records} state, {journal.clear_records} clear), "
        f"seq {journal.first_seq}..{journal.last_seq}"
    )
    lines.append(
        f"  tail: {journal.replayable} records to replay, "
        f"{journal.covered} covered by the snapshot (skipped)"
    )
    for family, count in journal.families:
        lines.append(f"  family: {family} x{count}")
    if journal.epochs:
        lines.append(f"  epochs: {', '.join(str(e) for e in journal.epochs)}")
    if journal.damage:
        lines.append(
            f"  damage: {journal.damage} (valid prefix ends at byte "
            f"{journal.damage_offset}; recovery would truncate here and "
            f"re-sync via anti-entropy)"
        )
    return "\n".join(lines)
