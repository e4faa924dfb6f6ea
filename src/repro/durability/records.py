"""Byte-level codecs of the durable store: journal records and snapshots.

This module is deliberately *pure bytes*: it knows nothing about stores,
trackers or clocks, only how one key's durable state is framed, sealed
and read back.  The layers above
(:mod:`repro.durability.store` / :mod:`repro.durability.recovery`) convert
between these plain record values and live
:class:`~repro.replication.store.KeyState` objects.

Journal record
--------------
One record captures the post-mutation state of one key (or a whole-store
clear) and travels as a single sealed blob::

    offset  size  field
    ------  ----  -----------------------------------------------
         0     1  record kind (1 = key state, 2 = store clear)
         1     8  sequence number, big-endian unsigned
         9     .  kind-specific body
        -4     4  CRC32 over everything before it (the record seal)

The body of a key-state record::

    key length u16 | key (utf-8) | flags u8 | value count u16 |
    per value: length u32 + value-codec bytes |
    tracker length u32 | tracker wire envelope (the ``"CK"`` frame)

``flags`` bit 0 is the store's ``independently_created`` marker; bit 1
set means the key is *absent* (removed by a transactional rollback), in
which case no values or tracker follow.  The tracker bytes are exactly
what the key's clock's :meth:`~repro.kernel.clocks.KernelClock.to_bytes`
ships on the wire -- the snapshot and the sync path share one codec, so
durable state is proven canonical by the same tests that prove the wire
format.

Sequence numbers are issued monotonically by the journal; a snapshot
records the highest sequence it covers, so replay after a compaction
crash (snapshot installed, journal not yet truncated) skips the already
-covered prefix instead of regressing keys.

Snapshot
--------
A snapshot is the compacted whole-store state: the latest key records
grouped by ``(clock family, epoch)``, each group carrying its causal
metadata as **one batched ``"CS"`` stream** (:mod:`repro.kernel.stream`)
whose frame *i* belongs to key *i* of the group's key table::

    magic b"DS" | format version u8 | covered sequence u64 |
    group count u32 |
    per group: key-table length u32 | key table |
               stream length u32 | "CS" stream |
    CRC32 over everything before it

A key table is an entry count u32 followed by one entry per key, laid out
as a key-state body's key, flags and values fields; the tracker is the
key's frame in the group stream, and no entry may be absent.

Because the stream header names family, epoch and frame count on its
own, an inspection tool can classify a snapshot -- families, epochs,
record counts -- via :func:`~repro.kernel.stream.stream_info` without
decoding a single payload.

Every structural rejection is typed: :class:`~repro.core.errors.LogCorrupt`
for damaged framing or failed seals, :class:`~repro.core.errors.
DurabilityError` for misuse (oversized fields, unserializable values).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.errors import DurabilityError, LogCorrupt

__all__ = [
    "KIND_STATE",
    "KIND_CLEAR",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "KeyRecord",
    "SnapshotGroup",
    "encode_value",
    "decode_value",
    "encode_record",
    "decode_record",
    "encode_key_state_record",
    "encode_state_body",
    "decode_state_body",
    "encode_snapshot",
    "decode_snapshot",
    "snapshot_streams",
]

KIND_STATE = 1
KIND_CLEAR = 2

SNAPSHOT_MAGIC = b"DS"
SNAPSHOT_FORMAT_VERSION = 1

_FLAG_INDEPENDENT = 0x01
_FLAG_ABSENT = 0x02

_MAX_U16 = (1 << 16) - 1
_MAX_U32 = (1 << 32) - 1
_MAX_SEQ = (1 << 64) - 1

_CRC_BYTES = 4
_RECORD_HEADER = 9  # kind u8 + seq u64


def _crc(blob) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------


# One shared encoder: ``json.dumps(..., sort_keys=True)`` cannot reuse
# the module's cached default encoder and builds a fresh ``JSONEncoder``
# per call, which is measurable on the journal hot path.
_JSON_ENCODE = json.JSONEncoder(sort_keys=True).encode


def encode_value(value: object) -> bytes:
    """Serialize one sibling value (JSON by default -- honest and typed).

    The store holds arbitrary Python objects in memory; durability needs a
    byte form.  JSON covers every value the simulation layer writes
    (strings, numbers, ``None`` tombstones, lists/dicts of those); anything
    else is rejected with a typed :class:`DurabilityError` rather than
    pickled silently.
    """
    try:
        return _JSON_ENCODE(value).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DurabilityError(
            f"value {value!r} is not JSON-serializable; durable stores "
            f"need JSON-compatible values"
        ) from exc


def decode_value(blob: bytes) -> object:
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise LogCorrupt(f"undecodable value bytes in durable record: {exc}") from exc


# ---------------------------------------------------------------------------
# record values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyRecord:
    """The durable state of one key, as plain decoded data.

    ``present=False`` records a key removal (a transactional rollback that
    restored "never held"); ``values`` then is empty and ``tracker`` is
    ``b""``.  ``tracker`` is the key tracker's wire envelope, byte for
    byte what the sync path ships.
    """

    key: str
    present: bool
    independently_created: bool
    values: Tuple[bytes, ...]
    tracker: bytes


@dataclass(frozen=True)
class SnapshotGroup:
    """One ``(family, epoch)`` group of a decoded snapshot.

    ``records`` carry empty ``tracker`` fields -- the group's causal
    metadata lives in ``stream`` (one ``"CS"`` frame per record, same
    order), which the recovery layer decodes through the kernel.
    """

    records: Tuple[KeyRecord, ...]
    stream: bytes


# ---------------------------------------------------------------------------
# journal records
# ---------------------------------------------------------------------------


def _check_len(what: str, length: int, ceiling: int) -> int:
    if length > ceiling:
        raise DurabilityError(f"{what} of {length} bytes exceeds the wire field")
    return length


def encode_record(kind: int, seq: int, body: bytes) -> bytes:
    """Frame and seal one journal record."""
    if kind not in (KIND_STATE, KIND_CLEAR):
        raise DurabilityError(f"unknown record kind {kind}")
    if not 0 <= seq <= _MAX_SEQ:
        raise DurabilityError(f"sequence number {seq} exceeds the 64-bit field")
    head = bytes((kind,)) + seq.to_bytes(8, "big") + body
    return head + _crc(head).to_bytes(_CRC_BYTES, "big")


def decode_record(blob: bytes) -> Tuple[int, int, bytes]:
    """Unseal one record: ``(kind, seq, body)``; typed on any damage."""
    if len(blob) < _RECORD_HEADER + _CRC_BYTES:
        raise LogCorrupt(
            f"record of {len(blob)} bytes is shorter than its header and seal"
        )
    head, seal = blob[:-_CRC_BYTES], blob[-_CRC_BYTES:]
    if _crc(head) != int.from_bytes(seal, "big"):
        raise LogCorrupt("record failed its CRC seal")
    kind = head[0]
    if kind not in (KIND_STATE, KIND_CLEAR):
        raise LogCorrupt(f"record declares unknown kind {kind}")
    seq = int.from_bytes(head[1:9], "big")
    return kind, seq, head[_RECORD_HEADER:]


def encode_state_body(record: KeyRecord) -> bytes:
    """The key-state body of one journal record (without framing/seal)."""
    key_bytes = record.key.encode("utf-8")
    _check_len(f"key {record.key!r}", len(key_bytes), _MAX_U16)
    flags = 0
    if record.independently_created:
        flags |= _FLAG_INDEPENDENT
    parts = [len(key_bytes).to_bytes(2, "big"), key_bytes]
    if not record.present:
        parts.append(bytes((flags | _FLAG_ABSENT,)))
        return b"".join(parts)
    parts.append(bytes((flags,)))
    _check_len("value count", len(record.values), _MAX_U16)
    parts.append(len(record.values).to_bytes(2, "big"))
    for value in record.values:
        _check_len("value", len(value), _MAX_U32)
        parts.append(len(value).to_bytes(4, "big"))
        parts.append(value)
    _check_len("tracker envelope", len(record.tracker), _MAX_U32)
    parts.append(len(record.tracker).to_bytes(4, "big"))
    parts.append(record.tracker)
    return b"".join(parts)


def _write_key_entry(
    parts: List[bytes],
    key: str,
    present: bool,
    independent: bool,
    values: Tuple[bytes, ...],
) -> None:
    """Append one key entry -- key, flags and, when present, values.

    The layout both the journal's key-state body (which adds the tracker
    envelope after it) and the snapshot key table use.
    """
    key_bytes = key.encode("utf-8")
    _check_len(f"key {key!r}", len(key_bytes), _MAX_U16)
    flags = _FLAG_INDEPENDENT if independent else 0
    parts.append(len(key_bytes).to_bytes(2, "big"))
    parts.append(key_bytes)
    if not present:
        parts.append(bytes((flags | _FLAG_ABSENT,)))
        return
    parts.append(bytes((flags,)))
    _check_len("value count", len(values), _MAX_U16)
    parts.append(len(values).to_bytes(2, "big"))
    for value in values:
        _check_len("value", len(value), _MAX_U32)
        parts.append(len(value).to_bytes(4, "big"))
        parts.append(value)


_KIND_STATE_BYTE = bytes((KIND_STATE,))


def encode_key_state_record(
    seq: int,
    key: str,
    present: bool,
    independent: bool,
    values: Tuple[bytes, ...],
    tracker: bytes,
) -> bytes:
    """Fused framing of one key-state record, for the journal hot path.

    Byte-for-byte identical to
    ``encode_record(KIND_STATE, seq, encode_state_body(KeyRecord(...)))``
    (a unit test holds the two paths equal) but builds the sealed blob in
    a single pass -- no intermediate :class:`KeyRecord`, no separate body
    buffer -- which matters when every sync round journals a dozen
    records.
    """
    if not 0 <= seq <= _MAX_SEQ:
        raise DurabilityError(f"sequence number {seq} exceeds the 64-bit field")
    parts = [_KIND_STATE_BYTE, seq.to_bytes(8, "big")]
    _write_key_entry(parts, key, present, independent, values)
    if present:
        _check_len("tracker envelope", len(tracker), _MAX_U32)
        parts.append(len(tracker).to_bytes(4, "big"))
        parts.append(tracker)
    head = b"".join(parts)
    return head + _crc(head).to_bytes(_CRC_BYTES, "big")


class _Reader:
    """A bounds-checked cursor over one body's bytes (typed on overrun)."""

    __slots__ = ("_data", "_pos", "_what")

    def __init__(self, data: bytes, what: str) -> None:
        self._data = data
        self._pos = 0
        self._what = what

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise LogCorrupt(
                f"{self._what} truncated: needed {count} bytes at offset "
                f"{self._pos}, only {len(self._data) - self._pos} remain"
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def done(self) -> bool:
        return self._pos == len(self._data)

    def remaining(self) -> int:
        return len(self._data) - self._pos


def _read_key_entry(reader: _Reader, *, with_tracker: bool) -> KeyRecord:
    key_len = reader.uint(2)
    try:
        key = reader.take(key_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogCorrupt(f"record key is not valid utf-8: {exc}") from exc
    flags = reader.uint(1)
    if flags & ~(_FLAG_INDEPENDENT | _FLAG_ABSENT):
        raise LogCorrupt(f"record flags {flags:#x} set unknown bits")
    independent = bool(flags & _FLAG_INDEPENDENT)
    if flags & _FLAG_ABSENT:
        return KeyRecord(key, False, independent, (), b"")
    value_count = reader.uint(2)
    values = []
    for _ in range(value_count):
        values.append(bytes(reader.take(reader.uint(4))))
    tracker = b""
    if with_tracker:
        tracker = bytes(reader.take(reader.uint(4)))
    return KeyRecord(key, True, independent, tuple(values), tracker)


def decode_state_body(body: bytes) -> KeyRecord:
    """Decode a key-state body; every malformation is :class:`LogCorrupt`."""
    reader = _Reader(body, "key-state record")
    record = _read_key_entry(reader, with_tracker=True)
    if not reader.done():
        raise LogCorrupt(
            f"{reader.remaining()} trailing bytes after the key-state body"
        )
    return record


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def _encode_key_table(records: Tuple[KeyRecord, ...]) -> bytes:
    parts = [len(records).to_bytes(4, "big")]
    for record in records:
        # The table holds live keys only: every entry is written present.
        _write_key_entry(
            parts, record.key, True, record.independently_created, record.values
        )
    return b"".join(parts)


def _decode_key_table(blob: bytes) -> Tuple[KeyRecord, ...]:
    reader = _Reader(blob, "snapshot key table")
    records = []
    for _ in range(reader.uint(4)):
        record = _read_key_entry(reader, with_tracker=False)
        if not record.present:
            raise LogCorrupt(f"snapshot key table marks key {record.key!r} absent")
        records.append(record)
    if not reader.done():
        raise LogCorrupt(
            f"{reader.remaining()} trailing bytes after the snapshot key table"
        )
    return tuple(records)


def encode_snapshot(upto_seq: int, groups: List[SnapshotGroup]) -> bytes:
    """Frame and seal one compacted snapshot."""
    if not 0 <= upto_seq <= _MAX_SEQ:
        raise DurabilityError(f"sequence number {upto_seq} exceeds the 64-bit field")
    _check_len("snapshot group count", len(groups), _MAX_U32)
    parts = [
        SNAPSHOT_MAGIC,
        bytes((SNAPSHOT_FORMAT_VERSION,)),
        upto_seq.to_bytes(8, "big"),
        len(groups).to_bytes(4, "big"),
    ]
    for group in groups:
        table = _encode_key_table(group.records)
        _check_len("snapshot key table", len(table), _MAX_U32)
        _check_len("snapshot stream", len(group.stream), _MAX_U32)
        parts.append(len(table).to_bytes(4, "big"))
        parts.append(table)
        parts.append(len(group.stream).to_bytes(4, "big"))
        parts.append(group.stream)
    body = b"".join(parts)
    return body + _crc(body).to_bytes(_CRC_BYTES, "big")


def _snapshot_reader(blob: bytes, *, verify_seal: bool) -> Tuple[_Reader, int, int]:
    if len(blob) < 15 + _CRC_BYTES:
        raise LogCorrupt(f"snapshot of {len(blob)} bytes is shorter than its header")
    if blob[:2] != SNAPSHOT_MAGIC:
        raise LogCorrupt(
            f"bad snapshot magic {bytes(blob[:2])!r} (expected {SNAPSHOT_MAGIC!r})"
        )
    if blob[2] != SNAPSHOT_FORMAT_VERSION:
        raise LogCorrupt(f"unsupported snapshot format version {blob[2]}")
    if verify_seal:
        body, seal = blob[:-_CRC_BYTES], blob[-_CRC_BYTES:]
        if _crc(body) != int.from_bytes(seal, "big"):
            raise LogCorrupt("snapshot failed its CRC seal")
    reader = _Reader(blob[15:-_CRC_BYTES], "snapshot body")
    upto_seq = int.from_bytes(blob[3:11], "big")
    group_count = int.from_bytes(blob[11:15], "big")
    return reader, upto_seq, group_count


def decode_snapshot(blob: bytes) -> Tuple[int, List[SnapshotGroup]]:
    """Unseal a snapshot into ``(covered sequence, groups)``."""
    reader, upto_seq, group_count = _snapshot_reader(blob, verify_seal=True)
    groups = []
    for _ in range(group_count):
        table = _decode_key_table(bytes(reader.take(reader.uint(4))))
        stream = bytes(reader.take(reader.uint(4)))
        groups.append(SnapshotGroup(records=table, stream=stream))
    if not reader.done():
        raise LogCorrupt(
            f"{reader.remaining()} trailing bytes after the declared "
            f"{group_count} snapshot groups"
        )
    return upto_seq, groups


def snapshot_streams(blob: bytes) -> Tuple[int, List[Tuple[int, bytes]], bool]:
    """The header-only view: ``(covered seq, [(key count, stream)], seal ok)``.

    Walks the group framing without decoding key tables beyond their entry
    count and without touching any stream payload, so an inspection tool
    can feed each stream straight to
    :func:`~repro.kernel.stream.stream_info`.  The seal verdict is
    returned rather than raised so inspection can describe a damaged
    snapshot instead of refusing to look at it; structural damage that
    prevents even walking the frames still raises :class:`LogCorrupt`.
    """
    body, seal = blob[:-_CRC_BYTES], blob[-_CRC_BYTES:]
    seal_ok = len(blob) > _CRC_BYTES and _crc(body) == int.from_bytes(seal, "big")
    reader, upto_seq, group_count = _snapshot_reader(blob, verify_seal=False)
    streams = []
    for _ in range(group_count):
        table = bytes(reader.take(reader.uint(4)))
        if len(table) < 4:
            raise LogCorrupt("snapshot key table shorter than its entry count")
        key_count = int.from_bytes(table[:4], "big")
        streams.append((key_count, bytes(reader.take(reader.uint(4)))))
    return upto_seq, streams, seal_ok
