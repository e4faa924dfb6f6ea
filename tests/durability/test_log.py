"""Unit tests of the durable log layer: codecs, backends, torn tails."""

from __future__ import annotations

import os
import zlib

import pytest

from repro.core.errors import DurabilityError, LogCorrupt
from repro.durability.log import FileDurableLog, TailDamage
from repro.durability.records import (
    KIND_CLEAR,
    KIND_STATE,
    KeyRecord,
    SnapshotGroup,
    decode_record,
    decode_snapshot,
    decode_state_body,
    decode_value,
    encode_key_state_record,
    encode_record,
    encode_snapshot,
    encode_state_body,
    encode_value,
)
from repro.durability.sqlite_log import SQLiteDurableLog
from repro.durability.store import open_log
from repro.kernel.stream import encode_stream
from repro import kernel

BACKENDS = ("file", "sqlite")


def make_log(tmp_path, backend, **kwargs):
    return open_log(tmp_path / f"store-{backend}", backend=backend, **kwargs)


def state_record(key="k", values=("v",), independent=True, tracker=b"\x00"):
    return KeyRecord(
        key=key,
        present=True,
        independently_created=independent,
        values=tuple(encode_value(v) for v in values),
        tracker=tracker,
    )


# ---------------------------------------------------------------------------
# record codec
# ---------------------------------------------------------------------------


class TestRecordCodec:
    def test_roundtrip(self):
        record = state_record(values=("v", 1, None, [1, {"a": 2}]))
        blob = encode_record(KIND_STATE, 42, encode_state_body(record))
        kind, seq, body = decode_record(blob)
        assert (kind, seq) == (KIND_STATE, 42)
        decoded = decode_state_body(body)
        assert decoded == record
        assert [decode_value(v) for v in decoded.values] == ["v", 1, None, [1, {"a": 2}]]

    def test_absent_record_roundtrip(self):
        record = KeyRecord("gone", False, False, (), b"")
        blob = encode_record(KIND_STATE, 7, encode_state_body(record))
        assert decode_state_body(decode_record(blob)[2]) == record

    def test_clear_record(self):
        kind, seq, body = decode_record(encode_record(KIND_CLEAR, 3, b""))
        assert (kind, seq, body) == (KIND_CLEAR, 3, b"")

    def test_every_single_bit_flip_is_detected(self):
        blob = encode_record(KIND_STATE, 1, encode_state_body(state_record()))
        for position in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(LogCorrupt):
                decode_record(bytes(damaged))

    def test_truncation_is_detected(self):
        blob = encode_record(KIND_STATE, 1, encode_state_body(state_record()))
        for cut in range(len(blob)):
            with pytest.raises(LogCorrupt):
                decode_record(blob[:cut])

    def test_unserializable_value_is_typed(self):
        with pytest.raises(DurabilityError):
            encode_value(object())

    def test_bad_kind_rejected_on_encode(self):
        with pytest.raises(DurabilityError):
            encode_record(99, 1, b"")

    def test_trailing_bytes_rejected(self):
        body = encode_state_body(state_record()) + b"x"
        with pytest.raises(LogCorrupt):
            decode_state_body(body)

    def test_fused_encoder_matches_compositional_path(self):
        cases = [
            state_record(values=("v", 1, None, [1, {"a": 2}]), tracker=b"\x01\x02"),
            state_record(key="long" * 40, values=(), independent=False),
            KeyRecord("gone", False, False, (), b""),
            KeyRecord("gone-indep", False, True, (), b""),
        ]
        for seq, record in enumerate(cases, start=1):
            assert encode_key_state_record(
                seq,
                record.key,
                record.present,
                record.independently_created,
                record.values,
                record.tracker,
            ) == encode_record(KIND_STATE, seq, encode_state_body(record))

    def test_fused_encoder_rejects_oversized_fields(self):
        with pytest.raises(DurabilityError):
            encode_key_state_record(1 << 64, "k", True, False, (), b"")
        with pytest.raises(DurabilityError):
            encode_key_state_record(1, "k" * 70000, True, False, (), b"")


# ---------------------------------------------------------------------------
# snapshot codec
# ---------------------------------------------------------------------------


def small_snapshot(upto_seq=5):
    clock = kernel.make("itc").event()
    stream = encode_stream([clock])
    records = (state_record(key="a", tracker=b""),)
    return encode_snapshot(upto_seq, [SnapshotGroup(records=records, stream=stream)])


class TestSnapshotCodec:
    def test_roundtrip(self):
        blob = small_snapshot(upto_seq=17)
        upto_seq, groups = decode_snapshot(blob)
        assert upto_seq == 17
        assert len(groups) == 1
        assert groups[0].records[0].key == "a"

    def test_single_bit_flips_never_pass_the_seal(self):
        blob = small_snapshot()
        # The seal covers everything: flipping any one bit must be caught
        # (either by the CRC or, for the magic/version bytes, even before).
        for position in range(len(blob) * 8):
            damaged = bytearray(blob)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(LogCorrupt):
                decode_snapshot(bytes(damaged))

    def test_bad_magic_is_typed(self):
        with pytest.raises(LogCorrupt):
            decode_snapshot(b"XX" + small_snapshot()[2:])

    def test_key_table_rejects_an_absent_key_even_when_resealed(self):
        """A sealed, well-formed table entry written the way the journal
        writes a removed key (absent flag, no values) is still corrupt."""

        def with_table(blob, table):
            # header 15 bytes | table length u32 | table | stream part | seal
            old_length = int.from_bytes(blob[15:19], "big")
            body = b"".join(
                (
                    blob[:15],
                    len(table).to_bytes(4, "big"),
                    table,
                    blob[19 + old_length : -4],
                )
            )
            return body + zlib.crc32(body).to_bytes(4, "big")

        blob = small_snapshot()
        table = blob[19 : 19 + int.from_bytes(blob[15:19], "big")]
        assert with_table(blob, table) == blob
        # entry count u32 | key length u16 | "a" | flags u8 | value fields
        flags_at = 4 + 2 + len("a")
        assert table[flags_at] == 0x01  # independently created
        absent = table[:flags_at] + bytes((0x01 | 0x02,))
        with pytest.raises(LogCorrupt):
            decode_snapshot(with_table(blob, absent))


# ---------------------------------------------------------------------------
# the log backends, driven identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestDurableLog:
    def test_append_flush_replay(self, tmp_path, backend):
        log = make_log(tmp_path, backend)
        blobs = [
            encode_record(KIND_STATE, seq, encode_state_body(state_record()))
            for seq in range(1, 4)
        ]
        for blob in blobs:
            log.append(blob)
        assert log.pending == 3
        log.flush()
        assert log.pending == 0
        replayed, damage = log.replay()
        assert replayed == blobs
        assert damage is None
        log.close()

    def test_unflushed_records_die_with_the_process(self, tmp_path, backend):
        log = make_log(tmp_path, backend)
        committed = encode_record(KIND_STATE, 1, encode_state_body(state_record()))
        log.append(committed)
        log.flush()
        log.append(encode_record(KIND_STATE, 2, encode_state_body(state_record())))
        log.simulate_crash()
        replayed, damage = log.replay()
        assert replayed == [committed]
        assert damage is None
        log.close()

    def test_torn_tail_truncates_and_reports(self, tmp_path, backend):
        log = make_log(tmp_path, backend)
        keep = encode_record(KIND_STATE, 1, encode_state_body(state_record()))
        torn = encode_record(KIND_STATE, 2, encode_state_body(state_record()))
        log.append(keep)
        log.append(torn)
        log.flush()
        log.simulate_crash(torn_bytes=3)
        replayed, damage = log.replay()
        assert replayed == [keep]
        assert isinstance(damage, TailDamage)
        assert damage.dropped_bytes > 0
        # The truncation is physical: a second replay is clean.
        replayed_again, damage_again = log.replay()
        assert replayed_again == [keep]
        assert damage_again is None
        # And appends continue right after the valid prefix.
        fresh = encode_record(KIND_STATE, 3, encode_state_body(state_record()))
        log.append(fresh)
        log.flush()
        assert log.replay() == ([keep, fresh], None)
        log.close()

    def test_snapshot_install_and_read(self, tmp_path, backend):
        log = make_log(tmp_path, backend)
        log.append(encode_record(KIND_STATE, 1, encode_state_body(state_record())))
        log.flush()
        assert log.read_snapshot() is None
        blob = small_snapshot()
        log.install_snapshot(blob)
        assert log.read_snapshot() == blob
        # Installation truncates the journal.
        assert log.replay() == ([], None)
        assert log.journal_bytes() == 0
        log.close()

    def test_snapshot_overwrite(self, tmp_path, backend):
        log = make_log(tmp_path, backend)
        log.install_snapshot(small_snapshot(upto_seq=1))
        second = small_snapshot(upto_seq=2)
        log.install_snapshot(second)
        assert log.read_snapshot() == second
        log.close()

    def test_fsync_batching_validation(self, tmp_path, backend):
        with pytest.raises(DurabilityError):
            make_log(tmp_path, backend, fsync_every=0)
        log = make_log(tmp_path, backend, fsync_every=2)
        for seq in range(1, 6):
            log.append(
                encode_record(KIND_STATE, seq, encode_state_body(state_record()))
            )
            log.flush()
        replayed, damage = log.replay()
        assert len(replayed) == 5 and damage is None
        log.close()

    def test_mid_log_damage_condemns_the_rest(self, tmp_path, backend):
        """Damage *behind* later records still truncates from the damage on:
        a record whose seal fails cannot vouch for anything after it."""
        log = make_log(tmp_path, backend)
        blobs = [
            encode_record(KIND_STATE, seq, encode_state_body(state_record()))
            for seq in range(1, 5)
        ]
        for blob in blobs:
            log.append(blob)
        log.flush()
        log.close()
        if backend == "file":
            path = tmp_path / "store-file" / FileDurableLog.JOURNAL
            data = bytearray(path.read_bytes())
            data[len(blobs[0]) + 4 + 10] ^= 0x01  # inside the second record
            path.write_bytes(bytes(data))
            log = FileDurableLog(tmp_path / "store-file")
        else:
            import sqlite3

            db = tmp_path / "store-sqlite"
            connection = sqlite3.connect(os.fspath(db))
            row = connection.execute(
                "SELECT id, blob FROM journal WHERE id = 2"
            ).fetchone()
            damaged = bytearray(row[1])
            damaged[10] ^= 0x01
            connection.execute(
                "UPDATE journal SET blob = ? WHERE id = 2",
                (sqlite3.Binary(bytes(damaged)),),
            )
            connection.commit()
            connection.close()
            log = SQLiteDurableLog(os.fspath(db))
        replayed, damage = log.replay()
        assert replayed == blobs[:1]
        assert damage is not None and "CRC" in damage.reason
        log.close()

    def test_context_manager(self, tmp_path, backend):
        with make_log(tmp_path, backend) as log:
            log.append(
                encode_record(KIND_STATE, 1, encode_state_body(state_record()))
            )
        # close() flushed the buffer.
        reopened = make_log(tmp_path, backend)
        assert len(reopened.replay()[0]) == 1
        reopened.close()


def test_open_log_rejects_unknown_backend(tmp_path):
    with pytest.raises(DurabilityError):
        open_log(tmp_path, backend="papyrus")


def test_open_log_sqlite_in_directory(tmp_path):
    """Given an existing directory, the SQLite backend nests its db file."""
    target = tmp_path / "store"
    target.mkdir()
    log = open_log(target, backend="sqlite")
    log.append(encode_record(KIND_STATE, 1, encode_state_body(state_record())))
    log.flush()
    log.close()
    assert (target / "store.sqlite").exists()
