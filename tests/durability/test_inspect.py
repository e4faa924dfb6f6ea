"""``repro store inspect``: a read-only report in recovery's own words.

Every damaged-store case checks the same three things: the reported
damage reason and offset are the :class:`TailDamage` that ``replay()``
returns on a copy of the store, the journal byte count is
:meth:`DurableLog.journal_bytes`, and the store is left byte for byte as
it was, so a later recovery still finds (and cuts) the damage.
"""

from __future__ import annotations

import os
import shutil
import sqlite3

import pytest

from repro import kernel
from repro.cli import main
from repro.core.errors import DurabilityError
from repro.durability.inspect import format_report, inspect_path
from repro.durability.log import FileDurableLog
from repro.durability.records import KIND_CLEAR, encode_record
from repro.durability.store import SQLITE_FILENAME, open_log
from repro.replication import StoreReplica

BACKENDS = ("file", "sqlite")


def build_store(tmp_path, backend, family="version-stamp"):
    """Four keys in a snapshot, then a journal tail of three records.

    The SQLite store lives in a directory too, so one path names a store
    of either backend.
    """
    path = tmp_path / f"store-{backend}"
    path.mkdir()
    store = StoreReplica(
        "n0",
        tracker_factory=kernel.family(family).factory,
        durable=True,
        path=path,
        backend=backend,
    )
    for index in range(4):
        store.put(f"k{index}", index)
    store.journal.snapshot(store)
    for index in range(3):
        store.put(f"t{index}", [index, "tail"])
    store.journal.flush()
    return store, path


def tree_bytes(path):
    """Every file under ``path`` with its contents."""
    found = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                found[os.path.relpath(full, path)] = handle.read()
    return found


def recovery_view(tmp_path, path, backend):
    """``(journal_bytes(), replay()'s damage)`` on a copy of the store."""
    copy = tmp_path / "copy"
    shutil.copytree(path, copy)
    log = open_log(copy, backend=backend)
    size = log.journal_bytes()
    _, damage = log.replay()
    log.close()
    shutil.rmtree(copy)
    return size, damage


def inspect_like_recovery(tmp_path, path, backend):
    """Inspect ``path``, check it against recovery, and check it is untouched."""
    before = tree_bytes(path)
    info = inspect_path(path)
    assert tree_bytes(path) == before
    size, damage = recovery_view(tmp_path, path, backend)
    assert info.journal.bytes == size
    if damage is None:
        assert (info.journal.damage, info.journal.damage_offset) == (None, 0)
    else:
        assert info.journal.damage == damage.reason
        assert info.journal.damage_offset == damage.offset
    return info, damage


def replay_counts(tmp_path, path, backend):
    """``(records replayed + clears applied, records skipped)`` recovering a copy."""
    copy = tmp_path / "recovered"
    shutil.copytree(path, copy)
    recovered, report = StoreReplica.recover(copy, name="n0", backend=backend)
    recovered.journal.close()
    shutil.rmtree(copy)
    return report.records_replayed + report.clears_applied, report.records_skipped


def run_cli(capsys, path):
    status = main(["store", "inspect", os.fspath(path)])
    out, err = capsys.readouterr()
    return status, out, err


@pytest.mark.parametrize("backend", BACKENDS)
class TestInspect:
    def test_clean_store_is_healthy(self, tmp_path, capsys, backend):
        store, path = build_store(tmp_path, backend)
        store.journal.close()
        info, damage = inspect_like_recovery(tmp_path, path, backend)
        assert damage is None and info.healthy
        assert info.backend == backend
        assert info.snapshot.present and info.snapshot.crc_ok
        assert info.snapshot.upto_seq == 4
        assert [(g.family, g.keys) for g in info.snapshot.groups] == [
            ("version-stamp", 4)
        ]
        assert (info.journal.records, info.journal.state_records) == (3, 3)
        assert (info.journal.first_seq, info.journal.last_seq) == (5, 7)
        assert info.journal.families == (("version-stamp", 3),)
        status, out, err = run_cli(capsys, path)
        assert status == 0 and err == ""
        assert out == format_report(info) + "\n"
        assert "status:   healthy" in out

    def test_torn_tail_is_reported_as_recovery_reports_it(
        self, tmp_path, capsys, backend
    ):
        store, path = build_store(tmp_path, backend)
        store.journal.simulate_crash(torn_bytes=3)
        store.journal.close()
        info, damage = inspect_like_recovery(tmp_path, path, backend)
        assert damage is not None and not info.healthy
        assert info.journal.records == 2
        status, out, _ = run_cli(capsys, path)
        assert status == 2
        assert "status:   DAMAGED" in out
        assert f"damage: {damage.reason}" in out
        # Inspection cut nothing: recovery still finds the same damage.
        log = open_log(path, backend=backend)
        assert log.replay()[1] == damage
        log.close()

    def test_mid_journal_seal_failure(self, tmp_path, capsys, backend):
        store, path = build_store(tmp_path, backend)
        store.journal.close()
        if backend == "file":
            journal = path / FileDurableLog.JOURNAL
            data = bytearray(journal.read_bytes())
            first = int.from_bytes(data[:4], "big")
            data[4 + first + 4 + 10] ^= 0x01  # inside the second record
            journal.write_bytes(bytes(data))
        else:
            connection = sqlite3.connect(os.fspath(path / SQLITE_FILENAME))
            row_id, blob = connection.execute(
                "SELECT id, blob FROM journal ORDER BY id LIMIT 1 OFFSET 1"
            ).fetchone()
            damaged = bytearray(blob)
            damaged[10] ^= 0x01
            connection.execute(
                "UPDATE journal SET blob = ? WHERE id = ?", (bytes(damaged), row_id)
            )
            connection.commit()
            connection.close()
        info, damage = inspect_like_recovery(tmp_path, path, backend)
        assert damage is not None and "CRC" in damage.reason
        assert damage.offset > 0 and info.journal.records == 1
        assert run_cli(capsys, path)[0] == 2
        log = open_log(path, backend=backend)
        assert log.replay()[1] == damage
        log.close()

    def test_snapshot_seal_failure_is_described(self, tmp_path, capsys, backend):
        store, path = build_store(tmp_path, backend)
        snapshot = store.journal.log.read_snapshot()
        store.journal.close()
        damaged = bytearray(snapshot)
        damaged[-8] ^= 0x01  # inside the last group's stream, before the seal
        if backend == "file":
            (path / FileDurableLog.SNAPSHOT).write_bytes(bytes(damaged))
        else:
            connection = sqlite3.connect(os.fspath(path / SQLITE_FILENAME))
            connection.execute(
                "UPDATE snapshot SET blob = ? WHERE id = 1", (bytes(damaged),)
            )
            connection.commit()
            connection.close()
        info, damage = inspect_like_recovery(tmp_path, path, backend)
        assert damage is None
        assert info.snapshot.present and not info.snapshot.crc_ok
        assert not info.healthy
        status, out, _ = run_cli(capsys, path)
        assert status == 2
        assert "crc FAILED" in out


@pytest.mark.parametrize("backend", BACKENDS)
class TestReplayableTail:
    """Inspect counts the records recovery replays and the ones it skips."""

    def test_snapshot_plus_tail(self, tmp_path, capsys, backend):
        store, path = build_store(tmp_path, backend)
        store.journal.record_clear()
        store.journal.close()
        info, _ = inspect_like_recovery(tmp_path, path, backend)
        assert (info.journal.replayable, info.journal.covered) == (4, 0)
        assert replay_counts(tmp_path, path, backend) == (4, 0)
        out = run_cli(capsys, path)[1]
        assert "tail: 4 records to replay, 0 covered by the snapshot" in out

    def test_crash_after_snapshot_installed(self, tmp_path, capsys, backend):
        """The window between installing a snapshot and truncating the
        journal: every journal record is one the snapshot covers."""
        store, path = build_store(tmp_path, backend)

        class Boom(Exception):
            pass

        def hook(point):
            if point == "snapshot-installed":
                raise Boom()

        store.journal.log.crash_hook = hook
        with pytest.raises(Boom):
            store.journal.snapshot(store)
        store.journal.log.crash_hook = None
        store.journal.simulate_crash()
        store.journal.close()
        info, _ = inspect_like_recovery(tmp_path, path, backend)
        assert (info.journal.replayable, info.journal.covered) == (0, 3)
        assert replay_counts(tmp_path, path, backend) == (0, 3)
        out = run_cli(capsys, path)[1]
        assert "tail: 0 records to replay, 3 covered by the snapshot" in out


def flip_second_record(path, backend):
    """Flip one bit inside the second journal record's sealed blob."""
    if backend == "file":
        journal = path / FileDurableLog.JOURNAL
        data = bytearray(journal.read_bytes())
        first = int.from_bytes(data[:4], "big")
        data[4 + first + 4 + 10] ^= 0x01
        journal.write_bytes(bytes(data))
        return
    connection = sqlite3.connect(os.fspath(path / SQLITE_FILENAME))
    row_id, blob = connection.execute(
        "SELECT id, blob FROM journal ORDER BY id LIMIT 1 OFFSET 1"
    ).fetchone()
    damaged = bytearray(blob)
    damaged[10] ^= 0x01
    connection.execute(
        "UPDATE journal SET blob = ? WHERE id = ?", (bytes(damaged), row_id)
    )
    connection.commit()
    connection.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("where", ["torn-tail", "second-record"])
def test_damage_offsets_count_journal_bytes(tmp_path, capsys, backend, where):
    """The valid prefix plus the dropped bytes is the whole journal.

    Both backends count a record as its blob plus a 4-byte length
    prefix, so ``repro store inspect`` prints the cut offset and the
    journal size in one unit.
    """
    store, path = build_store(tmp_path, backend)
    if where == "torn-tail":
        store.journal.simulate_crash(torn_bytes=3)
        store.journal.close()
    else:
        store.journal.close()
        flip_second_record(path, backend)
    size, damage = recovery_view(tmp_path, path, backend)
    assert damage is not None
    assert damage.offset + damage.dropped_bytes == size
    out = run_cli(capsys, path)[1]
    assert f"journal:  {size} bytes" in out
    assert f"valid prefix ends at byte {damage.offset};" in out


def test_sqlite_store_as_file_and_as_directory(tmp_path, capsys):
    store, path = build_store(tmp_path, "sqlite")
    store.journal.close()
    database = path / SQLITE_FILENAME
    assert inspect_path(path) == inspect_path(database)
    assert inspect_path(database).path == os.fspath(database)
    assert run_cli(capsys, path) == run_cli(capsys, database)


@pytest.mark.parametrize("name", ["a#b", "c?d", "e%41f"])
def test_sqlite_path_is_not_read_as_uri_syntax(tmp_path, name):
    """``#``, ``?`` and ``%`` in the path neither send the read-only open
    to another file, where it would create a database, nor drop ``mode=ro``."""
    path = tmp_path / name
    path.mkdir()
    log = open_log(path, backend="sqlite")
    log.append(encode_record(KIND_CLEAR, 1, b""))
    log.flush()
    log.close()
    before = tree_bytes(tmp_path)
    info = inspect_path(path)
    assert (info.backend, info.journal.clear_records) == ("sqlite", 1)
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("kind", ["empty directory", "plain file", "missing"])
def test_path_without_a_store(tmp_path, capsys, kind):
    target = tmp_path / "target"
    if kind == "empty directory":
        target.mkdir()
    elif kind == "plain file":
        target.write_bytes(b"not a store")
    with pytest.raises(DurabilityError):
        inspect_path(target)
    status, out, err = run_cli(capsys, target)
    assert status == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert os.path.exists(target) == (kind != "missing")
