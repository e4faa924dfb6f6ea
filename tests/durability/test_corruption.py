"""Property tests: on-disk damage never yields silent wrong state.

The contract (ISSUE satellite): any single-bit flip or truncation of the
on-disk log either (a) recovers cleanly to the last valid record with a
typed :class:`~repro.durability.log.TailDamage` report, or (b) raises a
typed :class:`~repro.core.errors.EncodingError` /
:class:`~repro.core.errors.LogCorrupt` -- it must never replay a
corrupted frame as if it were valid, and never lose records *before* the
damage point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import kernel
from repro.core.errors import EncodingError, LogCorrupt
from repro.durability.log import FileDurableLog
from repro.durability.records import (
    KIND_STATE,
    KeyRecord,
    SnapshotGroup,
    decode_record,
    decode_snapshot,
    encode_record,
    encode_snapshot,
    encode_state_body,
    encode_value,
)
from repro.durability.recovery import recover_replica
from repro.durability.store import StoreJournal, open_log
from repro.kernel.stream import encode_stream
from repro.replication.store import StoreReplica

FAMILIES = kernel.families()


def build_store(path, family="version-stamp", puts=6):
    store = StoreReplica(
        "a",
        tracker_factory=kernel.family(family).factory,
        durable=True,
        path=path,
    )
    for index in range(puts):
        store.put(f"k{index % 3}", {"step": index})
    store.journal.close()


def journal_path(path):
    return path / FileDurableLog.JOURNAL


@given(
    family=st.sampled_from(FAMILIES),
    bit=st.integers(min_value=0),
    data=st.data(),
)
def test_bit_flip_in_journal_never_silently_corrupts(tmp_path_factory, family, bit, data):
    path = tmp_path_factory.mktemp("flip") / "store"
    build_store(path, family=family)
    blob = journal_path(path).read_bytes()
    position = bit % (len(blob) * 8)
    damaged = bytearray(blob)
    damaged[position // 8] ^= 1 << (position % 8)
    journal_path(path).write_bytes(bytes(damaged))
    try:
        store, report = recover_replica(path, name="a")
    except (LogCorrupt, EncodingError):
        return  # typed rejection is an allowed outcome
    # Otherwise: recovery must have reported the damage (or the flip hit a
    # frame-length header in a way that truncated to a valid prefix) and
    # the surviving records must be a replayable prefix -- every recovered
    # key round-trips through its canonical codec.
    for key in store.keys():
        tracker = store.tracker_of(key)
        assert kernel.from_bytes(tracker.to_bytes()).to_bytes() == tracker.to_bytes()
    assert report.records_replayed + report.records_skipped <= 6
    store.journal.close()


@given(
    family=st.sampled_from(FAMILIES),
    cut=st.integers(min_value=0),
)
def test_truncation_recovers_to_last_valid_record(tmp_path_factory, family, cut):
    path = tmp_path_factory.mktemp("cut") / "store"
    build_store(path, family=family)
    blob = journal_path(path).read_bytes()
    keep = cut % (len(blob) + 1)
    journal_path(path).write_bytes(blob[:keep])
    store, report = recover_replica(path, name="a")
    # A truncation can only cost the torn tail: replay stops at the last
    # record whose seal verifies, and reports anything dropped.
    if keep < len(blob):
        assert report.tail is not None or report.records_replayed < 6
    surviving = report.records_replayed
    assert 0 <= surviving <= 6
    if report.tail is not None:
        assert report.tail.dropped_bytes >= 0
    store.journal.close()


@given(bit=st.integers(min_value=0))
def test_snapshot_bit_flip_is_always_typed(bit):
    clock = kernel.make("itc").event()
    record = KeyRecord("a", True, True, (encode_value("v"),), b"")
    blob = encode_snapshot(
        9, [SnapshotGroup(records=(record,), stream=encode_stream([clock]))]
    )
    position = bit % (len(blob) * 8)
    damaged = bytearray(blob)
    damaged[position // 8] ^= 1 << (position % 8)
    with pytest.raises((LogCorrupt, EncodingError)):
        decode_snapshot(bytes(damaged))


@given(
    noise=st.binary(min_size=0, max_size=64),
)
def test_arbitrary_bytes_never_decode_as_records(noise):
    record = encode_record(
        KIND_STATE,
        1,
        encode_state_body(
            KeyRecord("k", True, True, (encode_value(1),), b"\x01\x02")
        ),
    )
    if noise == b"":
        return
    try:
        kind, seq, body = decode_record(record[: len(record) // 2] + noise)
    except (LogCorrupt, EncodingError):
        return
    # A CRC32 collision is astronomically unlikely at these sizes; if one
    # ever surfaces, the decoded frame is at least structurally valid.
    assert kind in (1, 2)


def test_damaged_snapshot_blocks_recovery_with_typed_error(tmp_path):
    path = tmp_path / "store"
    store = StoreReplica(
        "a",
        tracker_factory=kernel.family("vv-dynamic").factory,
        durable=True,
        path=path,
    )
    store.put("k", "v")
    store.journal.snapshot(store)
    store.journal.close()
    snapshot = path / FileDurableLog.SNAPSHOT
    data = bytearray(snapshot.read_bytes())
    data[len(data) // 2] ^= 0xFF
    snapshot.write_bytes(bytes(data))
    with pytest.raises(LogCorrupt):
        recover_replica(path, name="a")


def test_sqlite_torn_blob_recovers_prefix(tmp_path):
    path = tmp_path / "store.sqlite"
    log = open_log(path, backend="sqlite")
    journal = StoreJournal(log)
    store = StoreReplica(
        "a",
        tracker_factory=kernel.family("causal-history").factory,
        journal=journal,
    )
    store.put("k", 1)
    store.put("k", 2)
    journal.simulate_crash(torn_bytes=5)
    recovered, report = StoreReplica.recover(path, name="a", backend="sqlite")
    assert report.tail is not None
    assert recovered.get("k") == [1]
