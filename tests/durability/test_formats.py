"""Golden bytes of the formats a durable store writes.

A canonical codec makes byte equality mean state equality only while one
encoder defines the form, and the durable store's claim that "the
snapshot is canonical wire state" rests on it.  These constants pin the
bytes themselves -- envelopes of fixed clock sequences, an ITC payload
deep enough for interior nodes and gamma codes, one key-state journal
record and one snapshot -- so a refactor of any encoder that changes a
byte fails here, not on a store written by an older build.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.kernel.clocks import EVENT_ID_BYTES
from repro.replication import StoreReplica

#: ``(seed, fork() then left.event(), left.join(right))`` envelope bytes.
ENVELOPES = {
    "version-stamp": (
        "434b01010000000000000004010002c0",
        "434b0101000000000000000401000866",
        "434b01010000000000000004010002c0",
    ),
    "itc": (
        "434b010200000000000000050000000450",
        "434b010200000000000000060000000da648",
        "434b010200000000000000060000000a7240",
    ),
    "vv-dynamic": (
        "434b01030000000000000012000000000000000000000000000000010000",
        "434b0103000000000000002600000000000000000000000000000001010100000000"
        "00000000000000000000000100000001",
        "434b0103000000000000002600000000000000000000000000000001010100000000"
        "00000000000000000000000100000001",
    ),
}


def fork_event_join(family):
    seed = kernel.make(family)
    left, right = seed.fork()
    left = left.event()
    return seed, left, left.join(right)


@pytest.mark.parametrize("family", sorted(ENVELOPES))
def test_envelopes_of_a_fork_event_join_are_pinned(family):
    for clock, expected in zip(fork_event_join(family), ENVELOPES[family]):
        assert kernel.encode_envelope(clock).hex() == expected
        assert clock.to_bytes().hex() == expected
        assert kernel.from_bytes(bytes.fromhex(expected)) == clock


def test_deep_itc_payload_is_pinned():
    """Three forks deep, events on two branches: interior id and event
    nodes and gamma codes of counters 1 and 5 all reach the payload."""
    a, b = kernel.make("itc").fork()
    a1, _ = a.fork()
    a11, _ = a1.fork()
    evented = a11.event()
    joined = evented.join(b.event().event().event().event().event())
    assert evented.stamp.identity == (((1, 0), 0), 0)
    assert joined.stamp.events == (0, (0, (0, 1, 0), 0), 5)
    assert evented.to_bytes().hex() == "434b010200000000000000080000001be81f92a0"
    assert joined.to_bytes().hex() == "434b010200000000000000080000001fe83f928c"


def test_causal_history_layout_follows_the_event_index():
    """Causal-history payloads carry indices from the process-wide event
    arena, so the bytes are pinned around whatever index the clock holds."""
    seed, left, joined = fork_event_join("causal-history")
    assert seed.to_bytes().hex() == "434b0104000000000000000100"
    [index] = [event.sequence for event in left.history]
    expected = bytes.fromhex("434b0104000000000000000901") + index.to_bytes(
        EVENT_ID_BYTES, "big"
    )
    assert left.to_bytes() == expected
    assert joined.to_bytes() == expected


#: The last journal record and the snapshot of :func:`small_store`.
RECORD = (
    "01000000000000000600016100000200000003227a220000000322792200000010"
    "434b01010000000000000004010005b083f7eb0b"
)
SNAPSHOT = (
    "445301000000000000000600000001000000320000000200016100000200000003227a"
    "2200000003227922000162000001000000105b312c207b226b223a206e756c6c7d5d00"
    "00001c43530101000000000000000200000004010005b000000004010005b020d58dd3"
)


def test_key_state_record_and_snapshot_are_pinned(tmp_path):
    store = StoreReplica("n0", durable=True, path=tmp_path / "n0")
    store.put("a", "x")
    store.put("b", [1, {"k": None}])
    peer = store.fork("n1")
    peer.put("a", "y")
    store.put("a", "z")
    store.sync_with(peer)
    store.journal.flush()
    blobs, damage = store.journal.log.replay()
    assert damage is None and len(blobs) == 6
    assert blobs[-1].hex() == RECORD
    store.journal.snapshot(store)
    assert store.journal.log.read_snapshot().hex() == SNAPSHOT
    store.journal.close()
