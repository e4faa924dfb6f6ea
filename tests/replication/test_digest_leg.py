"""The wire session's digest leg: settled keys, collisions, lost and aborted legs.

A session opens with one message of 16-byte key digests from the
initiator.  Keys whose digests match are settled without shipping a
stamp; the rest run the request and response legs.  These tests pin what
the leg may and may not do to the two stores.
"""

import pytest

from repro import kernel
from repro.replication import (
    RetryPolicy,
    StoreReplica,
    SyncHistory,
    WireSyncEngine,
)
from repro.replication.faults import FaultPlan
from repro.replication.store import KeyState
from repro.replication.synchronizer import SessionAbort, TransferEffect

FAMILIES = kernel.families()


def _store_bytes(store):
    """Every key's sibling values and tracker envelope, for byte equality."""
    return {
        key: (sorted(map(repr, state.values)), state.tracker.to_bytes())
        for key, state in store._keys.items()
    }


def _pair(family, tmp_path=None, keys=4):
    """Two stores holding ``keys`` keys, synced, then one key rewritten."""
    factory = kernel.family(family).factory
    durable = tmp_path is not None
    first = StoreReplica(
        "a", tracker_factory=factory, durable=durable,
        path=tmp_path / "a" if durable else None,
    )
    second = StoreReplica(
        "b", tracker_factory=factory, durable=durable,
        path=tmp_path / "b" if durable else None,
    )
    for index in range(keys):
        first.put(f"k{index}", index)
    WireSyncEngine().sync(first, second)
    first.put("k0", "fresh")
    return first, second


class _LosingTransport:
    """A transport that delivers nothing after ``delivered`` transfer calls."""

    def __init__(self, delivered=0):
        self.delivered = delivered
        self.calls = 0
        self.meter = None
        self.plan = FaultPlan()

    def transfer_batch(self, source, destination, blobs):
        self.calls += 1
        if self.calls > self.delivered:
            return []
        return list(enumerate(blobs))


@pytest.mark.parametrize("family", FAMILIES)
def test_equal_keys_settle_and_ship_no_stamps(family):
    first, second = _pair(family)
    engine = WireSyncEngine()
    report = engine.sync(first, second)
    # One digest message, then k0 alone: request + response.
    assert engine.meter.messages == 3
    assert engine.stamps_shipped == 2
    assert engine.equal_bytes_skips == 3
    assert report.keys_examined == 4
    assert second.get("k0") == ["fresh"]
    idle = engine.sync(first, second)
    assert engine.meter.messages == 4 and engine.stamps_shipped == 2
    assert engine.equal_bytes_skips == 7
    assert idle.keys_examined == 4


def test_no_digest_leg_without_a_key_on_both_sides():
    first = StoreReplica("a")
    second = StoreReplica("b")
    first.put("k", 1)
    engine = WireSyncEngine()
    engine.sync(first, second)
    # Replication only: the response leg is the one message.
    assert engine.meter.messages == 1
    assert engine.equal_bytes_skips == 0


def test_the_digest_cache_follows_clock_and_values_identity():
    state = KeyState(values=[1], tracker=kernel.make("itc"))
    digest = state.digest()
    assert state.digest() is digest
    state.values = [1]  # an equal but new list: recomputed, same digest
    assert state.digest() == digest
    state.values = [2]
    assert state.digest() != digest
    state.tracker = state.tracker.event()
    assert state.digest() != digest


@pytest.mark.parametrize("family", FAMILIES)
def test_a_planted_collision_changes_nothing_and_an_honest_session_repairs(
    family, tmp_path, monkeypatch
):
    first, second = _pair(family, tmp_path)
    before = (_store_bytes(first), _store_bytes(second))
    journals = (first.journal.log.journal_bytes(), second.journal.log.journal_bytes())
    honest = KeyState.digest
    # Every digest collides: the session settles k0 although it differs.
    monkeypatch.setattr(KeyState, "digest", lambda self: bytes(16))
    engine = WireSyncEngine()
    report = engine.sync(first, second)
    assert report.keys_examined == 4 and engine.stamps_shipped == 0
    assert (_store_bytes(first), _store_bytes(second)) == before
    assert (
        first.journal.log.journal_bytes(),
        second.journal.log.journal_bytes(),
    ) == journals
    monkeypatch.setattr(KeyState, "digest", honest)
    engine.sync(first, second)
    assert first.get("k0") == second.get("k0") == ["fresh"]
    assert first.tracker_of("k0").compare(second.tracker_of("k0")).name == "EQUAL"


@pytest.mark.parametrize("family", FAMILIES)
def test_a_lost_digest_leg_leaves_both_sides_untouched(family):
    first, second = _pair(family)
    # first also holds a key second lacks: it stays unreplicated too.
    first._keys["only-a"] = KeyState(values=["x"], tracker=kernel.make(family))
    before = (_store_bytes(first), _store_bytes(second))
    history = SyncHistory()
    transport = _LosingTransport()
    engine = WireSyncEngine(
        transport=transport, retry=RetryPolicy(attempts=3), history=history
    )
    report = engine.sync(first, second)
    assert (_store_bytes(first), _store_bytes(second)) == before
    assert transport.calls == 3  # the digest leg's attempts, nothing more
    assert engine.deliveries_failed == 1 and engine.stamps_shipped == 0
    assert report.keys_examined == 5
    (record,) = history.records()
    assert record.keys_synced == ()
    assert record.keys_lost == tuple(
        (key, "request-lost") for key in sorted(["only-a", "k0", "k1", "k2", "k3"])
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_settled_keys_are_recorded_as_synced(family):
    first, second = _pair(family)
    history = SyncHistory()
    # The digest leg arrives; the request leg carrying k0 is lost.
    engine = WireSyncEngine(
        transport=_LosingTransport(delivered=1),
        retry=RetryPolicy(attempts=2),
        history=history,
    )
    engine.sync(first, second)
    (record,) = history.records()
    assert record.keys_synced == ("k1", "k2", "k3")
    assert record.keys_lost == (("k0", "request-lost"),)


@pytest.mark.parametrize("family", FAMILIES)
def test_an_abort_at_the_digest_leg_leaves_both_sides_untouched(family):
    first, second = _pair(family)
    before = (_store_bytes(first), _store_bytes(second))
    session = WireSyncEngine().session(first, second)
    effect = next(session)
    assert effect == TransferEffect("a", "b", 1, 16 * 4)
    with pytest.raises(SessionAbort):
        session.throw(SessionAbort())
    assert (_store_bytes(first), _store_bytes(second)) == before


@pytest.mark.parametrize("family", FAMILIES)
def test_an_abort_at_the_response_leg_rolls_a_default_session_back(family):
    first, second = _pair(family)
    # Changed keys on both sides: k0 (first), k1 (second), k2 (both,
    # concurrently), plus one key each side lacks.
    second.put("k1", "theirs")
    first.put("k2", "mine")
    second.put("k2", "theirs")
    first.put("only-a", "x")
    second.put("only-b", "y")
    before = (_store_bytes(first), _store_bytes(second))
    # No transport and no deadline: the plainest session there is.
    session = WireSyncEngine().session(first, second)
    legs = [next(session) for _ in range(3)]
    assert all(isinstance(effect, TransferEffect) for effect in legs)
    # Digest, request, then the response leg, after the merge ran.
    assert [(effect.source, effect.destination) for effect in legs] == [
        ("a", "b"),
        ("b", "a"),
        ("a", "b"),
    ]
    assert first.get("k1") == ["theirs"]  # merged in memory
    with pytest.raises(SessionAbort):
        session.throw(SessionAbort())
    assert (_store_bytes(first), _store_bytes(second)) == before

