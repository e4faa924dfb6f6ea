"""The opt-in per-exchange sync history recorder.

Unit coverage of the ring-buffer semantics, plus a 2,000-step chaos soak
asserting the memory bound holds and every record stays well-formed while
the fault matrix is doing its worst.
"""

import random

import pytest

from repro import kernel
from repro.core.errors import ReplicationError
from repro.replication import (
    AntiEntropy,
    FaultPlan,
    FaultyTransport,
    MobileNode,
    RetryPolicy,
    SyncHistory,
    WireSyncEngine,
)
from repro.replication.network import FullyConnectedNetwork
from repro.replication.synchronizer import SessionAbort, TransferEffect


def _two_nodes(family="version-stamp"):
    network = FullyConnectedNetwork()
    first = MobileNode.first(
        "a", network, tracker_factory=kernel.family(family).factory
    )
    return first, first.spawn_peer("b")


class TestSyncHistoryUnit:
    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ReplicationError):
            SyncHistory(maxlen=0)

    def test_engine_without_history_records_nothing(self):
        a, b = _two_nodes()
        engine = WireSyncEngine()
        a.write("k", 1)
        engine.sync(a.store, b.store)
        assert engine.history is None

    def test_session_appends_one_record(self):
        a, b = _two_nodes()
        history = SyncHistory(maxlen=8)
        engine = WireSyncEngine(history=history)
        a.write("k", 1)
        engine.sync(a.store, b.store)
        assert len(history) == 1
        (record,) = history.records()
        assert record.seq == 0
        assert record.round_number is None
        assert (record.first, record.second) == ("a", "b")
        assert record.carried("k")
        assert record.keys_lost == ()
        assert record.messages > 0 and record.bytes_sent > 0

    def test_round_marking_via_anti_entropy(self):
        a, b = _two_nodes()
        history = SyncHistory(maxlen=8)
        engine = WireSyncEngine(history=history)
        gossip = AntiEntropy([a, b], rng=random.Random(0), engine=engine)
        a.write("k", 1)
        gossip.run_round()
        gossip.run_round()
        rounds = {record.round_number for record in history}
        assert rounds == {1, 2}

    def test_eviction_keeps_bound_and_counts(self):
        a, b = _two_nodes()
        history = SyncHistory(maxlen=3)
        engine = WireSyncEngine(history=history)
        for step in range(5):
            a.write("k", step)
            engine.sync(a.store, b.store)
        assert len(history) == 3
        assert history.evicted == 2
        assert history.records()[0].seq == 2
        assert history.next_seq == 5

    def test_since_window(self):
        a, b = _two_nodes()
        history = SyncHistory(maxlen=16)
        engine = WireSyncEngine(history=history)
        for step in range(4):
            a.write("k", step)
            engine.sync(a.store, b.store)
        assert [r.seq for r in history.since(1)] == [1, 2, 3]
        assert [r.seq for r in history.since(1, until=3)] == [1, 2]

    def test_lost_keys_record_reason_and_fault_counters(self):
        a, b = _two_nodes()
        network = a.network
        # Total loss: every transfer dies, so the key is request-lost.
        transport = FaultyTransport(network, plan=FaultPlan(loss=1.0), seed=0)
        history = SyncHistory(maxlen=8)
        engine = WireSyncEngine(
            history=history, transport=transport, retry=RetryPolicy(attempts=2)
        )
        a.write("k", 1)
        engine.sync(a.store, b.store)
        (record,) = history.records()
        assert record.keys_synced == ()
        assert record.lost_reason("k") in ("request-lost", "response-lost")
        assert record.involves("k") and not record.carried("k")
        assert record.dropped >= 2
        assert record.deliveries_failed == 1

    def test_an_aborted_session_records_its_keys_and_tally(self):
        a, b = _two_nodes()
        history = SyncHistory(maxlen=8)
        engine = WireSyncEngine(history=history)
        a.write("same", 1)
        engine.sync(a.store, b.store)
        sent = engine.meter.messages
        a.write("fresh", 2)
        session = engine.session(a.store, b.store)
        assert isinstance(next(session), TransferEffect)  # digest leg
        assert isinstance(next(session), TransferEffect)  # response leg
        with pytest.raises(SessionAbort):
            session.throw(SessionAbort())
        record = history.records()[-1]
        assert record.seq == 1
        # The digests settled "same"; the rollback undid "fresh".
        assert record.keys_synced == ("same",)
        assert record.keys_lost == (("fresh", "aborted"),)
        assert b.store.get("fresh") == []
        assert record.messages == 2
        assert engine.meter.messages == sent + 2


@pytest.mark.parametrize("family", ["version-stamp", "causal-history"])
def test_history_bound_holds_over_2000_step_soak(family):
    """O(maxlen) memory, monotone seq, well-formed records, for 2,000 steps."""
    maxlen = 64
    network = FullyConnectedNetwork()
    transport = FaultyTransport(
        network, plan=FaultPlan.chaos(loss=0.15), seed=7
    )
    history = SyncHistory(maxlen=maxlen)
    engine = WireSyncEngine(
        history=history, transport=transport, retry=RetryPolicy(attempts=3)
    )
    first = MobileNode.first(
        "n0", network, tracker_factory=kernel.family(family).factory
    )
    nodes = [first] + [first.spawn_peer(f"n{i}") for i in range(1, 4)]
    # Auto-compaction keeps version-stamp metadata wire-encodable over a
    # soak this long (and exercises history recording across epoch bumps).
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(7),
        engine=engine,
        compact_threshold_bits=384,
    )
    rng = random.Random(7)
    names = {node.node_id for node in nodes}
    last_seq = -1
    for step in range(2000):
        if step % 3 == 0:
            nodes[rng.randrange(len(nodes))].write(f"key-{rng.randrange(4)}", step)
        gossip.run_round()
        assert len(history) <= maxlen
        for record in history:
            assert {record.first, record.second} <= names
            assert record.first != record.second
            lost_keys = {key for key, _ in record.keys_lost}
            assert not (set(record.keys_synced) & lost_keys)
            assert record.messages >= 0 and record.bytes_sent >= 0
    for record in history.records():
        assert record.seq > last_seq
        last_seq = record.seq
    assert len(history) == maxlen
    assert history.next_seq == len(history) + history.evicted
    # The soak really did rotate the ring many times over.
    assert history.evicted > maxlen
