"""Recovery equality: a recovered replica is lockstep-equal to pre-crash.

The tentpole proof obligation of the durability layer: after ``recover()``
the replica's values, tracker stamps (byte for byte, through the
canonical envelope codec) and epochs equal the pre-crash configuration --
for all four kernel families, on both backends, including crashes
injected mid-sync, mid-compaction and inside the snapshots the store's
durability barrier takes.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.core.errors import DurabilityError, ReplicationError
from repro.durability.inspect import inspect_path
from repro.durability.recovery import rebuild
from repro.durability.store import StoreJournal, open_log
from repro.replication.faults import FaultPlan, FaultyTransport
from repro.replication.network import PartitionedNetwork
from repro.replication.node import MobileNode
from repro.replication.store import StoreReplica
from repro.replication.synchronizer import AntiEntropy, WireSyncEngine
from repro.replication import DynamicVVTracker

FAMILIES = kernel.families()
BACKENDS = ("file", "sqlite")


def store_fingerprint(store):
    """Everything recovery must reproduce: values, tracker bytes, epochs,
    origin flags -- per key."""
    out = {}
    for key in store.keys():
        state = store._keys[key]
        out[key] = (
            sorted(repr(v) for v in state.values),
            state.tracker.to_bytes(),
            state.tracker.epoch,
            state.independently_created,
        )
    return out


def assert_lockstep_equal(recovered, original):
    assert store_fingerprint(recovered) == store_fingerprint(original)


def durable_store(tmp_path, family, backend, name="a", **kwargs):
    return StoreReplica(
        name,
        tracker_factory=kernel.family(family).factory,
        durable=True,
        path=tmp_path / f"{name}-{family}-{backend}",
        backend=backend,
        **kwargs,
    )


def recover_same(store, tmp_path, family, backend, name="a"):
    store.journal.simulate_crash()
    return StoreReplica.recover(
        tmp_path / f"{name}-{family}-{backend}", name=name, backend=backend
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestRecoveryEquality:
    def test_puts_and_wire_syncs_recover_exactly(self, tmp_path, family, backend):
        a = durable_store(tmp_path, family, backend)
        b = StoreReplica("b", tracker_factory=kernel.family(family).factory)
        engine = WireSyncEngine()
        a.put("x", 1)
        a.put("y", {"nested": [1, 2]})
        b.put("z", "other-origin")
        engine.sync(a, b)
        a.put("x", 2)
        b.put("z", "updated")
        engine.sync(a, b)
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert report.clean
        assert_lockstep_equal(recovered, a)

    def test_in_memory_sync_recovers_exactly(self, tmp_path, family, backend):
        """``sync_with`` (one wire session) against a non-durable fork."""
        a = durable_store(tmp_path, family, backend)
        a.put("k", "seed")
        b = a.fork("b")
        a.put("k", "va")
        b.put("k", "vb")  # concurrent writes: a genuine conflict
        a.sync_with(b)
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert report.clean
        assert_lockstep_equal(recovered, a)
        assert recovered.has_conflict("k")

    def test_in_memory_sync_recovers_both_sides(self, tmp_path, family, backend):
        """``sync_with`` (one wire session) journals both durable sides."""
        a = durable_store(tmp_path, family, backend)
        b = durable_store(tmp_path, family, backend, name="b")
        a.put("k", "seed")
        b.put("j", "other")
        a.sync_with(b)
        a.put("k", "va")
        b.put("k", "vb")  # concurrent writes: a genuine conflict
        a.sync_with(b)
        for store, name in ((a, "a"), (b, "b")):
            recovered, report = recover_same(
                store, tmp_path, family, backend, name=name
            )
            assert report.clean
            assert_lockstep_equal(recovered, store)

    def test_recovery_composes_across_crashes(self, tmp_path, family, backend):
        a = durable_store(tmp_path, family, backend)
        a.put("k", 1)
        first, _ = recover_same(a, tmp_path, family, backend)
        first.put("k", 2)
        first.put("j", 3)
        second, report = recover_same(first, tmp_path, family, backend)
        assert report.clean
        assert_lockstep_equal(second, first)

    def test_reset_then_recover_is_empty(self, tmp_path, family, backend):
        a = durable_store(tmp_path, family, backend)
        a.put("k", 1)
        a.reset()
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert recovered.keys() == []
        assert report.clears_applied == 1

    def test_uncommitted_local_put_is_lost_cleanly(self, tmp_path, family, backend):
        """The documented crash window: records buffered past the last
        flush die, leaving the previous durable state -- never a torn
        half-state."""
        a = durable_store(tmp_path, family, backend)
        a.put("k", "durable")
        before = store_fingerprint(a)
        # Bypass put()'s flush to model a crash inside the window.
        a._keys["k"].values = ["volatile"]
        a._keys["k"].tracker = a._keys["k"].tracker.event()
        a.journal.record_key("k", a._keys["k"])
        a.journal.simulate_crash()
        recovered, report = StoreReplica.recover(
            tmp_path / f"a-{family}-{backend}", name="a", backend=backend
        )
        assert report.clean
        assert store_fingerprint(recovered) == before

    def test_snapshot_plus_tail_recovery(self, tmp_path, family, backend):
        a = durable_store(tmp_path, family, backend)
        for index in range(4):
            a.put(f"k{index}", index)
        a.journal.snapshot(a)
        a.put("k0", "post-snapshot")
        a.put("fresh", "tail-only")
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert report.snapshot_keys == 4
        assert report.records_replayed == 2
        assert_lockstep_equal(recovered, a)

    def test_auto_snapshot_threshold(self, tmp_path, family, backend):
        a = durable_store(tmp_path, family, backend, snapshot_every=5)
        for index in range(12):
            a.put("k", index)
        assert a.journal.snapshots_written >= 2
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert_lockstep_equal(recovered, a)

    def test_recovery_keeps_counting_its_tail(self, tmp_path, family, backend):
        """A recovered journal counts the tail it replayed toward its next
        snapshot, so a store that crash-recovers more often than it fills
        its threshold still snapshots and keeps its tail bounded."""
        a = durable_store(tmp_path, family, backend, snapshot_every=50)
        path = tmp_path / f"a-{family}-{backend}"
        for index in range(200):
            a.put(f"k{index % 5}", index)
            if index % 10 == 9:
                before = store_fingerprint(a)
                a.journal.simulate_crash()
                a.journal.close()
                a, report = StoreReplica.recover(
                    path, name="a", backend=backend, snapshot_every=50
                )
                assert store_fingerprint(a) == before
                tail = inspect_path(path).journal.replayable
                assert tail == report.records_replayed
                assert tail == a.journal.records_since_snapshot
                # One put's barrier journals one record.
                assert tail <= 50 + 1
        assert inspect_path(path).snapshot.present


@pytest.mark.parametrize("family", FAMILIES)
class TestMidSyncCrash:
    """A crash in the middle of a faulty wire sync: the engine's per-key
    rollback restores in-memory state, and recovery lands on the same
    configuration (the journal is only advanced at the sync barrier)."""

    def test_mid_sync_crash_recovers_pre_sync_state(self, tmp_path, family):
        a = StoreReplica(
            "a",
            tracker_factory=kernel.family(family).factory,
            durable=True,
            path=tmp_path / "a",
        )
        b = StoreReplica("b", tracker_factory=kernel.family(family).factory)
        engine = WireSyncEngine()
        a.put("x", 1)
        b.put("y", 2)
        engine.sync(a, b)
        a.put("x", "pre-crash")
        pre_sync = store_fingerprint(a)

        # A transport that dies after the request leg: the response leg
        # loses everything, forcing the rollback path mid-sync.
        class DyingTransport:
            def __init__(self):
                self.legs = 0
                self.meter = None
                self.plan = FaultPlan()

            def transfer_batch(self, source, destination, blobs):
                self.legs += 1
                if self.legs > 1:
                    return []  # the crash: nothing ever arrives again
                return list(enumerate(blobs))

        faulty = WireSyncEngine(transport=DyingTransport())
        b.put("y", "concurrent")
        faulty.sync(a, b)
        # Whatever the rollback left in memory is what recovery must land on.
        post_rollback = store_fingerprint(a)
        a.journal.simulate_crash()
        recovered, report = StoreReplica.recover(tmp_path / "a", name="a")
        assert report.clean
        assert store_fingerprint(recovered) == post_rollback
        # And the rollback means that state is the pre-sync one.
        assert post_rollback == pre_sync


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("crash_point", ["snapshot-written", "snapshot-installed"])
class TestMidCompactionCrash:
    def test_mid_compaction_crash_recovers_exactly(
        self, tmp_path, family, backend, crash_point
    ):
        a = durable_store(tmp_path, family, backend)
        for index in range(5):
            a.put(f"k{index}", index)
        before = store_fingerprint(a)

        class Boom(Exception):
            pass

        def hook(point):
            if point == crash_point:
                raise Boom()

        a.journal.log.crash_hook = hook
        with pytest.raises(Boom):
            a.journal.snapshot(a)
        a.journal.log.crash_hook = None
        a.journal.simulate_crash()
        recovered, report = StoreReplica.recover(
            tmp_path / f"a-{family}-{backend}", name="a", backend=backend
        )
        assert report.clean
        assert store_fingerprint(recovered) == before
        # Crash after installation but before truncation: the journal
        # still holds records the snapshot covers; replay must skip them
        # by sequence number instead of double-applying.
        if crash_point == "snapshot-installed":
            assert report.records_skipped > 0

    def test_epoch_bump_compaction_crash(self, tmp_path, family, backend, crash_point):
        """Mid-compaction crash at the epoch bump: recovery lands either
        wholly before or wholly after the bump, never in between."""
        network = PartitionedNetwork()
        store = durable_store(tmp_path, family, backend, name="n0")
        n0 = MobileNode("n0", store, network)
        n0.write("k", "v")
        n1 = MobileNode("n1", store.fork("n1"), network)
        engine = WireSyncEngine()
        gossip = AntiEntropy([n0, n1], engine=engine)
        for step in range(3):
            n0.write("k", f"v{step}")
            gossip.run_round()

        class Boom(Exception):
            pass

        def hook(point):
            if point == crash_point:
                raise Boom()

        store.journal.log.crash_hook = hook
        epoch_before = store.tracker_of("k").epoch
        # The barrier keeps the tail below the default threshold, so give
        # the bump's one record a threshold it reaches.
        store.journal.snapshot_every = store.journal.records_since_snapshot + 1
        try:
            gossip.compact_key("k")
            crashed = False
        except Boom:
            crashed = True
        store.journal.log.crash_hook = None
        assert crashed
        post_crash = store_fingerprint(store)
        store.journal.simulate_crash()
        recovered, report = StoreReplica.recover(
            tmp_path / f"n0-{family}-{backend}", name="n0", backend=backend
        )
        assert report.clean
        recovered_epoch = recovered.tracker_of("k").epoch
        assert recovered_epoch in (epoch_before, epoch_before + 1)
        if crash_point == "snapshot-installed":
            # The bumped snapshot landed before the crash: recovery must
            # come back at the new epoch with the bumped tracker bytes.
            assert store_fingerprint(recovered) == post_crash
            assert recovered_epoch == epoch_before + 1

    @pytest.mark.parametrize("trigger", ["put", "sync-commit"])
    def test_barrier_snapshot_crash(
        self, tmp_path, family, backend, crash_point, trigger
    ):
        """A crash inside a snapshot the durability barrier takes on its own,
        at a put or at a sync commit.  The barrier commits the records before
        it snapshots, so recovery lands on the last flushed state."""
        a = durable_store(tmp_path, family, backend)
        if trigger == "put":

            def step(index):
                a.put(f"k{index % 3}", index)

        else:
            # ``a`` only ever changes through syncs, so every one of its
            # barriers is a sync commit.
            b = StoreReplica("b", tracker_factory=kernel.family(family).factory)
            engine = WireSyncEngine()

            def step(index):
                b.put(f"k{index % 3}", index)
                engine.sync(a, b)

        class Boom(Exception):
            pass

        def hook(point):
            if point == crash_point:
                raise Boom()

        a.journal.log.crash_hook = hook
        for index in range(64):
            try:
                step(index)
            except Boom:
                break
        else:
            pytest.fail("the barrier never snapshotted")
        a.journal.log.crash_hook = None
        flushed = store_fingerprint(a)
        recovered, report = recover_same(a, tmp_path, family, backend)
        assert report.clean
        assert store_fingerprint(recovered) == flushed
        if crash_point == "snapshot-installed":
            assert report.records_skipped > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_node_recover_restart_mode(tmp_path, family):
    network = PartitionedNetwork()
    store = StoreReplica(
        "n0",
        tracker_factory=kernel.family(family).factory,
        durable=True,
        path=tmp_path / "n0",
    )
    n0 = MobileNode("n0", store, network)
    n1 = MobileNode("n1", store.fork("n1"), network)
    n1.store.journal = StoreJournal(open_log(tmp_path / "n1"))
    for key in n1.store.keys():
        n1.store._record(key)
    n1.store._flush_journal()
    engine = WireSyncEngine()
    n0.write("k", "v1")
    engine.sync(n0.store, n1.store)
    n0.write("k", "v2")
    before = store_fingerprint(n0.store)
    n0.crash()
    report = n0.restart(mode="recover")
    assert report is not None and report.clean
    assert n0.last_recovery is report
    assert store_fingerprint(n0.store) == before
    # The recovered node keeps syncing normally.
    n0.write("k", "v3")
    engine.sync(n0.store, n1.store)
    assert n1.store.get("k") == ["v3"]


def test_recover_mode_needs_a_durable_store(tmp_path):
    network = PartitionedNetwork()
    node = MobileNode.first("n0", network)
    node.crash()
    with pytest.raises(ReplicationError):
        node.restart(mode="recover")


def test_unknown_restart_mode_is_typed(tmp_path):
    network = PartitionedNetwork()
    node = MobileNode.first("n0", network)
    with pytest.raises(ReplicationError):
        node.restart(mode="reincarnate")


def test_rejoin_empty_journals_the_clear(tmp_path):
    """Crash-stop restart of a durable node leaves a durable *empty* store:
    a later recover must not resurrect pre-crash keys."""
    network = PartitionedNetwork()
    store = StoreReplica(
        "n0",
        tracker_factory=kernel.family("version-stamp").factory,
        durable=True,
        path=tmp_path / "n0",
    )
    node = MobileNode("n0", store, network)
    node.write("k", "v")
    node.crash()
    node.restart(mode="rejoin-empty")
    node.store.journal.simulate_crash()
    recovered, report = StoreReplica.recover(tmp_path / "n0", name="n0")
    assert recovered.keys() == []
    assert report.clears_applied == 1


def test_antientropy_restart_uses_plan_mode(tmp_path):
    network = PartitionedNetwork()
    store = StoreReplica(
        "n0",
        tracker_factory=kernel.family("itc").factory,
        durable=True,
        path=tmp_path / "n0",
    )
    n0 = MobileNode("n0", store, network)
    n0.write("k", "v")
    transport = FaultyTransport(network, plan=FaultPlan(crash_restart="recover"))
    engine = WireSyncEngine(transport=transport)
    gossip = AntiEntropy([n0], engine=engine)
    gossip.crash(n0)
    gossip.restart(n0)
    # The plan chose recover: state survived the restart.
    assert n0.store.get("k") == ["v"]
    assert n0.last_recovery is not None


def test_durable_store_requires_path():
    with pytest.raises(ReplicationError):
        StoreReplica("a", durable=True)


def test_baseline_trackers_are_rejected_with_typed_error(tmp_path):
    store = StoreReplica(
        "a", tracker_factory=DynamicVVTracker, durable=True, path=tmp_path / "a"
    )
    with pytest.raises(DurabilityError):
        store.put("k", "v")


def test_default_store_journals_and_recovers(tmp_path):
    store = StoreReplica("a", durable=True, path=tmp_path / "a")
    store.put("k", "v")
    store.journal.simulate_crash()
    recovered, report = StoreReplica.recover(tmp_path / "a", name="a")
    assert report.clean
    assert recovered.get("k") == ["v"]
    assert recovered.tracker_of("k").family == "version-stamp"
    assert_lockstep_equal(recovered, store)


def test_rebuild_infers_family_from_recovered_state(tmp_path):
    log = open_log(tmp_path / "s")
    store = StoreReplica(
        "a",
        tracker_factory=kernel.family("causal-history").factory,
        journal=StoreJournal(log),
    )
    store.put("k", "v")
    rebuilt, _ = rebuild(log, name="a")
    rebuilt.put("fresh", "key")
    assert rebuilt.tracker_of("fresh").family == "causal-history"
