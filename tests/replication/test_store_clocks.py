"""Every store path leaves a bare kernel clock on each key.

A store's per-key tracker is the clock itself: the store, the wire
engine, compaction and recovery call the kernel protocol directly and
never wrap a clock.  Each test drives one path for all four families and
then checks that every ``KeyState.tracker`` of every store it touched is
an instance of exactly the family's clock class.
"""

import random

import pytest

from repro import kernel
from repro.replication import (
    AntiEntropy,
    FaultyTransport,
    FullyConnectedNetwork,
    KeepBoth,
    MergeWith,
    MobileNode,
    PartitionedNetwork,
    RetryPolicy,
    StoreReplica,
    WireSyncEngine,
)

FAMILIES = kernel.families()


def assert_clocks(family, *stores):
    expected = kernel.family(family).factory
    for store in stores:
        assert store._keys, f"{store.name} holds no key to check"
        for key, state in store._keys.items():
            assert type(state.tracker) is expected, (store.name, key, state.tracker)


def _store(name, family, **kwargs):
    return StoreReplica(name, tracker_factory=kernel.family(family).factory, **kwargs)


def _nodes(family, count, network):
    first = MobileNode.first(
        "n0", network, tracker_factory=kernel.family(family).factory
    )
    return [first] + [first.spawn_peer(f"n{index}") for index in range(1, count)]


class _ResponseLegKiller(FaultyTransport):
    """Delivers a session's first leg and drops every later one."""

    def __init__(self, network, **kwargs):
        super().__init__(network, **kwargs)
        self.legs_seen = 0

    def transfer_batch(self, source, destination, blobs):
        self.legs_seen += 1
        if self.legs_seen > 1:
            self.meter.record_drop(len(blobs))
            return []
        return super().transfer_batch(source, destination, blobs)


@pytest.mark.parametrize("family", FAMILIES)
class TestStorePathsHoldKernelClocks:
    def test_put_fork_and_observe(self, family):
        store = _store("a", family)
        store.put("k", 1)
        assert_clocks(family, store)
        clone = store.fork("b")
        assert_clocks(family, store, clone)
        observer = store.observe("k")
        assert type(observer) is kernel.family(family).factory
        assert_clocks(family, store)

    def test_replication_in_both_directions(self, family):
        first, second = _store("a", family), _store("b", family)
        first.put("from-first", 1)
        second.put("from-second", 2)
        report = WireSyncEngine().sync(first, second)
        assert report.keys_replicated == 2
        assert sorted(first.keys()) == sorted(second.keys())
        assert_clocks(family, first, second)

    @pytest.mark.parametrize(
        "policy",
        [KeepBoth(), MergeWith(lambda values: "+".join(sorted(map(str, values))))],
        ids=["keep-both", "merge-with"],
    )
    def test_concurrent_merge(self, family, policy):
        first = _store("a", family, policy=policy)
        first.put("k", "seed")
        second = first.fork("b")
        first.put("k", "left")
        second.put("k", "right")
        report = WireSyncEngine().sync(first, second)
        assert report.conflicts_detected == 1
        assert first.get("k") == second.get("k")
        assert_clocks(family, first, second)

    def test_epoch_straggler_upgrade(self, family):
        nodes = _nodes(family, 3, FullyConnectedNetwork())
        hub, peer, straggler = nodes
        hub.write("k", "v")
        engine = WireSyncEngine()
        gossip = AntiEntropy(nodes, rng=random.Random(2), engine=engine)
        gossip.run(4, until_converged=False)
        assert gossip.compact_key("k", participants=[hub, peer])
        assert straggler.store.tracker_of("k").epoch == 0
        report = engine.sync(hub.store, straggler.store)
        assert report.epoch_upgrades == 1
        assert straggler.store.tracker_of("k").epoch == 1
        assert_clocks(family, hub.store, peer.store, straggler.store)

    def test_response_leg_rollback(self, family):
        transport = _ResponseLegKiller(FullyConnectedNetwork(), seed=3)
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=2))
        first, second = _store("a", family), _store("b", family)
        first.put("mine", 1)
        second.put("theirs", 2)
        before = (first._keys["mine"].tracker, second._keys["theirs"].tracker)
        engine.sync(first, second)
        assert first.keys() == ["mine"] and second.keys() == ["theirs"]
        assert (first._keys["mine"].tracker, second._keys["theirs"].tracker) == before
        assert_clocks(family, first, second)

    def test_compaction_bump(self, family):
        nodes = _nodes(family, 3, PartitionedNetwork())
        nodes[0].write("k", "v")
        gossip = AntiEntropy(nodes, rng=random.Random(4))
        gossip.run(4, until_converged=False)
        assert gossip.compact_key("k")
        assert {node.store.tracker_of("k").epoch for node in nodes} == {1}
        assert_clocks(family, *(node.store for node in nodes))

    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_recovery(self, family, backend, tmp_path):
        path = tmp_path / "store"
        store = _store("a", family, durable=True, path=path, backend=backend)
        store.put("snapshotted", 1)
        store.journal.snapshot(store)
        store.put("journaled", 2)
        peer = _store("b", family)
        peer.put("replicated", 3)
        WireSyncEngine().sync(store, peer)
        store.journal.close()
        recovered, report = StoreReplica.recover(path, name="a", backend=backend)
        assert report.snapshot_keys == 1 and report.records_replayed > 0
        assert recovered.keys() == ["journaled", "replicated", "snapshotted"]
        assert_clocks(family, recovered)
        recovered.journal.close()
