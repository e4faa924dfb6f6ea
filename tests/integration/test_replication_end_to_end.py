"""End-to-end replication scenarios exercising the whole stack.

These are the paper's motivating situations run against the library: mobile
nodes operating under partitions, replicas created inside partitions without
any identifier authority, conflicts detected exactly where the causal-history
oracle says they should be, and convergence after partitions heal.
"""

import random

import pytest

from repro.core.order import Ordering
from repro.replication.conflict import MergeWith
from repro.replication.network import (
    PartitionSchedule,
    PartitionedNetwork,
    ProximityNetwork,
    ScheduledNetwork,
)
from repro.replication.node import MobileNode
from repro.replication.store import StoreReplica
from repro.replication.synchronizer import AntiEntropy
from repro.replication.tracker import DynamicVVTracker
from repro.vv.id_source import CentralIdSource, IdAllocationError


class TestPartitionedOperation:
    """Replica creation and conflict tracking under partitions (Section 1)."""

    def test_replica_creation_inside_partition_with_stamps(self):
        # Two field teams go offline; each creates more replicas locally and
        # edits its copies.  Stamps never need an identifier authority.
        network = PartitionedNetwork([["hq", "field1"], ["field2", "field2b"]])
        hq = MobileNode.first("hq", network)
        hq.write("doc", "v0")
        field1 = hq.spawn_peer("field1")
        field2 = hq.spawn_peer("field2")

        # field2 is partitioned away and forks yet another replica locally.
        field2b = field2.spawn_peer("field2b")
        field2.write("doc", "field2 edit")
        field2.sync_with(field2b)

        hq.write("doc", "hq edit")
        hq.sync_with(field1)

        # Heal the partition and reconcile everything.
        network.heal()
        gossip = AntiEntropy([hq, field1, field2, field2b], rng=random.Random(0))
        gossip.rounds_to_convergence(max_rounds=30)

        # The two edits were concurrent: every node must see both siblings.
        for node in (hq, field1, field2, field2b):
            assert sorted(node.read("doc")) == ["field2 edit", "hq edit"]

    def test_replica_creation_fails_for_dynamic_vv_under_partition(self):
        # The identifier-based baseline cannot create replicas while the
        # authority is unreachable -- the limitation stamps remove.
        origin = StoreReplica(
            "origin",
            tracker_factory=lambda: DynamicVVTracker(id_source=CentralIdSource()),
        )
        origin.put("doc", 0)
        with pytest.raises(IdAllocationError):
            origin.fork("offline-copy", connected=False)

    def test_same_scenario_succeeds_with_stamps(self):
        origin = StoreReplica("origin")
        origin.put("doc", 0)
        clone = origin.fork("offline-copy", connected=False)
        clone.put("doc", 1)
        assert origin.tracker_of("doc").compare(clone.tracker_of("doc")) is Ordering.BEFORE
        origin.sync_with(clone)
        assert origin.get("doc") == [1]


class TestConflictAccuracy:
    """Conflicts reported by stamps match what actually happened."""

    def test_no_false_conflicts_on_sequential_edits(self):
        network = PartitionedNetwork()
        a = MobileNode.first("a", network)
        a.write("k", 1)
        b = a.spawn_peer("b")
        gossip = AntiEntropy([a, b], rng=random.Random(1))
        for value in range(2, 8):
            a.write("k", value)
            gossip.run_round()
        assert gossip.total_conflicts() == 0
        assert b.read("k") == [7]

    def test_exactly_one_conflict_for_one_concurrent_pair(self):
        network = PartitionedNetwork([["a"], ["b"]])
        a = MobileNode.first("a", network)
        a.write("k", "base")
        b = a.spawn_peer("b")
        a.write("k", "a-edit")
        b.write("k", "b-edit")
        network.heal()
        report = a.sync_with(b)
        assert report.conflicts_detected == 1
        # A later write resolves the conflict everywhere.
        a.write("k", "resolved")
        a.sync_with(b)
        assert b.read("k") == ["resolved"]

    def test_merge_policy_collapses_conflicts(self):
        network = PartitionedNetwork()
        a = MobileNode.first("a", network, policy=MergeWith(lambda values: max(values)))
        a.write("counter", 1)
        b = a.spawn_peer("b")
        a.write("counter", 10)
        b.write("counter", 7)
        a.sync_with(b)
        assert a.read("counter") == [10]
        assert b.read("counter") == [10]


class TestScheduledAndProximityNetworks:
    def test_scheduled_partition_then_heal(self):
        schedule = PartitionSchedule(
            phases=[
                (3, [["a", "b"], ["c", "d"]]),
                (100, [["a", "b", "c", "d"]]),
            ]
        )
        network = ScheduledNetwork(schedule)
        a = MobileNode.first("a", network)
        a.write("shared", 0)
        b = a.spawn_peer("b")
        c = a.spawn_peer("c")
        d = a.spawn_peer("d")
        a.write("left", 1)
        c.write("right", 2)
        gossip = AntiEntropy([a, b, c, d], rng=random.Random(2))
        gossip.run(3)
        # While partitioned, the other side's key is absent.
        assert a.read("right") == []
        rounds = gossip.rounds_to_convergence(max_rounds=40)
        assert rounds is not None
        assert a.read("right") == [2]
        assert c.read("left") == [1]

    def test_proximity_clusters_eventually_mix(self):
        network = ProximityNetwork(arena=60, radio_range=25, rng=random.Random(3))
        first = MobileNode.first("m0", network)
        network.add_node("m0")
        first.write("note", "hello")
        nodes = [first]
        for index in range(1, 5):
            node = nodes[-1].spawn_peer(f"m{index}")
            network.add_node(f"m{index}")
            nodes.append(node)
        gossip = AntiEntropy(nodes, rng=random.Random(4))
        # Ten rounds mix the clusters thoroughly.  The note is written once,
        # so its copies compare EQUAL and gossip keeps their trackers.
        gossip.run(10)
        holders = sum(1 for node in nodes if node.read("note") == ["hello"])
        assert holders >= 3


class TestMetadataFootprint:
    def test_stamp_metadata_stays_bounded_under_repeated_sync(self):
        network = PartitionedNetwork()
        a = MobileNode.first("a", network)
        a.write("k", 0)
        b = a.spawn_peer("b")
        gossip = AntiEntropy([a, b], rng=random.Random(5))
        sizes = []
        for round_number in range(30):
            a.write("k", round_number)
            gossip.run_round()
            sizes.append(gossip.total_metadata_bits())
        # The footprint must not grow linearly with the number of rounds:
        # the last measurements stay within a small factor of the early ones.
        assert max(sizes[-5:]) <= max(sizes[:5]) * 3
