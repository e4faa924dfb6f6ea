"""Unit tests for mobile nodes and anti-entropy synchronization."""

import random

import pytest

from repro import kernel
from repro.core.errors import ReplicationError
from repro.replication.network import FullyConnectedNetwork, PartitionedNetwork
from repro.replication.node import MobileNode, replicas_agree
from repro.replication.synchronizer import AntiEntropy, WireSyncEngine
from repro.replication.tracker import DynamicVVTracker, KernelTracker


def _population(network, count=4, family="version-stamp"):
    """Build ``count`` nodes forked from a single seed node."""
    first = MobileNode.first(
        "n0", network, tracker_factory=KernelTracker.factory(family)
    )
    nodes = [first]
    for index in range(1, count):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    return nodes


class TestMobileNode:
    def test_first_node_and_spawn(self):
        network = FullyConnectedNetwork()
        first = MobileNode.first("n0", network)
        peer = first.spawn_peer("n1")
        assert peer.node_id == "n1"
        assert peer.store.keys() == first.store.keys()

    def test_write_and_read(self):
        node = MobileNode.first("n0", FullyConnectedNetwork())
        node.write("k", "v")
        assert node.read("k") == ["v"]

    def test_sync_requires_connectivity(self):
        network = PartitionedNetwork([["n0"], ["n1"]])
        first = MobileNode.first("n0", network)
        second = first.spawn_peer("n1")
        with pytest.raises(ReplicationError):
            first.sync_with(second)
        assert first.sync_failures == 1

    def test_sync_propagates_writes(self):
        network = FullyConnectedNetwork()
        first = MobileNode.first("n0", network)
        second = first.spawn_peer("n1")
        first.write("k", "v")
        first.sync_with(second)
        assert second.read("k") == ["v"]

    def test_can_reach(self):
        network = PartitionedNetwork([["n0", "n1"], ["n2"]])
        nodes = _population(network, 3)
        assert nodes[0].can_reach(nodes[1])
        assert not nodes[0].can_reach(nodes[2])

    def test_repr(self):
        assert "n0" in repr(MobileNode.first("n0", FullyConnectedNetwork()))


class TestAntiEntropy:
    def test_convergence_on_connected_network(self):
        network = FullyConnectedNetwork()
        nodes = _population(network, 5)
        for index, node in enumerate(nodes):
            node.write(f"key-{index}", index)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        rounds = gossip.rounds_to_convergence(max_rounds=20)
        assert rounds is not None
        assert gossip.converged()
        for node in nodes:
            assert len(node.store.keys()) == len(nodes)

    def test_no_convergence_across_standing_partition(self):
        network = PartitionedNetwork([["n0", "n1"], ["n2", "n3"]])
        nodes = _population(network, 4)
        nodes[0].write("left", 1)
        nodes[2].write("right", 2)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        assert gossip.rounds_to_convergence(max_rounds=5) is None
        # But each side converges internally.
        assert nodes[1].read("left") == [1]
        assert nodes[3].read("right") == [2]
        assert nodes[0].read("right") == []

    def test_convergence_after_partition_heals(self):
        network = PartitionedNetwork([["n0", "n1"], ["n2", "n3"]])
        nodes = _population(network, 4)
        nodes[0].write("left", 1)
        nodes[2].write("right", 2)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        gossip.run(5)
        network.heal()
        assert gossip.rounds_to_convergence(max_rounds=20) is not None
        assert nodes[0].read("right") == [2]

    def test_conflicts_detected_and_preserved(self):
        network = PartitionedNetwork([["n0"], ["n1"]])
        first = MobileNode.first("n0", network)
        second = first.spawn_peer("n1")
        first.write("k", "from-n0")
        second.write("k", "from-n1")
        network.heal()
        gossip = AntiEntropy([first, second], rng=random.Random(1))
        gossip.run(3)
        assert gossip.total_conflicts() >= 1
        assert sorted(first.read("k")) == ["from-n0", "from-n1"]

    def test_round_reports_track_partition_skips(self):
        network = PartitionedNetwork([["n0"], ["n1"]])
        nodes = _population(network, 2)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        report = gossip.run_round()
        assert report.skipped_partitioned == 2
        assert report.exchanges == 0

    def test_add_node_joins_gossip(self):
        network = FullyConnectedNetwork()
        nodes = _population(network, 2)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        newcomer = nodes[0].spawn_peer("n9")
        gossip.add_node(newcomer)
        nodes[0].write("k", 1)
        gossip.run(5, advance_network=False)
        assert newcomer.read("k") == [1]

    def test_total_metadata_bits_positive(self):
        nodes = _population(FullyConnectedNetwork(), 3)
        gossip = AntiEntropy(nodes)
        nodes[0].write("k", 1)
        assert gossip.total_metadata_bits() > 0

    def test_single_node_population_is_trivially_converged(self):
        nodes = _population(FullyConnectedNetwork(), 1)
        gossip = AntiEntropy(nodes)
        gossip.run_round()
        assert gossip.converged()

    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    def test_engine_errors_propagate_out_of_the_round(self, explicit):
        # Peers are filtered by reachability before the sync, so an error
        # the engine raises is not a partition: here the dynamic-VV
        # baseline's trackers have no byte form to ship.
        first = MobileNode.first(
            "n0", FullyConnectedNetwork(), tracker_factory=DynamicVVTracker
        )
        first.write("k", 1)
        nodes = [first, first.spawn_peer("n1")]
        options = {"engine": WireSyncEngine()} if explicit else {}
        gossip = AntiEntropy(nodes, rng=random.Random(1), **options)
        with pytest.raises(ReplicationError, match="kernel clock trackers"):
            gossip.run_round()

    @pytest.mark.parametrize("family", kernel.families())
    def test_default_gossip_keeps_equal_trackers(self, family):
        nodes = _population(FullyConnectedNetwork(), 5, family)
        for index, node in enumerate(nodes):
            node.write(f"key-{index}", index)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        assert gossip.rounds_to_convergence(max_rounds=20) is not None
        bits = gossip.total_metadata_bits()
        gossip.run(4)
        # Converged keys compare EQUAL everywhere, so idle rounds re-ship
        # the same trackers and change none of them.
        assert gossip.total_metadata_bits() == bits
        assert all(report.messages_sent > 0 for report in gossip.reports)


class TestReplicasAgree:
    """The one convergence check both gossip drivers answer with."""

    def test_divergent_key_is_reported_until_synced(self):
        nodes = _population(FullyConnectedNetwork(), 3)
        nodes[0].write("k", 1)
        assert not replicas_agree(nodes)
        nodes[0].sync_with(nodes[1])
        nodes[1].sync_with(nodes[2])
        assert replicas_agree(nodes)

    def test_only_the_named_keys_are_checked(self):
        nodes = _population(FullyConnectedNetwork(), 2)
        nodes[0].write("stale", 1)
        assert replicas_agree(nodes, keys=["other"])
        assert not replicas_agree(nodes, keys=["stale"])

    def test_crashed_nodes_are_ignored(self):
        nodes = _population(FullyConnectedNetwork(), 3)
        nodes[2].write("k", 1)
        nodes[2].crash()
        assert replicas_agree(nodes)
        assert replicas_agree([nodes[2]])

    def test_both_drivers_share_the_check(self):
        from repro.service import AntiEntropyService, build_cluster

        nodes, keys = build_cluster(4, keys=3, seed=2)
        gossip = AntiEntropy(nodes, rng=random.Random(1))
        service = AntiEntropyService(nodes)
        assert gossip.converged() == service.converged() == replicas_agree(nodes)
        assert not gossip.converged()
        service.run(max_rounds=20)
        assert gossip.converged(keys) and service.converged(keys)
