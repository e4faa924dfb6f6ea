"""Lockstep-equality proofs for the async anti-entropy service.

The load-bearing claims, tested per clock family:

* sharded synchronous sync (``keys=`` restriction per shard) is exactly
  equal to unsharded sync -- the soundness of the sharding hook;
* the async service in lockstep mode is **byte-identical** to the
  synchronous :class:`~repro.replication.WireSyncEngine` reference on the
  same schedule -- state digests *and* meter counters -- including under
  the full chaos fault matrix;
* overlap mode (concurrent sessions under per-(replica, shard) locks) is
  deterministic for a fixed seed and converges to the same final state.
"""

import pytest

from repro import kernel
from repro.replication import FaultPlan, FaultyTransport, WireSyncEngine
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    KeyShards,
    LinkProfile,
    build_cluster,
    gossip_schedule,
    replay_schedule_sync,
)

FAMILIES = kernel.families()

REPLICAS = 10
KEYS = 6
ROUNDS = 6


def digest(nodes):
    """Canonical state fingerprint: every node's siblings for every key."""
    return [
        (node.node_id, key, sorted(repr(value) for value in node.store.get(key)))
        for node in nodes
        for key in sorted(node.store.keys())
    ]


def meter_state(meter):
    return meter.snapshot() + meter.fault_snapshot()


@pytest.mark.parametrize("family", FAMILIES)
class TestShardingSoundness:
    def test_sharded_sync_equals_unsharded_sync(self, family):
        whole_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=4)
        shard_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=4)
        schedule = gossip_schedule(REPLICAS, ROUNDS, seed=9)
        replay_schedule_sync(whole_nodes, schedule, WireSyncEngine(), shards=1)
        replay_schedule_sync(shard_nodes, schedule, WireSyncEngine(), shards=3)
        assert digest(whole_nodes) == digest(shard_nodes)

    def test_shard_parts_cover_the_key_space(self, family):
        nodes, keys = build_cluster(4, keys=KEYS, family=family, seed=0)
        shards = KeyShards(3)
        parts = shards.split(keys)
        assert sorted(key for part in parts for key in part) == sorted(keys)


@pytest.mark.parametrize("family", FAMILIES)
class TestLockstepEquality:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_async_lockstep_matches_sync_reference_under_chaos(self, family, shards):
        sync_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=7)
        async_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=7)
        schedule = gossip_schedule(REPLICAS, ROUNDS, seed=3)
        plan = FaultPlan.chaos()
        sync_engine = WireSyncEngine(
            transport=FaultyTransport(sync_nodes[0].network, plan=plan, seed=11)
        )
        async_engine = AsyncWireSyncEngine(
            transport=FaultyTransport(async_nodes[0].network, plan=plan, seed=11)
        )
        replay_schedule_sync(sync_nodes, schedule, sync_engine, shards=shards)
        service = AntiEntropyService(
            async_nodes,
            engine=async_engine,
            shards=shards,
            lockstep=True,
            link=LinkProfile(latency=0.002, bandwidth=1e6, jitter=0.3),
        )
        service.run(schedule=schedule, until_converged=False)
        assert digest(async_nodes) == digest(sync_nodes)
        assert meter_state(async_engine.meter) == meter_state(sync_engine.meter)

    def test_round_by_round_digests_match(self, family):
        sync_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=2)
        async_nodes, _ = build_cluster(REPLICAS, keys=KEYS, family=family, seed=2)
        schedule = gossip_schedule(REPLICAS, ROUNDS, seed=5)
        plan = FaultPlan.lossy(0.15)
        sync_engine = WireSyncEngine(
            transport=FaultyTransport(sync_nodes[0].network, plan=plan, seed=1)
        )
        async_engine = AsyncWireSyncEngine(
            transport=FaultyTransport(async_nodes[0].network, plan=plan, seed=1)
        )
        sync_digests = []
        for row in schedule:
            replay_schedule_sync(sync_nodes, [row], sync_engine, shards=2)
            sync_digests.append(digest(sync_nodes))
        async_digests = []
        service = AntiEntropyService(
            async_nodes, engine=async_engine, shards=2, lockstep=True
        )
        service.run(
            schedule=schedule,
            until_converged=False,
            on_round=lambda metrics: async_digests.append(digest(async_nodes)),
        )
        assert async_digests == sync_digests


class TestOverlapMode:
    def test_overlap_converges_and_is_deterministic(self):
        def one_run():
            nodes, _ = build_cluster(20, keys=8, seed=6)
            service = AntiEntropyService(
                nodes,
                shards=4,
                seed=13,
                link=LinkProfile(latency=0.001, bandwidth=1e6, jitter=0.2),
            )
            report = service.run(max_rounds=30)
            return digest(nodes), meter_state(service.engine.meter), report.converged_after

        first = one_run()
        second = one_run()
        assert first == second
        assert first[2] is not None

    def test_overlap_matches_lockstep_final_state_on_perfect_wire(self):
        lockstep_nodes, _ = build_cluster(12, keys=6, seed=8)
        overlap_nodes, _ = build_cluster(12, keys=6, seed=8)
        schedule = gossip_schedule(12, 8, seed=2)
        AntiEntropyService(lockstep_nodes, shards=3, lockstep=True).run(
            schedule=schedule, until_converged=False
        )
        AntiEntropyService(overlap_nodes, shards=3, lockstep=False).run(
            schedule=schedule, until_converged=False
        )
        # Same sessions, perfect transport: final states agree even though
        # overlap interleaves sessions on the virtual clock.
        assert digest(overlap_nodes) == digest(lockstep_nodes)

    def test_overlap_round_is_shorter_than_lockstep_round(self):
        def run(lockstep):
            nodes, _ = build_cluster(16, keys=8, seed=1)
            service = AntiEntropyService(
                nodes,
                shards=4,
                lockstep=lockstep,
                link=LinkProfile(latency=0.01, bandwidth=1e6),
            )
            report = service.run(
                schedule=gossip_schedule(16, 3, seed=4), until_converged=False
            )
            return report.virtual_seconds

        # Overlap's virtual time is the longest chain, lockstep's the sum.
        assert run(lockstep=False) < run(lockstep=True)


class TestPartitionedScheduling:
    def test_gossip_respects_partitions_then_heals(self):
        from repro.replication import PartitionedNetwork

        network = PartitionedNetwork()
        nodes, keys = build_cluster(8, keys=4, seed=2, network=network)
        left = [node.node_id for node in nodes[:4]]
        right = [node.node_id for node in nodes[4:]]
        network.set_partitions([left, right])
        service = AntiEntropyService(nodes, shards=2, seed=1)
        report = service.run(max_rounds=6, until_converged=False)
        # Peers are only ever drawn inside a partition side, so sessions
        # all run (nothing skipped) but the sides cannot agree.
        assert all(metrics.skipped == 0 for metrics in report.rounds)
        assert not service.converged()
        network.heal()
        healed = service.run(max_rounds=20)
        assert healed.converged_after is not None

    def test_explicit_cross_partition_pairs_are_skipped(self):
        from repro.replication import PartitionedNetwork

        network = PartitionedNetwork()
        nodes, _ = build_cluster(4, keys=2, seed=0, network=network)
        network.set_partitions([[n.node_id for n in nodes[:2]],
                                [n.node_id for n in nodes[2:]]])
        service = AntiEntropyService(nodes, lockstep=True)
        report = service.run(
            schedule=[[(0, 2), (1, 3), (0, 1)]], until_converged=False
        )
        assert report.rounds[0].skipped == 2
        assert report.rounds[0].exchanges == 1

    def test_crashed_replicas_drop_out_of_the_schedule(self):
        nodes, _ = build_cluster(6, keys=3, seed=4)
        nodes[0].crash()
        service = AntiEntropyService(nodes, seed=2)
        report = service.run(max_rounds=12)
        assert report.converged_after is not None
        # The dead replica never initiates: at most one session per live node.
        assert all(metrics.exchanges <= 5 for metrics in report.rounds)


class TestReporting:
    def test_report_surfaces_percentiles_and_costs(self):
        nodes, keys = build_cluster(16, keys=4, seed=3)
        service = AntiEntropyService(
            nodes, shards=2, seed=5, link=LinkProfile(latency=0.001, bandwidth=1e6)
        )
        report = service.run(max_rounds=20)
        assert report.converged_after is not None
        assert report.total_bytes > 0
        assert report.bytes_per_key(len(keys)) > 0
        rounds_p = report.round_duration_percentiles()
        assert rounds_p[0.5] <= rounds_p[0.9] <= rounds_p[0.99]
        session_p = report.session_latency_percentiles()
        assert session_p[0.99] >= session_p[0.5] > 0
        assert report.rounds[-1].converged
