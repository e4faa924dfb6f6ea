"""Fault-injected anti-entropy: transport faults, retries, and upgrades.

Unit and integration coverage for :mod:`repro.replication.faults` and the
wire sync engine's graceful degradation: seeded loss/duplication/
reordering/corruption, bounded retry with backoff, idempotent re-delivery,
typed skip-and-report on damaged frames, per-key rollback when a response
leg dies, crash/restart recovery, and the epoch-gossip rule that upgrades
a stale-epoch straggler instead of raising ``EpochMismatch``.
"""

import random

import pytest

from repro import kernel
from repro.core.errors import FaultInjectionError
from repro.core.order import Ordering
from repro.replication import (
    AntiEntropy,
    FaultPlan,
    FaultyTransport,
    MobileNode,
    RetryPolicy,
    WireSyncEngine,
)
from repro.replication.network import FullyConnectedNetwork, PartitionedNetwork

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]

#: Five version-stamp replicas, 12 keys written up front, seed 424242 and
#: 4 retry attempts, gossiped to convergence at each loss level: rounds
#: to convergence, then messages, dropped, duplicated, corrupted and
#: retried.  Retries hide every fault, so no level costs an extra round.
FAULT_MATRIX_COSTS = {
    0.0: (2, 20, 0, 0, 0, 0),
    0.1: (2, 26, 3, 2, 3, 6),
    0.3: (2, 28, 8, 3, 0, 8),
}


def _population(family, count, network, *, seed=0):
    first = MobileNode.first(
        "n0", network, tracker_factory=kernel.family(family).factory
    )
    nodes = [first]
    for index in range(1, count):
        nodes.append(first.spawn_peer(f"n{index}"))
    return nodes


class TestFaultPlan:
    def test_rates_outside_unit_interval_are_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(loss=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(duplicate=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultPlan(corrupt_bits=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(outages=((5, 5),))

    def test_retry_policy_validation_and_backoff_bounds(self):
        with pytest.raises(FaultInjectionError):
            RetryPolicy(attempts=0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(factor=0.5)
        policy = RetryPolicy(attempts=5, base=0.1, factor=2.0, max_delay=0.3, jitter=0.5)
        rng = random.Random(0)
        for retry in range(1, 10):
            delay = policy.delay(retry, rng)
            # Bounded: never beyond max_delay * (1 + jitter), never negative.
            assert 0.0 <= delay <= 0.3 * 1.5

    def test_seeded_transport_replays_the_same_fault_schedule(self):
        blobs = [bytes([i]) * 20 for i in range(10)]
        plan = FaultPlan(loss=0.3, duplicate=0.2, reorder=0.5, corrupt=0.2)
        runs = []
        for _ in range(2):
            transport = FaultyTransport(FullyConnectedNetwork(), plan=plan, seed=99)
            runs.append(transport.transfer_batch("a", "b", blobs))
        assert runs[0] == runs[1]


class TestFaultyTransport:
    def test_loss_drops_every_message(self):
        transport = FaultyTransport(
            FullyConnectedNetwork(), plan=FaultPlan(loss=1.0), seed=1
        )
        assert transport.transfer_batch("a", "b", [b"x"] * 5) == []

    def test_duplication_delivers_extra_copies(self):
        transport = FaultyTransport(
            FullyConnectedNetwork(),
            plan=FaultPlan(duplicate=1.0, max_duplicates=1),
            seed=2,
        )
        deliveries = transport.transfer_batch("a", "b", [b"payload"])
        assert [payload for _, payload in deliveries] == [b"payload", b"payload"]

    def test_corruption_flips_exactly_the_configured_bits(self):
        transport = FaultyTransport(
            FullyConnectedNetwork(),
            plan=FaultPlan(corrupt=1.0, corrupt_bits=1),
            seed=3,
        )
        original = bytes(range(32))
        [(_, payload)] = transport.transfer_batch("a", "b", [original])
        flipped = sum(
            bin(a ^ b).count("1") for a, b in zip(original, payload)
        )
        assert flipped == 1

    def test_outage_windows_drop_everything_inside_the_window(self):
        transport = FaultyTransport(
            FullyConnectedNetwork(),
            plan=FaultPlan(outages=((0, 3),)),
            seed=4,
        )
        assert transport.transfer_batch("a", "b", [b"x"]) == []
        assert transport.transfer_batch("a", "b", [b"y"]) == []
        # Window passed (3 transfer attempts counted): traffic flows again.
        assert transport.transfer_batch("a", "b", [b"w"]) == [(0, b"w")]

    def test_crashed_endpoints_are_unreachable_until_restart(self):
        transport = FaultyTransport(FullyConnectedNetwork(), seed=5)
        assert transport.can_communicate("a", "b")
        transport.crash("b")
        assert not transport.can_communicate("a", "b")
        assert transport.reachable_from("a", ["b", "c"]) == {"c"}
        assert transport.transfer_batch("a", "b", [b"x"]) == []
        transport.restart("b")
        assert transport.can_communicate("a", "b")

    def test_partitioned_network_verdicts_are_honoured(self):
        network = PartitionedNetwork([["a"], ["b"]])
        transport = FaultyTransport(network, seed=6)
        assert transport.transfer_batch("a", "b", [b"x"]) == []
        network.heal()
        assert transport.transfer_batch("a", "b", [b"x"]) == [(0, b"x")]


class TestRetryAndGoodput:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_lossy_transport_converges_and_meters_the_fault_economy(self, family):
        transport = FaultyTransport(
            FullyConnectedNetwork(),
            plan=FaultPlan(loss=0.3, duplicate=0.15, reorder=0.5),
            seed=11,
        )
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=6))
        nodes = _population(family, 3, transport)
        for index, node in enumerate(nodes):
            node.write(f"key-{index}", f"value-{index}")
        gossip = AntiEntropy(nodes, rng=random.Random(7), engine=engine)
        reports = gossip.run(10, until_converged=False).rounds
        assert gossip.converged()
        meter = engine.meter
        assert meter.dropped > 0
        assert meter.retried > 0
        assert meter.retry_latency > 0.0
        assert 0.0 < meter.goodput() < 1.0
        # The fault economy is surfaced per round, not only in aggregate.
        assert sum(report.retried for report in reports) == meter.retried
        assert sum(report.dropped for report in reports) == meter.dropped
        assert any(0.0 < report.goodput <= 1.0 for report in reports)

    @pytest.mark.parametrize("loss", sorted(FAULT_MATRIX_COSTS))
    def test_fault_matrix_costs_no_extra_rounds(self, loss):
        seed = 424242
        plan = FaultPlan.perfect() if loss == 0.0 else FaultPlan.chaos(loss=loss)
        transport = FaultyTransport(PartitionedNetwork(), plan=plan, seed=seed)
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=4))
        nodes = [
            MobileNode.first(
                "n0", transport, tracker_factory=kernel.family("version-stamp").factory
            )
        ]
        for index in range(1, 5):
            nodes.append(nodes[-1].spawn_peer(f"n{index}"))
        rng = random.Random(seed + 1)
        for index in range(12):
            rng.choice(nodes).write(f"key{index}", f"value{index}")
        gossip = AntiEntropy(nodes, rng=random.Random(seed + 2), engine=engine)
        report = gossip.run(200)
        meter = engine.meter
        assert (
            report.converged_after,
            meter.messages,
            meter.dropped,
            meter.duplicated,
            meter.corrupted,
            meter.retried,
        ) == FAULT_MATRIX_COSTS[loss]
        assert engine.deliveries_failed == 0

    def test_perfect_transport_has_unit_goodput_and_no_faults(self):
        transport = FaultyTransport(FullyConnectedNetwork(), seed=12)
        engine = WireSyncEngine(transport=transport)
        nodes = _population("version-stamp", 2, transport)
        nodes[0].write("k", "v")
        gossip = AntiEntropy(nodes, rng=random.Random(1), engine=engine)
        gossip.run(3, until_converged=False)
        assert gossip.converged()
        assert engine.meter.fault_snapshot() == (0, 0, 0, 0, 0.0)
        assert engine.meter.goodput() == 1.0

    def test_exhausted_retry_budget_degrades_without_error(self):
        transport = FaultyTransport(
            FullyConnectedNetwork(), plan=FaultPlan(loss=1.0), seed=13
        )
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=2))
        nodes = _population("itc", 2, transport)
        nodes[0].write("k", "v")
        engine.sync(nodes[0].store, nodes[1].store)
        # Nothing got through: no replication survived (the attempted
        # transfer was rolled back), nothing was lost locally, and no
        # exception escaped.
        assert nodes[1].store.get("k") == []
        assert nodes[0].store.get("k") == ["v"]
        assert engine.deliveries_failed > 0


def _store_fingerprint(node):
    """Values plus canonical tracker bytes per key (epoch included)."""
    result = {}
    for key in node.store.keys():
        tracker = node.store.tracker_of(key)
        result[key] = (
            sorted(repr(value) for value in node.store.get(key)),
            tracker.epoch,
        )
    return result


class TestIdempotentRedelivery:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_duplicated_delivery_leaves_configurations_identical(self, family):
        """Satellite: duplicate delivery of any sync message is a no-op.

        The same seeded scenario runs twice -- once on a perfect transport
        and once with every message duplicated -- and must end with
        identical store configurations and epoch state.
        """
        outcomes = []
        for plan in (FaultPlan(), FaultPlan(duplicate=1.0, max_duplicates=2)):
            transport = FaultyTransport(FullyConnectedNetwork(), plan=plan, seed=21)
            engine = WireSyncEngine(transport=transport)
            nodes = _population(family, 3, transport)
            nodes[0].write("a", 1)
            nodes[1].write("b", 2)
            gossip = AntiEntropy(nodes, rng=random.Random(5), engine=engine)
            gossip.run(3, until_converged=False)
            # Concurrent updates on a replicated key: a real conflict the
            # duplicated arm must resolve identically.
            nodes[0].write("a", "left")
            nodes[2].write("a", "right")
            gossip.run(6, until_converged=False)
            assert gossip.converged()
            outcomes.append([_store_fingerprint(node) for node in nodes])
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_whole_sync_replay_is_idempotent(self, family):
        """Replaying an entire pairwise sync changes nothing.

        After one clean sync both replicas are causally EQUAL per key, so
        a replayed session settles every key through the canonical-bytes
        fast path: values, trackers and epochs are untouched.
        """
        transport = FaultyTransport(FullyConnectedNetwork(), seed=22)
        engine = WireSyncEngine(transport=transport)
        nodes = _population(family, 2, transport)
        nodes[0].write("k", "v")
        nodes[1].write("q", "w")
        engine.sync(nodes[0].store, nodes[1].store)
        before = [_store_fingerprint(node) for node in nodes]
        trackers_before = [
            {key: node.store.tracker_of(key) for key in node.store.keys()}
            for node in nodes
        ]
        replay = engine.sync(nodes[0].store, nodes[1].store)
        assert [_store_fingerprint(node) for node in nodes] == before
        assert replay.values_taken == 0
        assert replay.conflicts_detected == 0
        for node, snapshot in zip(nodes, trackers_before):
            for key, tracker in snapshot.items():
                live = node.store.tracker_of(key)
                assert live.compare(tracker) is Ordering.EQUAL
                assert live.to_bytes() == tracker.to_bytes()


class _RequestFrameCorruptor(FaultyTransport):
    """Deterministically damages the first frame of the first request leg."""

    def __init__(self, network, **kwargs):
        super().__init__(network, **kwargs)
        self.armed = True
        self.calls = 0

    def transfer_batch(self, source, destination, blobs):
        self.calls += 1
        deliveries = super().transfer_batch(source, destination, blobs)
        if not self.armed or self.calls != 1:
            return deliveries
        damaged = []
        for index, payload in deliveries:
            if payload[:2] == b"CS" and len(payload) > 16:
                # Byte 16 is the first frame's first payload byte: for the
                # version-stamp family that is the flags byte, and 0xFF is
                # not a valid flag -- a guaranteed lazy decode rejection
                # that sails through the eager header validation.
                body = bytearray(payload)
                body[16] = 0xFF
                payload = bytes(body)
            damaged.append((index, payload))
        return damaged


class _ResponseLegKiller(FaultyTransport):
    """Passes the request leg, drops every later leg of the session."""

    def __init__(self, network, **kwargs):
        super().__init__(network, **kwargs)
        self.legs_seen = 0
        self.armed = True

    def transfer_batch(self, source, destination, blobs):
        self.legs_seen += 1
        if self.armed and self.legs_seen > 1:
            return []
        return super().transfer_batch(source, destination, blobs)


class TestSkipAndReport:
    def test_one_bad_frame_skips_one_key_not_the_sync(self):
        """Satellite: a single undecodable frame is skipped and reported.

        The damaged frame produces a typed ``FrameRejected`` entry; the
        group's other frames and the sync's other keys merge normally,
        the local state of the rejected key survives, and the next clean
        sync heals the key.
        """
        transport = _RequestFrameCorruptor(FullyConnectedNetwork(), seed=31)
        engine = WireSyncEngine(
            transport=transport,
            retry=RetryPolicy(attempts=2),
            verify_checksums=False,
        )
        nodes = _population("version-stamp", 2, transport)
        nodes[1].write("aa-damaged", "remote")
        nodes[1].write("bb-clean", "also-remote")
        report = engine.sync(nodes[0].store, nodes[1].store)
        assert len(report.frames_rejected) == 1
        rejection = report.frames_rejected[0]
        assert rejection.key == "aa-damaged"
        assert rejection.family == "version-stamp"
        assert rejection.stage == "request"
        assert "flags" in rejection.reason
        # The sibling key in the same stream group still replicated.
        assert nodes[0].store.get("bb-clean") == ["also-remote"]
        assert nodes[0].store.get("aa-damaged") == []
        assert nodes[1].store.get("aa-damaged") == ["remote"]
        assert engine.frames_rejected == 1
        # Healed by the next clean session.
        transport.armed = False
        healed = engine.sync(nodes[0].store, nodes[1].store)
        assert healed.frames_rejected == []
        assert nodes[0].store.get("aa-damaged") == ["remote"]

    def test_rejections_surface_in_round_reports(self):
        transport = _RequestFrameCorruptor(FullyConnectedNetwork(), seed=32)
        engine = WireSyncEngine(
            transport=transport,
            retry=RetryPolicy(attempts=2),
            verify_checksums=False,
        )
        nodes = _population("version-stamp", 2, transport)
        nodes[1].write("k", "v")
        gossip = AntiEntropy(nodes, rng=random.Random(1), engine=engine)
        report = gossip.run_round()
        assert len(report.merge.frames_rejected) >= 1


class TestResponseLegRollback:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_lost_response_rolls_both_sides_back(self, family):
        """A sync whose response leg dies leaves no half-finished fork.

        Both sides must come back byte-identical to their pre-sync state:
        a one-sided join/fork would strand half of freshly split
        identifier space, which later manufactures false orderings.
        """
        transport = _ResponseLegKiller(FullyConnectedNetwork(), seed=41)
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=2))
        nodes = _population(family, 2, transport)
        nodes[0].write("mine", "a")
        nodes[1].write("theirs", "b")
        before = [_store_fingerprint(node) for node in nodes]
        bytes_before = [
            {key: node.store.tracker_of(key).to_bytes() for key in node.store.keys()}
            for node in nodes
        ]
        engine.sync(nodes[0].store, nodes[1].store)
        assert [_store_fingerprint(node) for node in nodes] == before
        for node, snapshot in zip(nodes, bytes_before):
            for key, payload in snapshot.items():
                assert node.store.tracker_of(key).to_bytes() == payload
        # Once the transport heals, the same pair reconciles cleanly.
        transport.armed = False
        transport.legs_seen = 0
        engine.sync(nodes[0].store, nodes[1].store)
        assert sorted(nodes[0].store.keys()) == ["mine", "theirs"]
        assert sorted(nodes[1].store.keys()) == ["mine", "theirs"]


class TestCrashRestart:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_crashed_node_rejoins_empty_and_rereplicates(self, family):
        transport = FaultyTransport(FullyConnectedNetwork(), seed=51)
        engine = WireSyncEngine(transport=transport)
        nodes = _population(family, 3, transport)
        nodes[0].write("k", "v")
        gossip = AntiEntropy(nodes, rng=random.Random(9), engine=engine)
        gossip.run(4, until_converged=False)
        assert gossip.converged()
        victim = nodes[2]
        gossip.crash(victim)
        assert not victim.alive
        assert not transport.can_communicate("n0", "n2")
        nodes[0].write("k", "v2")
        gossip.run(3, until_converged=False)
        # The dead node kept stale state but took no part in gossip.
        assert victim.store.get("k") == ["v"]
        gossip.restart(victim)
        assert victim.alive
        assert victim.store.keys() == []  # rejoined empty
        gossip.run(5, until_converged=False)
        assert gossip.converged()
        assert victim.store.get("k") == ["v2"]


    def test_partitions_leave_crashed_nodes_out(self):
        network = PartitionedNetwork([["n0", "n1"], ["n2", "n3"]])
        transport = FaultyTransport(network, seed=52)
        transport.crash("n1")
        components = transport.partitions(["n0", "n1", "n2", "n3"])
        assert sorted(map(sorted, components)) == [["n0"], ["n2", "n3"]]
        transport.restart("n1")
        assert len(transport.partitions(["n0", "n1", "n2", "n3"])) == 2


class TestEpochGossipUpgrade:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_straggler_is_upgraded_not_rejected(self, family):
        """The epoch-gossip rule: reroots piggyback on sync rounds.

        A quiescent holder partitions away; the reachable holders compact
        the key (sync-to-EQUAL, verify, bump).  When the partition heals,
        the straggler's stale-epoch metadata meets the new epoch in an
        ordinary sync round and is upgraded in place -- zero
        ``EpochMismatch`` raised anywhere.
        """
        network = PartitionedNetwork()
        transport = FaultyTransport(network, seed=61)
        engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=5))
        nodes = _population(family, 3, transport)
        hub, peer, straggler = nodes
        hub.write("k", "v0")
        gossip = AntiEntropy(nodes, rng=random.Random(3), engine=engine)
        gossip.run(6, until_converged=False)
        assert gossip.converged()
        # The straggler leaves, quiescent on the key; the others keep
        # writing, then compact it among themselves.
        network.set_partitions([["n0", "n1"], ["n2"]])
        for step in range(5):
            hub.write("k", f"v{step + 1}")
            gossip.run_round()
        assert gossip.compact_key("k", participants=[hub, peer])
        assert hub.store.tracker_of("k").epoch == 1
        assert peer.store.tracker_of("k").epoch == 1
        assert straggler.store.tracker_of("k").epoch == 0
        network.heal()
        reports = gossip.run(8, until_converged=False).rounds
        assert gossip.converged()
        assert straggler.store.tracker_of("k").epoch == 1
        assert straggler.store.get("k") == ["v5"]
        assert engine.epoch_upgrades > 0
        assert sum(report.merge.epoch_upgrades for report in reports) > 0

    def test_compaction_requires_verified_common_knowledge(self):
        """A compaction that cannot verify EQUAL aborts without bumping."""
        network = PartitionedNetwork()
        transport = FaultyTransport(network, seed=62)
        engine = WireSyncEngine(transport=transport)
        nodes = _population("version-stamp", 3, transport)
        nodes[0].write("k", "v")
        gossip = AntiEntropy(nodes, rng=random.Random(2), engine=engine)
        gossip.run(4, until_converged=False)
        # An unreachable holder blocks the default (all-holders) protocol.
        network.set_partitions([["n0", "n1"], ["n2"]])
        assert not gossip.compact_key("k")
        assert nodes[0].store.tracker_of("k").epoch == 0
        network.heal()
        assert gossip.compact_key("k")
        for node in nodes:
            assert node.store.tracker_of("k").epoch == 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_compaction_shrinks_metadata_and_preserves_behaviour(self, family):
        transport = FaultyTransport(FullyConnectedNetwork(), seed=63)
        engine = WireSyncEngine(transport=transport)
        nodes = _population(family, 4, transport)
        gossip = AntiEntropy(nodes, rng=random.Random(8), engine=engine)
        # Grow metadata with a write/sync churn, then compact.  The churn
        # is kept short: uncompacted version stamps grow fast under
        # fork/join cycles, which is the very thing compaction exists for.
        for step in range(6):
            nodes[step % 4].write("k", f"v{step}")
            gossip.run_round()
        gossip.run(4, until_converged=False)
        assert gossip.converged()
        bits_before = sum(
            node.store.tracker_of("k").encoded_size_bits() for node in nodes
        )
        assert gossip.compact_key("k")
        bits_after = sum(
            node.store.tracker_of("k").encoded_size_bits() for node in nodes
        )
        if family != "itc":
            # ITC stays naturally compact; the other families shed the
            # accumulated common past.
            assert bits_after <= bits_before
        # Post-compaction writes still dominate and propagate normally.
        nodes[1].write("k", "after-compaction")
        gossip.run(4, until_converged=False)
        assert gossip.converged()
        for node in nodes:
            assert node.store.get("k") == ["after-compaction"]
