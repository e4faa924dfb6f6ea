"""The wire sync engine, held to the causal oracle.

The contract under test:

* **Oracle**: for every clock family, a scripted anti-entropy scenario
  (writes interleaved with gossip rounds, including genuine write
  conflicts) produces the store configuration the causal-history oracle
  family produces for the same scenario, so the wire layer cannot change
  what replication converges to.
* Default gossip (no ``engine=``) runs a fresh wire engine: it does the
  same work and reaches the same state as an explicit one.
* Every stamp a sync moves really crosses the codec (meter accounting:
  a session's digest leg is one message, then each leg sends one stream
  per direction).
* Only stores holding kernel clocks can sync over the wire; anything else
  is a typed :class:`~repro.core.errors.ReplicationError`.
"""

import random

import pytest

from repro.core.errors import ReplicationError
from repro.replication import (
    AntiEntropy,
    DynamicVVTracker,
    FullyConnectedNetwork,
    MobileNode,
    NetworkMeter,
    StoreReplica,
    WireSyncEngine,
)
from repro import kernel

FAMILIES = kernel.families()


def _population(family, replicas, network=None):
    network = network if network is not None else FullyConnectedNetwork()
    nodes = [
        MobileNode.first(
            "n0", network, tracker_factory=kernel.family(family).factory
        )
    ]
    for index in range(1, replicas):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    return nodes


def _holders(nodes, key):
    return [node for node in nodes if key in node.store.keys()]


def _drive(nodes, gossip, *, seed, keys, rounds, settle):
    """A deterministic write/gossip interleaving over an existing population.

    Later writes always happen at nodes that already hold the key: a key
    is *created* once and spreads by synchronization, which is the store's
    (and ITC's) ownership model -- independently re-creating a key at a
    second replica is a modeling error the engine tests separately.
    """
    rng = random.Random(seed + 1)
    for key in range(keys):
        rng.choice(nodes).write(f"key{key}", f"initial{key}")
    for round_number in range(rounds):
        gossip.run_round()
        if round_number % 3 == 0:
            # Concurrent writes to one key at two holders: a real conflict.
            key = f"key{rng.randrange(keys)}"
            holders = _holders(nodes, key)
            if len(holders) >= 2:
                first, second = rng.sample(holders, 2)
                first.write(key, f"a{round_number}")
                second.write(key, f"b{round_number}")
        elif round_number % 3 == 1:
            key = f"key{rng.randrange(keys)}"
            holders = _holders(nodes, key)
            if holders:
                rng.choice(holders).write(key, f"w{round_number}")
    for _ in range(settle):
        gossip.run_round()
    return tuple(
        (node.node_id, key, tuple(sorted(map(repr, node.store.get(key)))))
        for node in nodes
        for key in node.store.keys()
    )


def _run_scenario(family, *, seed, replicas=5, keys=6, rounds=15, settle=None):
    """Run :func:`_drive` over the wire engine; returns the final state."""
    nodes = _population(family, replicas)
    engine = WireSyncEngine()
    gossip = AntiEntropy(nodes, rng=random.Random(seed), engine=engine)
    snapshot = _drive(
        nodes,
        gossip,
        seed=seed,
        keys=keys,
        rounds=rounds,
        settle=replicas + 4 if settle is None else settle,
    )
    conflicts = sum(report.merge.conflicts_detected for report in gossip.rounds)
    return snapshot, conflicts, engine, gossip


class TestLockstep:
    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "causal-history"])
    def test_every_family_matches_the_causal_oracle(self, family):
        # The causal-history family *is* the oracle: exact causal order by
        # construction.  Every exact mechanism must converge to the same
        # sibling sets on the same scenario, through the wire.
        ours, our_conflicts, _, _ = _run_scenario(family, seed=77)
        oracle, oracle_conflicts, _, _ = _run_scenario("causal-history", seed=77)
        assert ours == oracle
        assert our_conflicts == oracle_conflicts

    @pytest.mark.parametrize("family", FAMILIES)
    def test_default_gossip_matches_an_explicit_engine(self, family):
        shape = dict(seed=3, keys=3, rounds=3, settle=2)
        explicit, _, _, explicit_gossip = _run_scenario(family, replicas=3, **shape)
        nodes = _population(family, 3)
        gossip = AntiEntropy(nodes, rng=random.Random(3))
        default = _drive(nodes, gossip, **shape)
        assert default == explicit
        assert [report.bytes_sent for report in gossip.rounds] == [
            report.bytes_sent for report in explicit_gossip.rounds
        ]
        assert gossip.converged()


class TestWireAccounting:
    def test_each_leg_sends_one_stream(self):
        nodes = _population("version-stamp", 2)
        for key in range(5):
            nodes[0].write(f"key{key}", key)
        engine = WireSyncEngine()
        engine.sync(nodes[0].store, nodes[1].store)
        # The peer holds nothing (no request metadata to ship); the
        # response is one stream carrying all five trackers.
        assert engine.meter.messages == 1
        assert engine.meter.bytes_sent > 0
        assert engine.stamps_shipped == 5
        # A second sync starts with one digest message for the five keys
        # both sides hold; only key0's digests differ, so one stamp goes
        # each way: request + response.
        shipped = engine.stamps_shipped
        nodes[0].write("key0", "fresh")
        engine.sync(nodes[0].store, nodes[1].store)
        assert engine.meter.messages == 1 + 3
        assert engine.stamps_shipped == shipped + 2

    def test_round_report_carries_traffic(self):
        nodes = _population("itc", 3)
        nodes[0].write("k", 1)
        engine = WireSyncEngine()
        gossip = AntiEntropy(nodes, rng=random.Random(0), engine=engine)
        report = gossip.run_round()
        assert report.messages > 0
        assert report.bytes_sent > 0
        assert (report.messages, report.bytes_sent) <= engine.meter.snapshot()

    def test_meter_is_shared(self):
        meter = NetworkMeter()
        nodes = _population("version-stamp", 2)
        nodes[0].write("k", 1)
        engine = WireSyncEngine(meter=meter)
        engine.sync(nodes[0].store, nodes[1].store)
        assert meter.messages == engine.meter.messages
        meter.reset()
        assert meter.snapshot() == (0, 0)

    def test_converged_rounds_ship_only_digests(self):
        nodes = _population("version-stamp", 4)
        for key in range(6):
            nodes[0].write(f"key{key}", key)
        engine = WireSyncEngine()
        gossip = AntiEntropy(nodes, rng=random.Random(1), engine=engine)
        for _ in range(12):
            gossip.run_round()
        assert gossip.converged()
        shipped = engine.stamps_shipped
        for _ in range(4):
            report = gossip.run_round()
            # Converged population, no writes: every key's digests match,
            # so each session is its one digest message and nothing else.
            assert report.messages == report.exchanges == len(nodes)
        assert engine.stamps_shipped == shipped


class TestEngineContract:
    def test_non_kernel_trackers_are_rejected(self):
        first = StoreReplica("a", tracker_factory=DynamicVVTracker)  # no byte form
        second = StoreReplica("b", tracker_factory=DynamicVVTracker)
        first.put("k", 1)
        with pytest.raises(ReplicationError):
            WireSyncEngine().sync(first, second)

    def test_default_stores_sync_over_the_wire(self):
        first = StoreReplica("a")
        second = StoreReplica("b")
        first.put("k", 1)
        engine = WireSyncEngine()
        engine.sync(first, second)
        assert second.get("k") == [1]
        assert second.tracker_of("k").family == "version-stamp"
        second.put("k", 2)
        engine.sync(first, second)
        assert first.get("k") == [2]
        assert engine.stamps_shipped > 0

    def test_self_sync_is_rejected(self):
        store = StoreReplica("a", tracker_factory=kernel.family("itc").factory)
        with pytest.raises(ReplicationError):
            WireSyncEngine().sync(store, store)

    def test_independent_creation_conflict_survives_the_wire(self):
        # Two replicas independently create the same key: the wire path
        # must flag the independent origins as a conflict, even when the
        # tracker bytes happen to be identical.
        first = StoreReplica(
            "a", tracker_factory=kernel.family("version-stamp").factory
        )
        second = StoreReplica(
            "b", tracker_factory=kernel.family("version-stamp").factory
        )
        first.put("k", "mine")
        second.put("k", "theirs")
        report = WireSyncEngine().sync(first, second)
        assert report.conflicts_detected == 1
        assert sorted(map(repr, first.get("k"))) == sorted(
            map(repr, second.get("k"))
        )
        assert len(first.get("k")) == 2

    def test_mixed_epoch_stores_still_sync_batched(self):
        # Keys can sit at different epochs (per-key compaction); the
        # engine groups frames by (family, epoch) rather than rejecting.
        first = StoreReplica(
            "a", tracker_factory=kernel.family("version-stamp").factory
        )
        second = StoreReplica(
            "b", tracker_factory=kernel.family("version-stamp").factory
        )
        first.put("k0", 1)
        first._keys["k0"].tracker = first._keys["k0"].tracker.with_epoch(2)
        first.put("k1", 2)
        engine = WireSyncEngine()
        engine.sync(first, second)
        assert second.get("k0") == [1] and second.get("k1") == [2]
        assert second.tracker_of("k0").epoch == 2
