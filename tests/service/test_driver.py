"""The service is the gossip driver run on a virtual clock.

:class:`~repro.service.AntiEntropyService` subclasses
:class:`~repro.replication.AntiEntropy`: both drivers share one round
skeleton, one :class:`~repro.replication.RoundReport`, one
:class:`~repro.replication.RunReport` and one ``run()`` loop, and the
service inherits ``converged`` and crash/restart.  These tests hold the
shared parts to that: a round runs only pairs that can reach each other,
round records add up to the meter on both drivers, the inherited crash
handling keeps a crashed replica out of every session, and a population
built over a :class:`~repro.replication.FaultyTransport` gossips on the
service.
"""

import inspect
import random

import pytest

from repro.durability.store import StoreJournal, open_log
from repro.replication import (
    AntiEntropy,
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    FullyConnectedNetwork,
    MobileNode,
    NodePosition,
    ProximityNetwork,
    RetryPolicy,
    StoreReplica,
    SyncHistory,
    WireSyncEngine,
)
from repro.service import AntiEntropyService, HealthConfig, LinkProfile, build_cluster

#: The per-round counters that must add up to the meter's run deltas.
COUNTERS = ("messages", "bytes_sent", "dropped", "duplicated", "retried", "corrupted")


def _meter_counts(meter):
    return {name: getattr(meter, name) for name in COUNTERS}


def _transport_population(transport, count):
    nodes = [MobileNode.first("n0", transport)]
    for index in range(1, count):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    for index, node in enumerate(nodes):
        node.write(f"k{index}", index)
    return nodes


def test_the_service_is_the_gossip_driver():
    assert issubclass(AntiEntropyService, AntiEntropy)
    base = inspect.signature(AntiEntropy.run).parameters
    service = inspect.signature(AntiEntropyService.run).parameters
    assert set(base) <= set(service)
    for name in ("until_converged", "advance_network", "on_round"):
        assert base[name].default == service[name].default


def test_an_immediate_round_runs_only_pairs_that_reach_each_other():
    # a-b and b-c are in radio range, a-c is not: one connectivity group
    # from which the service's draw can pick a pair that cannot talk.
    network = ProximityNetwork(arena=100, radio_range=20, rng=random.Random(1))
    for name, x in (("a", 0.0), ("b", 15.0), ("c", 30.0)):
        network.add_node(name, NodePosition(x=x, y=0.0))
    first = MobileNode.first("a", network)
    nodes = [first, first.spawn_peer("b"), first.spawn_peer("c")]
    first.write("k", 1)
    history = SyncHistory()
    service = AntiEntropyService(nodes, engine=WireSyncEngine(history=history))
    reports = [service.run_round() for _ in range(8)]
    assert sum(report.skipped for report in reports) > 0
    assert len(history) == sum(report.exchanges for report in reports)
    assert all({record.first, record.second} != {"a", "c"} for record in history)


def _chaos_gossip():
    transport = FaultyTransport(
        FullyConnectedNetwork(), plan=FaultPlan.chaos(loss=0.1), seed=17
    )
    engine = WireSyncEngine(transport=transport, retry=RetryPolicy(attempts=4))
    nodes = _transport_population(transport, 6)
    return AntiEntropy(nodes, rng=random.Random(3), engine=engine)


def _grey_service():
    nodes, _ = build_cluster(12, keys=4, seed=5)
    transport = FaultyTransport(
        nodes[0].network, plan=FaultPlan(degradation=DegradationPlan.grey()), seed=5
    )
    return AntiEntropyService(
        nodes,
        engine=WireSyncEngine(transport=transport),
        link=LinkProfile(latency=0.05),
        seed=5,
        health=HealthConfig(min_samples=3, max_deadline=5.0),
        hedge=True,
    )


@pytest.mark.parametrize(
    "build", [_chaos_gossip, _grey_service], ids=["sync", "service"]
)
def test_round_records_add_up_to_the_meter(build):
    driver = build()
    meter = driver.engine.meter
    before = _meter_counts(meter)
    report = driver.run(12, until_converged=False)
    after = _meter_counts(meter)
    assert after["dropped"] > before["dropped"]
    for name in COUNTERS:
        total = sum(getattr(round_report, name) for round_report in report.rounds)
        assert total == after[name] - before[name], name
    assert report.rounds == driver.rounds
    assert all(0.0 < round_report.goodput <= 1.0 for round_report in report.rounds)


def test_a_population_over_a_faulty_transport_gossips_on_the_service():
    transport = FaultyTransport(
        FullyConnectedNetwork(), plan=FaultPlan.lossy(0.1), seed=5
    )
    nodes = _transport_population(transport, 8)
    engine = WireSyncEngine(transport=transport)
    service = AntiEntropyService(nodes, engine=engine, seed=3)
    assert service.run(max_rounds=20).converged_after is not None
    assert transport.meter.dropped > 0
    service.crash(nodes[5])
    assert transport.partitions([node.node_id for node in nodes]) == [
        {node.node_id for node in nodes} - {"n5"}
    ]
    report = service.run(max_rounds=3, until_converged=False)
    assert [round_report.exchanges for round_report in report.rounds] == [7, 7, 7]


def _fingerprint(store):
    return {
        key: (sorted(map(repr, state.values)), state.tracker.to_bytes())
        for key, state in store._keys.items()
    }


def test_the_service_crashes_and_recovers_a_durable_replica(tmp_path):
    network = FullyConnectedNetwork()
    first = MobileNode(
        "n0", StoreReplica("n0", durable=True, path=tmp_path / "n0"), network
    )
    nodes = [first]
    for index in range(1, 6):
        peer = first.spawn_peer(f"n{index}")
        peer.store.journal = StoreJournal(open_log(tmp_path / peer.node_id))
        nodes.append(peer)
    first.write("k", "v1")
    history = SyncHistory(maxlen=256)
    service = AntiEntropyService(nodes, engine=WireSyncEngine(history=history), seed=4)
    assert service.run(max_rounds=20).converged_after is not None

    victim = nodes[3]
    service.crash(victim)
    untouched = _fingerprint(victim.store)
    seq = history.next_seq
    nodes[1].write("k", "v2")
    down = service.run(max_rounds=3, until_converged=False)
    # The crashed replica joins no session and its store stays as it was.
    assert [round_report.exchanges for round_report in down.rounds] == [5, 5, 5]
    sessions = history.since(seq)
    assert len(sessions) == 15
    assert all(victim.node_id not in (r.first, r.second) for r in sessions)
    assert _fingerprint(victim.store) == untouched
    assert service.converged()

    service.restart(victim, mode="recover")
    assert victim.last_recovery.clean
    assert victim.read("k") == ["v1"]
    up = service.run(max_rounds=20)
    assert up.converged_after is not None
    assert all(node.read("k") == ["v2"] for node in nodes)
