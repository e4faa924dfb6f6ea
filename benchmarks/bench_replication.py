"""SYNC -- end-to-end optimistic replication under partitions (Section 1.1).

Runs the full replication substrate (stores, mobile nodes, anti-entropy,
partition schedules) on the paper's motivating scenario: autonomous nodes
writing while partitioned, creating replicas inside partitions without any
identifier authority, then reconciling when connectivity returns.  Checks:

* conflicts reported by the stamp-based store are exactly the keys that were
  genuinely written concurrently (no false positives/negatives);
* the dynamic-version-vector baseline cannot even create replicas while
  partitioned (the failure mode stamps remove);
* the population converges after the partition heals.
"""

import random

from repro.replication.network import PartitionSchedule, PartitionedNetwork, ScheduledNetwork
from repro.replication.node import MobileNode
from repro.replication.store import StoreReplica
from repro.replication.synchronizer import AntiEntropy
from repro.replication.tracker import DynamicVVTracker
from repro.vv.id_source import CentralIdSource, IdAllocationError


def _partitioned_scenario():
    """Two partitions, concurrent edits on one shared key, disjoint edits on
    others, in-partition replica creation, then heal and reconcile."""
    schedule = PartitionSchedule(
        phases=[(6, [["a", "b", "b2"], ["c", "d"]]), (1000, [])]
    )
    network = ScheduledNetwork(schedule)
    a = MobileNode.first("a", network)
    a.write("shared", "base")
    a.write("left-only", 0)
    b = a.spawn_peer("b")
    c = a.spawn_peer("c")
    d = a.spawn_peer("d")
    nodes = [a, b, c, d]

    # Partition phase: both sides edit 'shared' (a genuine conflict), each
    # side also edits its own key (no conflict), and the left side creates a
    # brand new replica locally.
    a.write("shared", "left edit")
    c.write("shared", "right edit")
    a.write("left-only", 1)
    c.write("right-only", 2)
    b2 = b.spawn_peer("b2")
    nodes.append(b2)

    gossip = AntiEntropy(nodes, rng=random.Random(42))
    gossip.run(6)  # advance past the partition phase
    rounds = gossip.rounds_to_convergence(max_rounds=40)
    return nodes, gossip, rounds


def test_partitioned_replication_with_stamps(benchmark, experiment):
    nodes, gossip, rounds = benchmark.pedantic(_partitioned_scenario, rounds=1, iterations=1)

    report = experiment("SYNC-partitioned", "Optimistic replication across a partition")
    report.add(
        "population converges after healing",
        "yes",
        "yes" if rounds is not None else "no",
    )
    report.add(
        "'shared' key ends with both concurrent edits as siblings",
        ["left edit", "right edit"],
        sorted(nodes[0].read("shared")),
    )
    report.add(
        "'left-only' key has no conflict anywhere",
        [1],
        nodes[3].read("left-only"),
    )
    report.add(
        "replica created inside the partition holds the data after healing",
        [1],
        nodes[-1].read("left-only"),
    )
    report.add(
        "conflicts detected across the whole run",
        ">= 1 (the 'shared' key)",
        gossip.total_conflicts(),
        matches=gossip.total_conflicts() >= 1,
    )
    assert rounds is not None
    assert sorted(nodes[0].read("shared")) == ["left edit", "right edit"]
    assert nodes[3].read("left-only") == [1]
    assert report.ok


def test_identifier_authority_failure_of_the_baseline(benchmark, experiment):
    def refused(store):
        store.put("k", 0)
        try:
            store.fork("offline", connected=False)
        except IdAllocationError:
            return 1
        return 0

    def run():
        failures = 0
        stamp_refusals = 0
        for _ in range(50):
            failures += refused(
                StoreReplica(
                    "origin",
                    tracker_factory=lambda: DynamicVVTracker(id_source=CentralIdSource()),
                )
            )
            stamp_refusals += refused(StoreReplica("origin"))
        return failures, stamp_refusals

    failures, stamp_refusals = benchmark(run)
    report = experiment(
        "SYNC-identity", "Replica creation under partition: stamps vs. dynamic VV"
    )
    report.add("dynamic-VV forks refused while partitioned", "50/50", f"{failures}/50")
    report.add(
        "version-stamp forks refused while partitioned", "0/50", f"{stamp_refusals}/50"
    )
    assert failures == 50
    assert stamp_refusals == 0
    assert report.ok


def test_anti_entropy_convergence_scaling(benchmark, experiment):
    def run():
        results = {}
        for population in (4, 8, 16):
            network = PartitionedNetwork()
            first = MobileNode.first("n0", network)
            nodes = [first]
            for index in range(1, population):
                nodes.append(nodes[-1].spawn_peer(f"n{index}"))
            for index, node in enumerate(nodes):
                node.write(f"key-{index}", index)
            gossip = AntiEntropy(nodes, rng=random.Random(population))
            results[population] = gossip.rounds_to_convergence(max_rounds=60)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("SYNC-scaling", "Anti-entropy rounds to convergence vs. population")
    for population, rounds in results.items():
        report.add(
            f"rounds to convergence with {population} nodes",
            "O(log n) expected, < 60",
            rounds,
            matches=rounds is not None,
        )
    assert all(rounds is not None for rounds in results.values())
    assert report.ok
