#!/usr/bin/env python3
"""Mobile, partition-prone replication -- the paper's motivating scenario.

A small fleet of devices shares a contact list.  The devices spend most of
their time partitioned into ad-hoc clusters (a field team away from the
office), keep accepting writes locally, create *new* replicas while offline
(something version vectors cannot do without an identifier authority), and
reconcile whenever connectivity allows.  Version stamps detect exactly which
records were edited concurrently.

Run with::

    python examples/mobile_sync.py
"""

import random

from repro.replication import (
    AntiEntropy,
    DynamicVVTracker,
    MobileNode,
    PartitionSchedule,
    ScheduledNetwork,
    StoreReplica,
)
from repro.vv.id_source import CentralIdSource, IdAllocationError


def main() -> None:
    print("=== Mobile synchronization under partitions ===\n")

    # Phase 1 (6 rounds): the office {hq, archive} and the field team
    # {van, tablet} cannot reach each other.  Phase 2: everyone reconnects.
    schedule = PartitionSchedule(
        phases=[
            (6, [["hq", "archive"], ["van", "tablet", "phone"]]),
            (1000, []),
        ]
    )
    network = ScheduledNetwork(schedule)

    hq = MobileNode.first("hq", network)
    hq.write("contact:alice", "alice@example.org")
    hq.write("contact:bob", "bob@example.org")

    archive = hq.spawn_peer("archive")
    van = hq.spawn_peer("van")
    tablet = van.spawn_peer("tablet")
    nodes = [hq, archive, van, tablet]

    print("Partition phase: both sides keep working independently.")
    hq.write("contact:alice", "alice@hq.example.org")        # office edit
    van.write("contact:alice", "alice@mobile.example.org")   # concurrent field edit
    van.write("contact:carol", "carol@example.org")          # new record in the field

    # The field team even creates a brand new device replica while offline --
    # with version stamps this needs no identifier authority.
    phone = tablet.spawn_peer("phone")
    nodes.append(phone)
    print("  created a new replica ('phone') inside the partition: ok")

    # The identifier-based baseline cannot do that.
    baseline = StoreReplica(
        "baseline",
        tracker_factory=lambda: DynamicVVTracker(id_source=CentralIdSource()),
    )
    baseline.put("contact:alice", "alice@example.org")
    try:
        baseline.fork("offline-copy", connected=False)
        print("  dynamic version vectors created a replica offline (unexpected!)")
    except IdAllocationError:
        print("  dynamic version vectors refused: identifier authority unreachable")

    gossip = AntiEntropy(nodes, rng=random.Random(1))
    gossip.run(6, until_converged=False)  # runs inside the partition; the network then heals
    print("\nWhile partitioned:")
    print(f"  hq sees contact:carol      -> {hq.read('contact:carol') or 'not yet replicated'}")
    print(f"  phone sees contact:alice   -> {phone.read('contact:alice')}")

    rounds = len(gossip.run(40).rounds)
    print(f"\nPartition healed; converged after {rounds} more gossip rounds.")

    print("\nAfter reconciliation:")
    for node in nodes:
        alice = sorted(node.read("contact:alice"))
        print(f"  {node.node_id:8s} contact:alice = {alice}")
    print("  -> the concurrent office/field edits are preserved as siblings")
    conflicted = hq.store.conflicted_keys()
    print(f"  keys flagged as conflicting: {conflicted}")

    # A later write resolves the conflict everywhere.
    hq.write("contact:alice", "alice@resolved.example.org")
    gossip.run(20)
    print("\nAfter hq resolves the conflict with a new write:")
    for node in nodes:
        print(f"  {node.node_id:8s} contact:alice = {node.read('contact:alice')}")

    print(f"\nTotal conflicts detected during the run: {gossip.total_conflicts()}")
    print(f"Total causal-metadata footprint: {gossip.total_metadata_bits()} bits across {len(nodes)} nodes")


if __name__ == "__main__":
    main()
