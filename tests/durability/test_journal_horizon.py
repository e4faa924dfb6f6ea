"""Long-horizon durability: journals stay bounded by the live state.

Durable replicas write and gossip for thousands of rounds with re-rooting
compaction on and a crash-recover every few dozen rounds.  Every mutation
path ends in the store's durability barrier, which snapshots once the
journal tail holds ``StoreJournal.SNAPSHOT_FACTOR`` records per live key.
So, for every clock family on both backends:

* after every round, each journal's tail is below that threshold;
* at every recovery, the tail on disk (counted by the scan ``repro store
  inspect`` runs) and the records recovery replays are at most
  ``SNAPSHOT_FACTOR`` per live key plus one barrier's records, and the
  recovered replica equals its last flushed state;
* compaction keeps every tracker inside its codec (no ``EncodingError``).

Run the 2,000-round arms with ``pytest -m chaos``; the unmarked short
arm keeps the bound covered in the default tier.
"""

import random

import pytest

from repro import kernel
from repro.durability.inspect import inspect_path
from repro.durability.store import StoreJournal, open_log
from repro.replication import AntiEntropy, MobileNode, StoreReplica, WireSyncEngine
from repro.replication.network import FullyConnectedNetwork

FAMILIES = kernel.families()
BACKENDS = ("file", "sqlite")

REPLICAS = 4
#: Replica i writes keys i, i + REPLICAS, ...: writers sharing a key
#: can leave EQUAL trackers over different siblings, which never compact.
KEYS = [f"key{index}" for index in range(2 * REPLICAS)]
PUTS_PER_ROUND = 3
COMPACT_THRESHOLD_BITS = 384
FACTOR = StoreJournal.SNAPSHOT_FACTOR


def fingerprint(store):
    """Values, tracker bytes, epochs and origin flags per key."""
    return {
        key: (
            sorted(repr(value) for value in state.values),
            state.tracker.to_bytes(),
            state.tracker.epoch,
            state.independently_created,
        )
        for key, state in store._keys.items()
    }


def _build(family, backend, tmp_path):
    paths = {}
    for index in range(REPLICAS):
        paths[f"n{index}"] = tmp_path / f"{family}-{backend}-n{index}"
        paths[f"n{index}"].mkdir()
    store = StoreReplica(
        "n0",
        tracker_factory=kernel.family(family).factory,
        durable=True,
        path=paths["n0"],
        backend=backend,
    )
    nodes = [MobileNode("n0", store, FullyConnectedNetwork())]
    for key in KEYS:
        nodes[0].write(key, f"{key}@seed")
    for index in range(1, REPLICAS):
        peer = nodes[-1].spawn_peer(f"n{index}")
        peer.store.journal = StoreJournal(
            open_log(paths[peer.node_id], backend=backend)
        )
        for key in peer.store.keys():
            peer.store._record(key)
        peer.store._flush_journal()
        nodes.append(peer)
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(1),
        engine=WireSyncEngine(),
        compact_threshold_bits=COMPACT_THRESHOLD_BITS,
    )
    return nodes, paths, gossip


def _crash_and_recover(gossip, node, path):
    """Crash ``node``, check its on-disk tail, recover it and check that."""
    flushed = fingerprint(node.store)
    live = len(node.store._keys)
    # One barrier journals at most one record per key (a sync commit).
    bound = FACTOR * max(1, live) + live
    gossip.crash(node)
    tail = inspect_path(path).journal.replayable
    assert tail <= bound
    gossip.restart(node, mode="recover")
    report = node.last_recovery
    assert report.clean
    assert report.records_replayed + report.clears_applied == tail
    assert report.records_replayed <= bound
    assert node.store.journal.records_since_snapshot == tail
    assert fingerprint(node.store) == flushed
    return report


def _run(family, backend, tmp_path, *, rounds, crash_every, seed):
    nodes, paths, gossip = _build(family, backend, tmp_path)
    ops = random.Random(seed)
    recoveries = []
    for round_number in range(rounds):
        for put in range(PUTS_PER_ROUND):
            writer = ops.randrange(REPLICAS)
            key = KEYS[writer + REPLICAS * ops.randrange(len(KEYS) // REPLICAS)]
            nodes[writer].write(key, f"r{round_number}p{put}")
        gossip.run_round()
        for node in nodes:
            journal = node.store.journal
            assert journal.records_since_snapshot < FACTOR * max(
                1, len(node.store._keys)
            ), f"{node.node_id}'s journal outgrew its threshold"
        if round_number % crash_every == crash_every - 1:
            node = nodes[ops.randrange(REPLICAS)]
            recoveries.append(_crash_and_recover(gossip, node, paths[node.node_id]))
    assert recoveries, "no replica ever recovered"
    for node in nodes:
        node.store.journal.close()
        assert inspect_path(paths[node.node_id]).snapshot.present
    return gossip, recoveries


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_horizon_smoke(family, backend, tmp_path):
    """200 rounds and one crash-recover, in the default tier."""
    gossip, recoveries = _run(
        family, backend, tmp_path, rounds=200, crash_every=200, seed=27
    )
    assert len(recoveries) == 1


@pytest.mark.chaos
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_journal_horizon(family, backend, tmp_path):
    """2,000 write-and-sync rounds with a crash-recover every 40."""
    gossip, recoveries = _run(
        family, backend, tmp_path, rounds=2000, crash_every=40, seed=2027
    )
    assert len(recoveries) == 50
    # ITC's trackers stay well below the threshold here; the other
    # families re-root.
    assert gossip.compactions > 0 or family == "itc"
