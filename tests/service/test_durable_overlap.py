"""Overlapped service sessions on durable stores snapshot only committed state.

In overlap mode the service runs one session per (replica, shard) slot at
once, so two sessions of one store can be in flight together.  Between its
request and response legs a session holds merged keys on both stores that
nothing has journaled yet, and a lost response leg rolls them back in
memory only.  The durability barrier of the *other* session must not write
them to disk in a whole-store snapshot: a crash would then recover a
half-merge.
"""

import pytest

from repro import kernel
from repro.durability.inspect import inspect_path
from repro.replication import MobileNode, StoreReplica
from repro.replication.network import FullyConnectedNetwork
from repro.service import AntiEntropyService, AsyncWireSyncEngine, LinkProfile
from repro.service.sharding import KeyShards

FAMILIES = kernel.families()
BACKENDS = ("file", "sqlite")


class LoseLink:
    """A transport that loses every message from ``source`` to ``destination``."""

    def __init__(self, source, destination):
        self.lost = (source, destination)

    def ensure_degradation(self, node_ids):
        return None

    def transfer_batch(self, source, destination, blobs):
        if (source, destination) == self.lost:
            return []
        return list(enumerate(blobs))


def key_in_shard(shards, shard):
    return next(
        name
        for name in (f"key{index}" for index in range(100))
        if shards.shard_of(name) == shard
    )


def fingerprint(store):
    return {
        key: (
            sorted(repr(value) for value in state.values),
            state.tracker.to_bytes(),
            state.tracker.epoch,
        )
        for key, state in store._keys.items()
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_lost_response_leg_never_reaches_a_snapshot(tmp_path, family, backend):
    shards = KeyShards(2)
    x, y = key_in_shard(shards, 0), key_in_shard(shards, 1)
    network = FullyConnectedNetwork()
    nodes = []
    for name in ("n0", "n1", "n2"):
        path = tmp_path / name
        path.mkdir()
        store = StoreReplica(
            name,
            tracker_factory=kernel.family(family).factory,
            durable=True,
            path=path,
            backend=backend,
            # Every barrier that journaled a record wants a snapshot.
            snapshot_every=1,
        )
        nodes.append(MobileNode(name, store, network))
    n0, n1, n2 = nodes
    n2.write(x, "from n2")
    n1.write(y, "from n1")
    service = AntiEntropyService(
        nodes,
        engine=AsyncWireSyncEngine(transport=LoseLink("n0", "n1")),
        shards=2,
        link=LinkProfile(latency=1.0),
    )
    # One round, n0 with n2 and n0 with n1, overlapped per shard.  The
    # n0-n2 session of shard 0 replicates x and commits at t=2.  The
    # n0-n1 session of shard 1 merged y into n0 at t=1, but its response
    # leg to n1 is lost on every retry, so it rolls y back later: when
    # x commits, n0 holds a y that nothing journaled.
    service.run(schedule=[[(0, 2), (0, 1)]], until_converged=False)
    assert n0.store.keys() == [x]
    for node in nodes:
        live = fingerprint(node.store)
        node.crash()
        assert inspect_path(tmp_path / node.node_id).snapshot.present
        report = node.restart(mode="recover")
        assert report.clean
        assert fingerprint(node.store) == live
    assert y not in n0.store.keys()
