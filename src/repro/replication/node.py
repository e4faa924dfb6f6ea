"""Mobile nodes: a store replica plus a position in the simulated network.

A :class:`MobileNode` is the unit of the end-to-end scenarios: it owns one
:class:`~repro.replication.store.StoreReplica`, knows its own network
identifier, accepts local writes at any time (optimistic operation) and can
only synchronize with peers the network currently lets it reach.  New nodes
are created by forking an existing node's replica -- with version stamps this
needs no identifier authority, so it works inside any partition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.errors import ReplicationError
from ..kernel.clocks import VersionStampClock
from .conflict import ConflictPolicy
from .network import SimulatedNetwork
from .store import MergeReport, StoreReplica

__all__ = ["MobileNode", "replicas_agree"]


class MobileNode:
    """A node of the mobile replication scenario.

    Parameters
    ----------
    node_id:
        Unique node identifier used by the network model.
    store:
        The node's store replica; use :meth:`spawn_peer` to derive further
        nodes so the causal identities stay consistent.
    network:
        The shared connectivity oracle.
    """

    def __init__(
        self,
        node_id: str,
        store: StoreReplica,
        network: SimulatedNetwork,
    ) -> None:
        self.node_id = node_id
        self.store = store
        self.network = network
        self.sync_failures = 0
        #: Crash flag: a dead node neither gossips nor answers peers.
        self.alive = True
        self.crashes = 0
        #: The :class:`~repro.durability.recovery.RecoveryReport` of the
        #: most recent crash-recover restart (``None`` before the first).
        self.last_recovery = None

    # -- construction ------------------------------------------------------

    @classmethod
    def first(
        cls,
        node_id: str,
        network: SimulatedNetwork,
        *,
        tracker_factory=VersionStampClock,
        policy: Optional[ConflictPolicy] = None,
    ) -> "MobileNode":
        """Create the first node of a system (seed replica)."""
        store = StoreReplica(node_id, tracker_factory=tracker_factory, policy=policy)
        return cls(node_id, store, network)

    def spawn_peer(self, node_id: str) -> "MobileNode":
        """Create a new node by forking this node's replica."""
        return MobileNode(node_id, self.store.fork(node_id), self.network)

    # -- operation ----------------------------------------------------------

    def write(self, key: str, value: object) -> None:
        """Accept a local write (always possible, regardless of connectivity)."""
        self.store.put(key, value)

    def read(self, key: str) -> List[object]:
        """Read all sibling values of ``key`` held locally."""
        return self.store.get(key)

    def crash(self) -> None:
        """Crash the node: it stops operating and drops off the network.

        The process image dies with it -- a durable store's *uncommitted*
        journal buffer is lost (committed records survive on disk), which
        is exactly the window the flush-at-sync-completion barrier keeps
        safe (only purely local writes can sit in it).
        """
        self.alive = False
        self.crashes += 1
        journal = self.store.journal
        if journal is not None:
            journal.simulate_crash()

    def restart(self, *, mode: str = "rejoin-empty"):
        """Come back from a crash under one of the two crash models.

        ``mode="rejoin-empty"`` (crash-stop, the default): drop local
        state and re-replicate from peers -- each key flowing back mints
        fresh identities through the normal replication fork.  Always
        sound, even for a purely in-memory store, because nothing old is
        resurrected.

        ``mode="recover"`` (crash-recover): rebuild the pre-crash store
        from the node's durable log (snapshot + CRC-valid journal tail).
        Sound because a crashed node shares no identifiers while down and
        the journal is flushed at every sync completion, so the recovered
        state is at worst missing purely local writes -- never holding a
        half of somebody else's fork.  The node may come back as an epoch
        straggler (peers compacted while it was down); the next sync's
        epoch gossip upgrades it in-band.  Returns the
        :class:`~repro.durability.recovery.RecoveryReport`.

        Raises
        ------
        ReplicationError
            On an unknown mode, or ``mode="recover"`` without a durable
            store.
        """
        if mode == "rejoin-empty":
            self.store.reset()
            self.alive = True
            return None
        if mode != "recover":
            raise ReplicationError(
                f"unknown restart mode {mode!r} "
                f"(choose 'rejoin-empty' or 'recover')"
            )
        journal = self.store.journal
        if journal is None:
            raise ReplicationError(
                f"node {self.node_id!r} cannot restart in recover mode: "
                f"its store has no durable journal"
            )
        from ..durability.recovery import rebuild

        self.store, report = rebuild(
            journal.log,
            name=self.store.name,
            tracker_factory=self.store._tracker_factory,
            policy=self.store._policy,
            snapshot_every=journal.snapshot_every,
        )
        self.alive = True
        #: Report of the most recent crash-recover restart.
        self.last_recovery = report
        return report

    def can_reach(self, other: "MobileNode") -> bool:
        """Whether the network currently lets this node talk to ``other``."""
        if not (self.alive and other.alive):
            return False
        return self.network.can_communicate(self.node_id, other.node_id)

    def sync_with(self, other: "MobileNode") -> MergeReport:
        """Synchronize stores with ``other`` if the network allows it.

        The exchange is :meth:`StoreReplica.sync_with`, a session on a
        fresh wire engine.

        Raises
        ------
        ReplicationError
            If the two nodes are currently partitioned from each other,
            or the engine rejects the stores (e.g. trackers without a
            byte form).
        """
        if not self.can_reach(other):
            self.sync_failures += 1
            raise ReplicationError(
                f"nodes {self.node_id!r} and {other.node_id!r} are partitioned"
            )
        return self.store.sync_with(other.store)

    def __repr__(self) -> str:
        return f"MobileNode({self.node_id!r})"


def replicas_agree(
    nodes: Iterable[MobileNode], keys: Optional[Iterable[str]] = None
) -> bool:
    """True when every live node holds the same siblings for every key.

    ``keys`` defaults to every key any live node holds.
    """
    live = [node for node in nodes if node.alive]
    if keys is None:
        keys = set()
        for node in live:
            keys |= set(node.store.keys())
    for key in keys:
        reference = None
        for node in live:
            values = sorted(repr(value) for value in node.store.get(key))
            if reference is None:
                reference = values
            elif values != reference:
                return False
    return True
