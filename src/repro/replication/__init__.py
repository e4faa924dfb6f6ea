"""Optimistic replication substrate exercised by the end-to-end scenarios.

The paper targets update tracking for optimistic replication in mobile,
partition-prone environments.  This subpackage builds that environment:

* :mod:`~repro.replication.store` -- a multi-value key-value store replica
  with local writes, coordination-free forking and pairwise
  synchronization.  Each key's causal metadata is a
  :mod:`repro.kernel` clock of any family (version stamps by default); the
  identifier-authority baseline
  :class:`~repro.vv.dynamic_vv.DynamicVVTracker` forks but cannot sync or
  journal.
* :mod:`~repro.replication.conflict` -- conflict resolution policies.
* :mod:`~repro.replication.network` -- simulated partitions and mobility.
* :mod:`~repro.replication.faults` -- fault-injecting transport (loss,
  duplication, reordering, corruption, outages, crash/restart) plus the
  retry policy the sync engine degrades through.
* :mod:`~repro.replication.degradation` -- grey-failure injection (slow
  nodes, stuck sessions, flapping links, throttle windows): replicas that
  are alive but degraded, for the service's health layer to route around.
* :mod:`~repro.replication.node` / :mod:`~repro.replication.synchronizer` --
  mobile nodes and anti-entropy gossip on top of all of the above.

Stores opened ``durable=True`` journal to :mod:`repro.durability` and
survive crash-recover restarts (``MobileNode.restart(mode="recover")``);
see that package for the log, snapshot and recovery machinery.
"""

from .. import kernel
from ..vv.dynamic_vv import DynamicVVTracker
from .conflict import ConflictPolicy, KeepBoth, MergeWith, PreferNewest
from .degradation import DegradationPlan, DegradationState
from .faults import FaultPlan, FaultyTransport, RetryPolicy
from .network import (
    FullyConnectedNetwork,
    LatencyPercentiles,
    NetworkMeter,
    NodePosition,
    PartitionSchedule,
    PartitionedNetwork,
    ProximityNetwork,
    ScheduledNetwork,
    SimulatedNetwork,
)
from .history import ExchangeRecord, SyncHistory
from .node import MobileNode
from .store import FrameRejected, MergeReport, StoreReplica
from .synchronizer import (
    AntiEntropy,
    RoundReport,
    RunReport,
    SessionAbort,
    SleepEffect,
    TransferEffect,
    WireSyncEngine,
)


class KernelTracker:
    """A name kept for ``perfbench/``, which builds its stores with it.

    ``KernelTracker.factory(family)`` is ``kernel.family(family).factory``,
    the family's seed-clock constructor.  Everything else passes that
    constructor as ``tracker_factory=`` directly; the alias goes once the
    benchmark does too.
    """

    @staticmethod
    def factory(family: str):
        return kernel.family(family).factory


__all__ = [
    "DynamicVVTracker",
    "KernelTracker",
    "StoreReplica",
    "MergeReport",
    "FrameRejected",
    "ConflictPolicy",
    "KeepBoth",
    "MergeWith",
    "PreferNewest",
    "SimulatedNetwork",
    "FullyConnectedNetwork",
    "PartitionedNetwork",
    "ScheduledNetwork",
    "PartitionSchedule",
    "ProximityNetwork",
    "NodePosition",
    "NetworkMeter",
    "LatencyPercentiles",
    "FaultPlan",
    "FaultyTransport",
    "RetryPolicy",
    "DegradationPlan",
    "DegradationState",
    "SessionAbort",
    "SleepEffect",
    "TransferEffect",
    "MobileNode",
    "AntiEntropy",
    "RoundReport",
    "RunReport",
    "WireSyncEngine",
    "SyncHistory",
    "ExchangeRecord",
]
