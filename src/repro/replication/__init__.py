"""Optimistic replication substrate exercised by the end-to-end scenarios.

The paper targets update tracking for optimistic replication in mobile,
partition-prone environments.  This subpackage builds that environment:

* :mod:`~repro.replication.tracker` -- pluggable causality trackers: any
  kernel clock family (version stamps by default), plus the
  identifier-authority dynamic-version-vector baseline.
* :mod:`~repro.replication.store` -- a multi-value key-value store replica
  with local writes, coordination-free forking and pairwise
  synchronization.
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
    SessionAbort,
    SleepEffect,
    TransferEffect,
    WireSyncEngine,
)
from .tracker import CausalityTracker, DynamicVVTracker, KernelTracker

__all__ = [
    "CausalityTracker",
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
    "WireSyncEngine",
    "SyncHistory",
    "ExchangeRecord",
]
