"""Datacenter-scale anti-entropy on simulated time.

This package turns the pairwise wire sync engine into a *service*: every
(pair, shard) part of a gossip round is a job wrapping one sans-io sync
session, and a discrete-event interpreter runs the jobs on a virtual clock
-- no real sleeping -- over a network model (configurable latency,
bandwidth, jitter, loss and partitions), gossiping the existing batched
``"CS"`` stream format, so one machine drives 10^4-10^6 replicas to
convergence.

* :mod:`~repro.service.links`       -- :class:`LinkProfile` virtual-time
  link costing;
* :mod:`~repro.service.sharding`    -- :class:`KeyShards` key-range
  sharding and the shared :func:`shard_keys` helper;
* :mod:`~repro.service.interpreter` -- :class:`Interpreter`, the heap of
  timed :class:`Job` steps with per-(replica, shard) slots, deadline
  enforcement and grey shaping;
* :mod:`~repro.service.health`      -- the grey-failure resilience layer:
  :class:`HealthMonitor` accrual failure detection, adaptive per-peer
  deadlines, :class:`CircuitBreaker` gating and the health-weighted
  gossip draw;
* :mod:`~repro.service.cluster`     -- :class:`AntiEntropyService`, the
  :class:`~repro.replication.synchronizer.AntiEntropy` driver on the
  virtual clock (lockstep and overlap modes), schedules, the synchronous
  reference executor and the :func:`build_cluster` population builder.

Every session runs on a plain
:class:`~repro.replication.synchronizer.WireSyncEngine`, the engine
:meth:`~repro.replication.synchronizer.WireSyncEngine.sync` runs too, so
the service's lockstep mode is byte-identical to the synchronous
reference on identical schedules -- see ``tests/service/``.
"""

from ..replication.synchronizer import WireSyncEngine
from .cluster import (
    AntiEntropyService,
    build_cluster,
    gossip_schedule,
    replay_schedule_sync,
)
from .health import CircuitBreaker, HealthConfig, HealthMonitor, PeerHealth
from .interpreter import Interpreter, Job
from .links import LinkProfile
from .sharding import KeyShards, shard_keys

#: A name kept for ``perfbench/``, which builds the service's engine with
#: it: :class:`~repro.replication.synchronizer.WireSyncEngine` itself.
#: Everything else constructs ``WireSyncEngine`` directly; the alias goes
#: once the benchmark does too.
AsyncWireSyncEngine = WireSyncEngine

__all__ = [
    "AntiEntropyService",
    "AsyncWireSyncEngine",
    "CircuitBreaker",
    "HealthConfig",
    "HealthMonitor",
    "Interpreter",
    "Job",
    "KeyShards",
    "LinkProfile",
    "PeerHealth",
    "build_cluster",
    "gossip_schedule",
    "replay_schedule_sync",
    "shard_keys",
]
