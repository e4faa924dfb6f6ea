"""Datacenter-scale anti-entropy on simulated time.

This package turns the pairwise wire sync engine into a *service*: every
(pair, shard) part of a gossip round is a job wrapping one sans-io sync
session, and a discrete-event interpreter runs the jobs on a virtual clock
-- no real sleeping -- over a network model (configurable latency,
bandwidth, jitter, loss and partitions), gossiping the existing batched
``"CS"`` stream format, so one machine drives 10^4-10^6 replicas to
convergence.

* :mod:`~repro.service.engine`      -- :class:`AsyncWireSyncEngine`, the
  wire engine with incremental (chunked) stream decode;
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
* :mod:`~repro.service.cluster`     -- :class:`AntiEntropyService`
  (lockstep and overlap modes), schedules, the synchronous reference
  executor and the :func:`build_cluster` population builder.

The service's lockstep mode is proven byte-identical to the synchronous
:class:`~repro.replication.synchronizer.WireSyncEngine` on identical
schedules -- see ``tests/service/``.
"""

from .cluster import (
    AntiEntropyService,
    RoundMetrics,
    ServiceReport,
    build_cluster,
    gossip_schedule,
    replay_schedule_sync,
)
from .engine import AsyncWireSyncEngine
from .health import CircuitBreaker, HealthConfig, HealthMonitor, PeerHealth
from .interpreter import Interpreter, Job
from .links import LinkProfile
from .sharding import KeyShards, shard_keys

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
    "RoundMetrics",
    "ServiceReport",
    "build_cluster",
    "gossip_schedule",
    "replay_schedule_sync",
    "shard_keys",
]
