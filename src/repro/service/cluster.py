"""The datacenter-scale anti-entropy service.

:class:`AntiEntropyService` drives gossip rounds over thousands to a
million simulated replicas on one machine.  Every (pair, shard) part of a
round is a :class:`~repro.service.interpreter.Job` wrapping one sans-io
:meth:`~repro.replication.synchronizer.WireSyncEngine.session` generator,
and one :class:`~repro.service.interpreter.Interpreter` runs them on a
virtual clock -- not wall time -- that advances through link latency,
bandwidth, grey shaping and retry backoff.

Two execution modes share that interpreter:

* **lockstep** -- parts run back to back in schedule order.  Because the
  sans-io generator performs every state mutation, RNG draw and meter
  update itself, this mode is *byte-identical* to
  :func:`replay_schedule_sync` driving the synchronous engine over the
  same schedule, under the full fault matrix.  That is the equivalence
  proof the scale results stand on.
* **overlap** (default) -- a round submits all its parts at once and the
  interpreter interleaves them by virtual time, serializing only parts
  that share a (replica, shard) slot, in schedule order (shards share no
  key state, so cross-shard parts never contend).  Deterministic for a
  fixed seed, and convergence-equivalent to lockstep; a round's virtual
  duration becomes its *longest dependency chain*, not the sum of all
  sessions -- which is what "anti-entropy rounds parallelize across
  shards" means.

Peer selection is O(1) per replica per round (a draw from the replica's
connectivity group), never an O(N) reachability scan per node, so a round
over 10^4-10^6 replicas costs O(N), not O(N^2).
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import kernel
from ..core.errors import SessionTimeout
from ..replication.degradation import DegradationState
from ..replication.network import FullyConnectedNetwork, SimulatedNetwork
from ..replication.node import MobileNode
from ..replication.store import MergeReport
from ..replication.synchronizer import (
    AntiEntropy,
    RoundReport,
    RunReport,
    WireSyncEngine,
)
from .health import HealthConfig, HealthMonitor
from .interpreter import Interpreter, Job
from .links import LinkProfile
from .sharding import KeyShards, shard_keys

__all__ = [
    "AntiEntropyService",
    "build_cluster",
    "gossip_schedule",
    "replay_schedule_sync",
]

#: One gossip round: (initiator index, peer index) session pairs, in order.
SyncSchedule = List[List[Tuple[int, int]]]


def gossip_schedule(replicas: int, rounds: int, *, seed: int = 0) -> SyncSchedule:
    """A seeded random-peer gossip schedule over ``replicas`` indices.

    Every round shuffles the initiator order and draws one uniform peer
    per initiator (O(1) per replica).  The same schedule can be fed to
    both :meth:`AntiEntropyService.run` and :func:`replay_schedule_sync`,
    which is how the lockstep-equality tests pin the two paths together.
    """
    if replicas < 2:
        raise ValueError(f"need at least two replicas, got {replicas}")
    rng = random.Random(seed)
    schedule: SyncSchedule = []
    for _ in range(rounds):
        order = list(range(replicas))
        rng.shuffle(order)
        row: List[Tuple[int, int]] = []
        for initiator in order:
            peer = rng.randrange(replicas)
            while peer == initiator:
                peer = rng.randrange(replicas)
            row.append((initiator, peer))
        schedule.append(row)
    return schedule


def replay_schedule_sync(
    nodes: Sequence[MobileNode],
    schedule: SyncSchedule,
    engine: WireSyncEngine,
    *,
    shards: int = 1,
    advance_network: bool = True,
) -> MergeReport:
    """Execute ``schedule`` with the synchronous engine driver.

    This is the reference the service's lockstep mode is proven equal
    to: same sessions, same order, same per-shard key restriction (via
    the shared :func:`~repro.service.sharding.shard_keys` helper), so
    every transport call and RNG draw lines up one-for-one.
    """
    shard_map = KeyShards(shards)
    merged = MergeReport()
    for row in schedule:
        for initiator, peer in row:
            first, second = nodes[initiator], nodes[peer]
            if not first.can_reach(second):
                continue
            for shard in range(shard_map.count):
                part = shard_keys(first.store, second.store, shard_map, shard)
                if part is not None and not part:
                    continue
                merged += engine.sync(first.store, second.store, keys=part)
        if advance_network and nodes:
            nodes[0].network.advance()
    return merged


def build_cluster(
    replicas: int,
    *,
    keys: int = 4,
    family: str = "version-stamp",
    seed: int = 0,
    network: Optional[SimulatedNetwork] = None,
    writes_per_key: int = 1,
) -> Tuple[List[MobileNode], List[str]]:
    """Build a seeded population of replicas with divergent initial writes.

    The first node seeds the system; every further replica forks the
    previous one (coordination-free, so this works for all clock
    families).  Each key then receives ``writes_per_key`` writes at
    replicas drawn from a seeded RNG, giving the cluster something to
    converge *from*.  Returns ``(nodes, key_names)``.
    """
    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    if network is None:
        network = FullyConnectedNetwork()
    nodes = [
        MobileNode.first("n0", network, tracker_factory=kernel.family(family).factory)
    ]
    for index in range(1, replicas):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    rng = random.Random(seed)
    names = [f"key{index}" for index in range(keys)]
    for name in names:
        for write in range(writes_per_key):
            author = nodes[rng.randrange(len(nodes))]
            author.write(name, f"{name}@{author.node_id}#{write}")
    return nodes, names


class _Part(Job):
    """One (pair, shard) part of a round, or the hedge of a timed-out one."""

    __slots__ = ("service", "report", "first", "second", "shard", "hedge")

    def __init__(
        self,
        service: "AntiEntropyService",
        report: RoundReport,
        first: int,
        second: int,
        shard: int,
        deadline: Optional[float],
        *,
        hedge: bool = False,
    ) -> None:
        nodes = service.nodes
        super().__init__(
            ((nodes[first].node_id, shard), (nodes[second].node_id, shard)),
            deadline=deadline,
        )
        self.service = service
        self.report = report
        self.first = first
        self.second = second
        self.shard = shard
        self.hedge = hedge

    def open(self):
        service = self.service
        first = service.nodes[self.first].store
        second = service.nodes[self.second].store
        part = shard_keys(first, second, service.shards, self.shard)
        if part is not None and not part:
            return None
        return service.engine.session(first, second, keys=part)

    def close(self, interpreter: Interpreter) -> None:
        service, report, result = self.service, self.report, self.result
        health = service.health
        if result is None:
            report.empty_parts += 1
        elif isinstance(result, SessionTimeout):
            report.timeouts += 1
            health.observe_timeout(self.second, interpreter.now)
            if service.hedge and not self.hedge:
                service._hedge(interpreter, self)
        else:
            report.merge += result
            if service.checker is not None:
                service.checker.scan()
            if health is not None:
                # Measured from slot acquisition, so the latency fed to
                # the accrual model is the peer's wire time, never time
                # queued behind a busy slot (which would make a busy but
                # healthy cluster look grey).
                health.observe_success(self.second, interpreter.now - self.started)
                if self.hedge:
                    health.hedge_wins += 1


class AntiEntropyService(AntiEntropy):
    """Virtual-time anti-entropy over a population of replicas.

    The :class:`~repro.replication.synchronizer.AntiEntropy` driver with
    its rounds run on an :class:`~repro.service.interpreter.Interpreter`.
    It adds shards, links, lockstep and overlap, health and hedging, and
    keeps its own O(1) peer draw; everything else is inherited.

    Parameters
    ----------
    nodes:
        The replica population (see :func:`build_cluster`).
    engine:
        The :class:`~repro.replication.synchronizer.WireSyncEngine`
        shared by every session; a fresh one when omitted.  Give it a
        :class:`~repro.replication.faults.FaultyTransport` to gossip over
        a lossy fabric.
    shards:
        Worker shards the key space is split into; shard parts of one
        session run independently (and concurrently in overlap mode).
    link:
        The :class:`~repro.service.links.LinkProfile` costing transfer
        legs in virtual time.
    seed:
        Seeds both the default gossip schedule and the link-jitter RNG
        (the latter is separate from the transport's fault RNG by
        construction, so link timing never perturbs fault schedules).
    lockstep:
        ``True`` runs parts back to back in schedule order -- the mode
        that is byte-identical to the synchronous reference.  ``False``
        (default) overlaps them, serialized only per (replica, shard).
    checker:
        Optional :class:`~repro.contracts.ContractChecker` (duck-typed:
        anything with ``scan()``), scanned after every completed session
        and once more at the end of every round -- contracts are enforced
        inline with gossip.  A scan re-evaluates only the bindings whose
        inputs changed, reports each violation when it opens or changes,
        and records each heal once.
    health:
        Enables the grey-failure resilience layer: pass ``True`` for the
        default :class:`~repro.service.health.HealthConfig` or a config
        instance to tune it.  The service then derives adaptive per-peer
        session deadlines from observed latencies, aborts sessions that
        cross them (transactionally -- a timed-out session never
        half-merges), gates peers behind per-peer circuit breakers and
        weights the gossip draw by accrued suspicion.  The monitor's RNG
        is seeded from ``seed`` XOR a salt -- a stream of its own, so on
        a healthy cluster the detector on vs. off is byte-identical.
    hedge:
        With the health layer on, launch a backup session against the
        healthiest other peer whenever a primary session times out.
        Sound because pairwise syncs are idempotent (canonical bytes
        make duplicate deliveries EQUAL-skips) and aborted sessions roll
        back fully -- hedging can only add convergence, never diverge.
    """

    def __init__(
        self,
        nodes: Sequence[MobileNode],
        *,
        engine: Optional[WireSyncEngine] = None,
        shards: int = 1,
        link: Optional[LinkProfile] = None,
        seed: int = 0,
        lockstep: bool = False,
        checker=None,
        health=None,
        hedge: bool = False,
    ) -> None:
        super().__init__(nodes, rng=random.Random(seed), engine=engine, checker=checker)
        self.shards = KeyShards(shards)
        self.link = link if link is not None else LinkProfile()
        self.lockstep = lockstep
        self._link_rng = random.Random(seed ^ 0x11A7C0DE)
        config = health if isinstance(health, HealthConfig) else None
        self.health: Optional[HealthMonitor] = (
            HealthMonitor(config=config, seed=seed) if health else None
        )
        self.hedge = bool(hedge) and self.health is not None
        #: The transport's grey modes resolved over this population
        #: (``None`` without a transport or degradation plan).
        transport = self.transport
        self.degradation: Optional[DegradationState] = (
            transport.ensure_degradation([node.node_id for node in self.nodes])
            if transport is not None
            else None
        )

    # -- scheduling --------------------------------------------------------

    def _peer_groups(self, live: List[int]) -> Dict[int, List[int]]:
        """Connectivity groups as sorted index lists (O(N) when healthy)."""
        transport = self.transport
        network = self.nodes[0].network

        def uncrashed(indices: Iterable[int]) -> List[int]:
            if transport is None:
                return list(indices)
            return [
                index
                for index in indices
                if not transport.is_crashed(self.nodes[index].node_id)
            ]

        if type(network) is FullyConnectedNetwork:
            members = uncrashed(live)
            return {index: members for index in members}
        index_of = {self.nodes[index].node_id: index for index in live}
        groups: Dict[int, List[int]] = {}
        for component in network.partitions(list(index_of)):
            members = uncrashed(
                sorted(index_of[node_id] for node_id in component if node_id in index_of)
            )
            for member in members:
                groups[member] = members
        return groups

    def _schedule_round(self, report: RoundReport) -> List[Tuple[int, int]]:
        """One seeded gossip round: each live replica picks one peer, O(1).

        The draw is from the replica's connectivity group and skips nobody.
        """
        live = [index for index, node in enumerate(self.nodes) if node.alive]
        if len(live) < 2:
            return []
        groups = self._peer_groups(live)
        order = list(live)
        self._rng.shuffle(order)
        pairs: List[Tuple[int, int]] = []
        for initiator in order:
            members = groups.get(initiator)
            if members is None or len(members) < 2:
                continue
            peer = members[self._rng.randrange(len(members))]
            while peer == initiator:
                peer = members[self._rng.randrange(len(members))]
            if self.health is not None:
                # Health-weighted accept/reject on top of the uniform
                # draw: the schedule RNG's consumption is identical with
                # the monitor on or off (redraws come from the monitor's
                # own stream, and quiet peers skip it entirely).
                peer = self.health.select(members, initiator, peer)
            pairs.append((initiator, peer))
        return pairs

    # -- execution ---------------------------------------------------------

    def _submit(
        self,
        interpreter: Interpreter,
        report: RoundReport,
        first: int,
        second: int,
        shard: int,
    ) -> None:
        """Submit one (pair, shard) part under the defensive-driving policy.

        Without the health layer the part simply runs.  With it, the
        peer's circuit gates the part and its adaptive deadline bounds
        it; a timeout feeds the accrual detector and -- with hedging on
        -- launches one backup part (:meth:`_hedge`).
        """
        health = self.health
        deadline = None
        if health is not None:
            if not health.allow(second, interpreter.now):
                report.breaker_skips += 1
                return
            deadline = health.deadline(second)
        interpreter.submit(_Part(self, report, first, second, shard, deadline))

    def _hedge(self, interpreter: Interpreter, primary: _Part) -> None:
        """Submit one backup part after ``primary`` timed out.

        It is submitted once the timed-out part released its slots, so it
        queues behind every part already waiting on them.  The backup
        peer is the healthiest reachable alternative; soundness rests on
        sync idempotence -- a hedge can only move knowledge, never
        diverge.
        """
        health = self.health
        initiator = self.nodes[primary.first]
        candidates = [
            index
            for index, node in enumerate(self.nodes)
            if node.alive and initiator.can_reach(node)
        ]
        backup = health.hedge_candidate(candidates, (primary.first, primary.second))
        if backup is None:
            return
        health.hedges += 1
        primary.report.hedges += 1
        interpreter.submit(
            _Part(
                self,
                primary.report,
                primary.first,
                backup,
                primary.shard,
                health.deadline(backup),
                hedge=True,
            )
        )

    def _run_round(
        self, interpreter: Interpreter, pairs: Optional[Sequence[Tuple[int, int]]]
    ) -> RoundReport:
        """Run one round on ``interpreter``: ``pairs``, or a fresh draw if None."""
        with self._round() as report:
            if pairs is None:
                pairs = self._schedule_round(report)
            start = interpreter.now
            parts = [
                (initiator, peer, shard)
                for initiator, peer in self._reachable(report, pairs)
                for shard in range(self.shards.count)
            ]
            for initiator, peer, shard in parts:
                self._submit(interpreter, report, initiator, peer, shard)
                if self.lockstep:
                    interpreter.run()
            interpreter.run()
            if self.health is not None:
                self.health.decay_round()
            report.virtual_duration = interpreter.now - start
        return report

    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        schedule: Optional[SyncSchedule] = None,
        until_converged: bool = True,
        advance_network: bool = True,
        on_round: Optional[Callable[[RoundReport], None]] = None,
    ) -> RunReport:
        """Run gossip rounds on a fresh virtual clock.

        Pass an explicit ``schedule`` (its length bounds the run) or
        ``max_rounds`` to gossip on the service's seeded draw; the other
        parameters are :meth:`~repro.replication.synchronizer.AntiEntropy.run`'s.
        """
        if schedule is None and max_rounds is None:
            raise ValueError("pass either schedule or max_rounds")
        interpreter = Interpreter(
            link=self.link, link_rng=self._link_rng, degradation=self.degradation
        )
        rows = schedule if schedule is not None else repeat(None, max_rounds)
        rounds = (self._run_round(interpreter, pairs) for pairs in rows)
        report = self._run(rounds, until_converged, advance_network, on_round)
        report.shards = self.shards.count
        report.virtual_seconds = interpreter.now
        report.leg_latencies = interpreter.leg_latencies
        if self.health is not None:
            report.health = self.health.counters()
        return report
