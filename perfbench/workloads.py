"""The four benchmark workloads: set-up, one measured pass, correctness checks.

Every workload is a closed loop on one thread: each gossip round starts
only after the previous one finished.  A workload is built from one seed
alone (``build(name, seed, workdir)``), so the program under test sees only
inputs generated from that seed, and two builds from one seed run the
identical schedule -- which is what lets a run repeat a pass and demand the
same final state digest.

``run(sample)`` executes the measured phase, feeding wall-clock samples and
operation counts into a :class:`Sample`; problems it finds in the program's
outputs land in ``sample.problems``.  The sizes are set below the defects
listed in ``perfbench/README.md``, so no seed trips them.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.contracts import ContractChecker, ContractSpec
from repro.durability.store import StoreJournal, open_log
from repro.replication import (
    AntiEntropy,
    DegradationPlan,
    FaultPlan,
    FaultyTransport,
    FullyConnectedNetwork,
    KernelTracker,
    MobileNode,
    RetryPolicy,
    StoreReplica,
    SyncHistory,
    WireSyncEngine,
)
from repro.service import (
    AntiEntropyService,
    AsyncWireSyncEngine,
    HealthConfig,
    LinkProfile,
    build_cluster,
)

clock = time.perf_counter

#: Upper bound on settle rounds; every workload converges far below it.
MAX_SETTLE_ROUNDS = 64


class _Probe:
    __slots__ = ("group", "label")

    def __init__(self, group: int, label: str) -> None:
        self.group = group
        self.label = label

    def key(self):
        return (self.group, self.label)


def calibration_probe() -> float:
    """Seconds taken by a fixed task that shares no code with ``repro``.

    It mixes what the workloads spend their time on -- small objects,
    attribute access, method calls, dict updates, bytes and a CRC -- so
    its duration tracks how fast this machine runs Python right now.
    """
    began = clock()
    counts = {}
    total = 0
    for index in range(1200):
        probe = _Probe(index & 63, str(index & 7))
        key = probe.key()
        counts[key] = counts.get(key, 0) + 1
        total += zlib.crc32(probe.label.encode()) & 7
    sorted(counts.items())
    return clock() - began


@dataclass
class Sample:
    """Wall-clock samples and operation counts of one measured pass."""

    #: Calibration probes to run after every round (0 in traced passes).
    calibrate: int = 0
    probes_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    rounds_ms: List[float] = field(default_factory=list)
    sessions_ms: List[float] = field(default_factory=list)
    writes_us: List[float] = field(default_factory=list)
    recovers_ms: List[float] = field(default_factory=list)
    #: Operations (a scheduled session, a put or a recovery) attempted,
    #: and how many failed: timed out, refused by a breaker, lost a key
    #: past the retry budget, or recovered to the wrong state.
    attempted: int = 0
    failed: int = 0
    rounds_to_converge: int = 0
    virtual_s: float = 0.0
    bytes_sent: int = 0
    key_replicas: int = 1
    #: Wrong outputs found by the workload's own checks.
    problems: List[str] = field(default_factory=list)

    def round_done(self, milliseconds: float) -> None:
        """Record one round's wall time, then probe the machine's speed."""
        self.rounds_ms.append(milliseconds)
        for _ in range(self.calibrate):
            self.probes_s.append(calibration_probe())


def state_digest(nodes) -> str:
    """SHA-256 over every replica's keys, sibling values and clock bytes."""
    digest = hashlib.sha256()
    for node in nodes:
        digest.update(f"{node.node_id}|{node.alive}|".encode())
        store = node.store
        for key in sorted(store._keys):
            state = store._keys[key]
            values = sorted(repr(value) for value in state.values)
            digest.update(f"{key}|{values}|".encode())
            digest.update(state.tracker.to_bytes())
    return digest.hexdigest()


class Workload:
    """What the harness and the tracer read off every workload."""

    name = ""
    #: Calibration probes per round; enough to sample a pass evenly.
    PROBES_PER_ROUND = 1
    nodes: List[MobileNode]
    #: Wire engines whose counters belong to the measured phase.
    engines: List[WireSyncEngine]
    service = None
    gossip = None
    checker = None

    def __init__(self) -> None:
        #: ServiceReports of the measured phase (service workloads).
        self.reports = []
        #: RecoveryReports of the measured phase (durable workload).
        self.recoveries = []
        #: Value bytes handed to durable puts (journal amplification base).
        self.user_bytes = 0

    def digest(self) -> str:
        return state_digest(self.nodes)

    def close(self) -> None:
        pass


class _TimedSync:
    """Times every ``sync`` call of one engine instance.

    A session failed when a message was given up on past the retry budget
    (its keys were skipped or rolled back) or a frame was rejected.
    """

    def __init__(self, engine: WireSyncEngine, sample: Sample) -> None:
        self.engine = engine
        self.inner = engine.sync
        self.sample = sample
        engine.sync = self

    def __call__(self, first, second, *, keys=None):
        engine, sample = self.engine, self.sample
        lost_before = engine.deliveries_failed
        start = clock()
        report = self.inner(first, second, keys=keys)
        sample.sessions_ms.append((clock() - start) * 1e3)
        sample.attempted += 1
        if engine.deliveries_failed != lost_before or report.frames_rejected:
            sample.failed += 1
        return report


class _RoundClock:
    """``on_round`` hook recording the wall time between service rounds."""

    def __init__(self, sample: Sample, then=None) -> None:
        self.sample = sample
        self.then = then
        self.last = clock()

    def __call__(self, metrics) -> None:
        if self.then is not None:
            self.then(metrics)
        self.sample.round_done((clock() - self.last) * 1e3)
        self.last = clock()


def _service_pass(workload: Workload, sample: Sample, report) -> None:
    """Fold one ServiceReport into ``sample``; a job is a (pair, shard) part."""
    workload.reports.append(report)
    for metrics in report.rounds:
        sample.attempted += metrics.exchanges * report.shards + metrics.hedges
        sample.failed += metrics.timeouts + metrics.breaker_skips
    sample.virtual_s += report.virtual_seconds
    sample.bytes_sent += report.total_bytes
    sample.key_replicas = len(workload.keys) * report.replicas


def _gossip_until_converged(workload: Workload, sample: Sample, rounds: int) -> None:
    """Run ``rounds`` service rounds, then more until ``converged()``.

    A fixed round count keeps a pass's work from hinging on whether its
    seed converges a round earlier or later; ``rounds`` is set above the
    rounds any tried seed needed, so the extra run is a fallback.
    """
    service = workload.service
    start = len(service.rounds)
    report = service.run(
        max_rounds=rounds, until_converged=False, on_round=_RoundClock(sample)
    )
    _service_pass(workload, sample, report)
    converged_after = report.converged_after
    if converged_after is None:
        report = service.run(max_rounds=MAX_SETTLE_ROUNDS, on_round=_RoundClock(sample))
        _service_pass(workload, sample, report)
        converged_after = report.converged_after
    if converged_after is None or not service.converged():
        sample.problems.append("the service did not converge")
    else:
        # Round numbers count on across run() calls of one service.
        sample.rounds_to_converge = converged_after - start


def _settle(gossip: AntiEntropy, sample: Sample) -> bool:
    """Synchronous gossip rounds until ``converged()``, each timed."""
    for settle_round in range(1, MAX_SETTLE_ROUNDS + 1):
        start = clock()
        gossip.run_round()
        done = gossip.converged()
        sample.round_done((clock() - start) * 1e3)
        if done:
            sample.rounds_to_converge = settle_round
            return True
    sample.problems.append(f"gossip did not converge in {MAX_SETTLE_ROUNDS} rounds")
    return False


# -- converge-service ----------------------------------------------------------


class ConvergeService(Workload):
    """Read-only convergence of a 1000-replica service, no faults.

    The pass gossips a fixed :attr:`ROUNDS` rounds, converging within them
    (7 or 8 rounds for every seed tried), so its work does not hinge on
    whether a seed needs one round more, and most of its rounds are the
    converged steady state, so the median round is one of them.  A seed
    that needs more than :attr:`ROUNDS` gossips on until ``converged()``.
    """

    name = "converge-service"
    REPLICAS = 1000
    KEYS = 4
    SHARDS = 4
    LINK_LATENCY = 0.001
    ROUNDS = 12
    PROBES_PER_ROUND = 8

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.nodes, self.keys = build_cluster(self.REPLICAS, keys=self.KEYS, seed=seed)
        self.service = AntiEntropyService(
            self.nodes,
            shards=self.SHARDS,
            seed=seed,
            link=LinkProfile(latency=self.LINK_LATENCY),
        )
        self.engines = [self.service.engine]

    def run(self, sample: Sample) -> None:
        _gossip_until_converged(self, sample, self.ROUNDS)


# -- churn-chaos ---------------------------------------------------------------


class ChurnChaos(Workload):
    """Version-stamp write churn with auto-compaction over a chaos transport.

    Eight replicas, not sixteen: at sixteen, 2 of 24 seeds overflow the
    stamp codec's 16-bit length prefix (defect (a) of the README), and the
    largest bit stream of the other seeds reaches 56k of the 64k allowed.
    At eight the largest of 30 seeds is 12.7k.
    """

    name = "churn-chaos"
    REPLICAS = 8
    KEYS = 64
    WRITE_ROUNDS = 64
    WRITES_PER_ROUND = 8
    COMPACT_THRESHOLD_BITS = 384
    LOSS = 0.1
    RETRY_ATTEMPTS = 4

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        transport = FaultyTransport(
            FullyConnectedNetwork(), plan=FaultPlan.chaos(loss=self.LOSS), seed=seed
        )
        self.engine = WireSyncEngine(
            transport=transport,
            retry=RetryPolicy(attempts=self.RETRY_ATTEMPTS),
            retry_seed=seed,
        )
        self.engines = [self.engine]
        factory = KernelTracker.factory("version-stamp")
        first = MobileNode.first("n0", transport, tracker_factory=factory)
        self.keys = [f"key{index}" for index in range(self.KEYS)]
        for key in self.keys:
            first.write(key, f"{key}@seed")
        # Forking after the writes hands every replica every key, so the
        # measured writes only touch keys the writer already holds.
        self.nodes = [first]
        for index in range(1, self.REPLICAS):
            self.nodes.append(self.nodes[-1].spawn_peer(f"n{index}"))
        self.gossip = AntiEntropy(
            self.nodes,
            rng=random.Random(seed + 1),
            engine=self.engine,
            compact_threshold_bits=self.COMPACT_THRESHOLD_BITS,
        )
        # Re-root every key once: the measured phase starts from compact
        # stamps instead of the fork chain's.
        for key in self.keys:
            self.gossip.compact_key(key)
        self.ops = random.Random(seed + 2)

    def run(self, sample: Sample) -> None:
        _TimedSync(self.engine, sample)
        bytes_before = self.engine.meter.bytes_sent
        gossip, ops = self.gossip, self.ops
        for round_number in range(self.WRITE_ROUNDS):
            start = clock()
            for write in range(self.WRITES_PER_ROUND):
                node = self.nodes[ops.randrange(self.REPLICAS)]
                key = self.keys[ops.randrange(self.KEYS)]
                began = clock()
                node.write(key, f"r{round_number}w{write}")
                sample.writes_us.append((clock() - began) * 1e6)
                sample.attempted += 1
            gossip.run_round()
            sample.round_done((clock() - start) * 1e3)
        _settle(gossip, sample)
        sample.bytes_sent = self.engine.meter.bytes_sent - bytes_before
        sample.key_replicas = self.KEYS * self.REPLICAS


# -- durable-recover -----------------------------------------------------------


class DurableRecover(Workload):
    """Journaled puts, gossip and crash-recover on durable replicas."""

    name = "durable-recover"
    REPLICAS = 8
    KEYS = 64
    FAMILY = "vv-dynamic"
    WRITE_ROUNDS = 96
    PUTS_PER_ROUND = 8
    CRASH_EVERY = 4

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.root = os.path.join(workdir, f"durable-{seed}")
        shutil.rmtree(self.root, ignore_errors=True)
        factory = KernelTracker.factory(self.FAMILY)
        store = StoreReplica(
            "n0",
            tracker_factory=factory,
            durable=True,
            path=os.path.join(self.root, "n0"),
        )
        first = MobileNode("n0", store, FullyConnectedNetwork())
        self.keys = [f"key{index}" for index in range(self.KEYS)]
        for key in self.keys:
            first.write(key, f"{key}@seed")
        # Forking after the writes gives every replica every key; odd
        # replicas journal to SQLite, even ones to plain files.
        self.nodes = [first]
        for index in range(1, self.REPLICAS):
            peer = self.nodes[-1].spawn_peer(f"n{index}")
            peer.store.journal = StoreJournal(
                open_log(
                    os.path.join(self.root, f"n{index}"),
                    backend=("file", "sqlite")[index % 2],
                )
            )
            for key in peer.store.keys():
                peer.store._record(key)
            peer.store._flush_journal()
            self.nodes.append(peer)
        self.engine = WireSyncEngine()
        self.engines = [self.engine]
        self.gossip = AntiEntropy(
            self.nodes, rng=random.Random(seed + 1), engine=self.engine
        )
        self.ops = random.Random(seed + 2)

    def run(self, sample: Sample) -> None:
        _TimedSync(self.engine, sample)
        bytes_before = self.engine.meter.bytes_sent
        gossip, ops = self.gossip, self.ops
        for round_number in range(self.WRITE_ROUNDS):
            start = clock()
            for put in range(self.PUTS_PER_ROUND):
                # Replica i writes only keys i, i + 8, ...: concurrent
                # writes to one key are defect (c) of the README.
                writer = ops.randrange(self.REPLICAS)
                node = self.nodes[writer]
                key = self.keys[writer + self.REPLICAS * ops.randrange(self.KEYS // self.REPLICAS)]
                value = f"r{round_number}p{put}"
                began = clock()
                node.write(key, value)
                sample.writes_us.append((clock() - began) * 1e6)
                sample.attempted += 1
                self.user_bytes += len(value)
            gossip.run_round()
            if round_number % self.CRASH_EVERY == self.CRASH_EVERY - 1:
                self._crash_and_recover(self.nodes[ops.randrange(self.REPLICAS)], sample)
            sample.round_done((clock() - start) * 1e3)
        _settle(gossip, sample)
        sample.bytes_sent = self.engine.meter.bytes_sent - bytes_before
        sample.key_replicas = self.KEYS * self.REPLICAS

    def _crash_and_recover(self, node: MobileNode, sample: Sample) -> None:
        # Every put and every sync flushes, so the live state is the last
        # flushed state, and the recovered replica must equal it.
        before = state_digest([node])
        began = clock()
        self.gossip.crash(node)
        self.gossip.restart(node, mode="recover")
        sample.recovers_ms.append((clock() - began) * 1e3)
        sample.attempted += 1
        self.recoveries.append(node.last_recovery)
        if state_digest([node]) != before:
            sample.failed += 1
            sample.problems.append(
                f"{node.node_id} did not recover its last flushed state"
            )

    def close(self) -> None:
        for node in self.nodes:
            if node.store.journal is not None:
                node.store.journal.close()
        shutil.rmtree(self.root, ignore_errors=True)


# -- grey-service --------------------------------------------------------------


class GreyService(Workload):
    """Service gossip in grey weather with health, hedging and contracts."""

    name = "grey-service"
    REPLICAS = 100
    KEYS = 4
    FAMILY = "vv-dynamic"
    WRITERS = 2
    CONSUMERS = 4
    WRITE_ROUNDS = 12
    SETTLE_ROUNDS = 12
    WRITES_PER_ROUND = 4
    FRESHNESS_LAG = 2
    HISTORY = 512

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.nodes, self.keys = build_cluster(
            self.REPLICAS, keys=self.KEYS, family=self.FAMILY, seed=seed,
            writes_per_key=0,
        )
        # Every key reaches every replica on a clean service first, so the
        # writers only ever write keys they already hold.
        for key in self.keys:
            self.nodes[0].write(key, f"{key}@seed")
        warmup = AntiEntropyService(self.nodes, seed=seed).run(
            max_rounds=MAX_SETTLE_ROUNDS
        )
        if warmup.converged_after is None:
            raise RuntimeError("grey-service set-up did not converge")
        history = SyncHistory(maxlen=self.HISTORY)
        transport = FaultyTransport(
            self.nodes[0].network,
            plan=FaultPlan(degradation=DegradationPlan.grey()),
            seed=seed,
        )
        engine = AsyncWireSyncEngine(transport=transport, history=history)
        self.engines = [engine]
        consumers = self.nodes[-self.CONSUMERS :]
        specs = []
        for index in range(self.CONSUMERS):
            key = self.keys[index % self.KEYS]
            target = f"consume{index}"
            specs.append(ContractSpec(
                name=f"observes{index}", kind="observes",
                source="export", target=target, key=key,
            ))
            specs.append(ContractSpec(
                name=f"fresh{index}", kind="freshness-within-k-events",
                source="export", target=target, key=key,
                max_lag=self.FRESHNESS_LAG,
            ))
        self.checker = ContractChecker(specs, history=history)
        self.writers = self.nodes[: self.WRITERS]
        for writer in self.writers:
            self.checker.watch_writes(writer.store, "export")
        for index, consumer in enumerate(consumers):
            self.checker.bind(f"consume{index}", consumer.store)
        self.service = AntiEntropyService(
            self.nodes,
            engine=engine,
            link=LinkProfile(latency=0.001),
            seed=seed,
            checker=self.checker,
            health=HealthConfig(min_samples=3, min_deadline=1.0, max_deadline=20.0),
            hedge=True,
        )
        self.ops = random.Random(seed + 2)

    def _write(self, sample: Sample, metrics) -> None:
        # Each writer owns its own keys: concurrent writes to one key are
        # defect (c) of the README and would never converge.
        for write in range(self.WRITES_PER_ROUND):
            writer = self.ops.randrange(self.WRITERS)
            owned = self.keys[writer :: self.WRITERS]
            key = owned[self.ops.randrange(len(owned))]
            began = clock()
            self.writers[writer].write(key, f"r{metrics.number}w{write}")
            sample.writes_us.append((clock() - began) * 1e6)
            sample.attempted += 1

    def run(self, sample: Sample) -> None:
        service = self.service
        write = service.run(
            max_rounds=self.WRITE_ROUNDS,
            until_converged=False,
            on_round=_RoundClock(sample, lambda metrics: self._write(sample, metrics)),
        )
        _service_pass(self, sample, write)
        _gossip_until_converged(self, sample, self.SETTLE_ROUNDS)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ConvergeService, ChurnChaos, DurableRecover, GreyService)
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
