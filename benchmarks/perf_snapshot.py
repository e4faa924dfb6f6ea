"""Perf snapshot of the stamp core and the lockstep oracle (BENCH_ops.json).

Measures three things:

* the throughput of the four Definition 4.3 operations plus the ``compare``
  pre-order at several frontier widths (``ops_per_sec``);
* a **join+normalize** microbenchmark run through both the packed-integer
  core and the retained text-based reference implementation
  (:mod:`repro.core.refimpl`), reporting the speedup (``join_normalize``);
* a **lockstep long-trace** benchmark (``lockstep``): a 500-step random
  fork/join/update trace replayed through :class:`repro.sim.runner.
  LockstepRunner` with per-step cross-checking, once with the bitset-backed
  causal oracle (:mod:`repro.causal.history`) and once with the retained
  frozenset oracle (:mod:`repro.causal.refhistory`), reporting trace
  steps/sec for each and the speedup.  This is the oracle-dominated regime
  of the long-trace experiments: histories hold hundreds of events and the
  per-step frontier cross-check is where the time goes.
* a **re-rooting GC** benchmark (``reroot``): a sibling-starved sync-chain
  trace (:func:`repro.sim.workload.sync_chain_trace`) replayed through a
  plain frontier and through one with the Section 7 re-rooting garbage
  collector enabled (:mod:`repro.core.reroot`).  Raw stamps compound
  exponentially on this workload, so the trace is kept just long enough
  for the raw arm to stay measurable; the tracked ratio is the GC'd
  replay's speedup over the raw replay, plus a long GC'd-only soak
  throughput for context.
* a **wire codec** benchmark (``codec``): encode/decode throughput of the
  kernel's epoch-tagged envelope (:mod:`repro.kernel.envelope`) for every
  registered clock family at each frontier width, plus the tracked ratio
  ``envelope_vs_json_roundtrip`` -- a version-stamp frontier round-tripped
  through the binary envelope vs through the JSON codec of
  :mod:`repro.core.encoding` (both arms in-process, so the ratio is stable
  across machines).  Encode is measured through the encode-once clock
  cache and decode through the decode-side intern (both on by design), so
  the rates reflect the steady state of a process re-shipping live
  metadata -- exactly the anti-entropy regime the replication benchmark
  drives end to end.
* a **chaos resilience** benchmark (``chaos``): the same anti-entropy
  population driven through :class:`repro.replication.faults.
  FaultyTransport` at several loss levels (plus duplication, reordering
  and bit corruption), reporting rounds-to-convergence, goodput and the
  full fault-counter breakdown per level.  Every number in the section is
  a **deterministic seeded count** -- no wall clock is involved (retry
  backoff is simulated latency), so the figures are bit-identical across
  machines.  The tracked ratio is ``convergence_efficiency``: fault-free
  rounds-to-convergence over rounds-to-convergence at 10% loss -- how
  little the fault matrix stretches the protocol.
* a **replication sync** benchmark (``replication``): the steady-state
  traffic of the wire sync engine
  (:class:`repro.replication.synchronizer.WireSyncEngine`) over a
  fully-connected population, for every clock family at several replica
  counts -- stamps, messages and bytes per anti-entropy round, counted
  over a fixed number of converged rounds (nothing is timed).  In the
  converged steady state every key's digests match, so a session is its
  one digest message and ships no stamps.  The tracked values are that
  state's counts for version stamps at 32 replicas --
  ``stamps_per_round`` (0) and ``batched_messages_per_round`` (32, one
  digest leg per session) -- compared exactly.

* a **contracts** benchmark (``contracts``): the causal ordering
  contract layer (:mod:`repro.contracts`) evaluated in its passing
  steady state on a converged gossip population -- per-spec check
  evaluations/sec vs the bare tracker comparison each check wraps, with
  the tracked ratio ``check_vs_compare`` pinning the enforcement
  layer's per-comparison overhead (both arms in-process, so the ratio
  transfers across machines) -- plus the provenance replay rate of
  :func:`repro.contracts.provenance.reconstruct` over a scripted
  lost-leg sync history;

* a **durability** benchmark (``durability``): recovery time against
  journals of several lengths (worst case: no snapshot, full replay),
  compacted-snapshot bytes per key for every clock family (the snapshot
  *is* the wire bytes -- see :mod:`repro.durability.store`), and the
  journaling overhead on write-churn anti-entropy rounds.  The tracked
  ratio is ``durable_vs_memory_sync`` (durable over in-memory rounds/sec,
  both arms in-process on the same schedule); the committed floor holds
  the <= 10% overhead budget of the durable-store design.

The output file makes the perf trajectory a tracked artifact: CI runs the
quick mode on every push and ``benchmarks/check_regression.py`` fails the
build when a recorded speedup drops below the committed floor.

Usage::

    PYTHONPATH=src python benchmarks/perf_snapshot.py            # full run
    PYTHONPATH=src python benchmarks/perf_snapshot.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_snapshot.py -o out.json

The harness needs nothing beyond the standard library; timings use the
best-of-N repetition scheme of ``timeit`` to shrug off scheduler noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import kernel
from repro.core.encoding import stamp_from_json, stamp_to_json
from repro.core.frontier import Frontier
from repro.core.refimpl import RefStamp
from repro.core.stamp import VersionStamp
from repro.durability.recovery import recover_replica
from repro.durability.store import StoreJournal, open_log
from repro.kernel.adapters import CausalAdapter, RefCausalAdapter
from repro.replication import (
    AntiEntropy,
    FaultPlan,
    FaultyTransport,
    FullyConnectedNetwork,
    MobileNode,
    RetryPolicy,
    StoreReplica,
    WireSyncEngine,
)
from repro.replication.network import PartitionedNetwork
from repro.sim.runner import LockstepRunner
from repro.sim.trace import apply_operation
from repro.sim.workload import random_dynamic_trace, sync_chain_trace

DEFAULT_FRONTIER_SIZES = (8, 16, 32, 64)
QUICK_FRONTIER_SIZES = (8, 32)

#: Replication benchmark shape: replica populations per family, the number
#: of replicated keys, the warm-up rounds that bring the population to
#: the steady state (everything replicated everywhere, metadata stable),
#: and the converged rounds counted after them.
DEFAULT_REPLICA_COUNTS = (8, 16, 32, 64)
QUICK_REPLICA_COUNTS = (8, 32)
REPLICATION_KEYS = 24
REPLICATION_WARMUP_ROUNDS = 6
REPLICATION_COUNTED_ROUNDS = 4
#: The tracked replication counts are measured at this population size.
REPLICATION_TRACKED_REPLICAS = 32
REPLICATION_TRACKED_FAMILY = "version-stamp"

#: Chaos benchmark shape: a small population, every key written up front,
#: then faulty anti-entropy rounds until convergence.  Everything is
#: seeded and counted (retry backoff is simulated), so the section is
#: deterministic -- the regression check compares its ratio exactly, and
#: any drift is a real behaviour change.
CHAOS_LOSS_LEVELS = (0.0, 0.1, 0.3)
CHAOS_REPLICAS = 5
CHAOS_KEYS = 12
CHAOS_SEED = 424242
CHAOS_RETRY_ATTEMPTS = 4
CHAOS_MAX_ROUNDS = 200
#: The tracked efficiency ratio compares fault-free convergence against
#: this loss level.
CHAOS_TRACKED_LOSS = 0.1
CHAOS_FAMILY = "version-stamp"

#: Scale benchmark shape: the async anti-entropy service drives this many
#: simulated replicas to convergence on the virtual clock.  Everything is
#: seeded (gossip schedule, initial writes, link jitter) and the reported
#: numbers are counts and virtual-time figures -- never wall-clock -- so
#: the section is bit-identical across machines and runs, quick mode
#: included (same shape, so the committed floor always applies).  The
#: tracked ratio is ``convergence_efficiency`` = log2(replicas) divided by
#: rounds-to-convergence: epidemic gossip converges in ~log2(N) rounds, so
#: ~1.0 is ideal and a drop means the service started wasting rounds.
SCALE_REPLICAS = 10_000
SCALE_KEYS = 4
SCALE_SHARDS = 4
SCALE_SEED = 0
SCALE_MAX_ROUNDS = 64
SCALE_LINK_LATENCY = 0.001
SCALE_LINK_BANDWIDTH = 1e9
SCALE_LINK_JITTER = 0.1

#: Health benchmark shape: the grey-failure counterpart of the chaos
#: section.  Three arms of the same seeded write schedule -- a healthy
#: baseline, a degraded run with the accrual health layer off (the
#: control) and a degraded run with detection, deadlines, breakers and
#: hedging on (protected) -- each driven to convergence on the virtual
#: clock.  All reported figures are counts and virtual-time totals, so
#: the section is bit-identical across machines and runs, quick mode
#: included (same shape, so the committed floor always applies).  The
#: tracked ratio is ``grey_resilience`` = control virtual time divided by
#: protected virtual time: how much simulated time the defensive layer
#: claws back from the grey weather; a drop means the detection/hedging
#: machinery got worse at routing around degraded peers.
HEALTH_REPLICAS = 10
HEALTH_KEYS = 4
HEALTH_WRITE_ROUNDS = 40
HEALTH_WRITES_PER_ROUND = 10
HEALTH_SETTLE_ROUNDS = 120
HEALTH_WRITERS = 2
HEALTH_SEED = 6600
HEALTH_LINK_LATENCY = 0.05
HEALTH_COMPACT_THRESHOLD_BITS = 512
HEALTH_FAMILY = "version-stamp"

#: Lockstep benchmark shape: long enough that histories hold hundreds of
#: events, wide enough that the per-step cross-check dominates.
LOCKSTEP_TRACE_STEPS = 500
LOCKSTEP_MAX_FRONTIER = 64

#: Re-rooting benchmark shape.  42 sync-chain steps is the sweet spot: the
#: raw (no-GC) arm has already blown up ~4 orders of magnitude (hundreds of
#: kilobits per stamp) yet still replays in tens of milliseconds; the GC'd
#: arm holds stamps around a hundred bits throughout.  The soak arm is the
#: long GC'd-only replay showing throughput stays flat at trace lengths the
#: raw stamps could never reach.
REROOT_CHAIN_STEPS = 42
REROOT_SOAK_STEPS = 1500
REROOT_REPLICAS = 4
REROOT_THRESHOLD_BITS = 256

#: Contracts benchmark shape.  The enforcement arm drives a converged
#: gossip population (every export already propagated, so checks pass and
#: no reports are allocated) and times ``ContractChecker.check`` in
#: per-spec evaluations/sec against the bare tracker comparison the
#: checker wraps -- both arms in-process, so the tracked ratio
#: ``check_vs_compare`` is the enforcement layer's overhead per
#: comparison and transfers across runner hardware.  The provenance arm
#: replays :func:`repro.contracts.provenance.reconstruct` over a scripted
#: sync history whose target never appears (the full-replay worst case).
CONTRACTS_FAMILY = "version-stamp"
CONTRACTS_REPLICAS = 4
CONTRACTS_FRESHNESS_LAG = 4
CONTRACTS_WARMUP_WRITES = 8
CONTRACTS_PROVENANCE_EXCHANGES = 256
CONTRACTS_PROVENANCE_PEERS = 8

#: Durability benchmark shape.  Recovery is timed against journals of
#: these lengths (records); the snapshot arm measures compacted bytes per
#: key for every clock family; the overhead arm compares write-churn
#: anti-entropy rounds/sec with and without journaling (file backend, OS
#: page cache -- the process-crash model the replication layer defaults
#: to).  The tracked ratio is durable/in-memory rounds-per-second: the
#: ISSUE budget is <= 10% journaling overhead, i.e. a ratio >= 0.9.
DURABILITY_LOG_LENGTHS = (256, 1024, 4096)
QUICK_DURABILITY_LOG_LENGTHS = (256, 1024)
DURABILITY_KEYS = 24
DURABILITY_SNAPSHOT_KEYS = 64
DURABILITY_REPLICAS = 6
DURABILITY_FAMILY = "version-stamp"
DURABILITY_WARMUP_ROUNDS = 24
DURABILITY_CHURN_ROUNDS = 150
DURABILITY_COMPACT_THRESHOLD_BITS = 384


def _build_frontier(width, *, reducing=True, cls=VersionStamp):
    """``width`` coexisting stamps, every third one updated (mixed knowledge)."""
    stamps = [cls.seed(reducing=reducing)]
    while len(stamps) < width:
        left, right = stamps.pop(0).fork()
        stamps.extend((left, right))
    return [
        stamp.update() if index % 3 == 0 else stamp
        for index, stamp in enumerate(stamps)
    ]


def _best_rate(operation, operations_per_call, *, repeats, min_time):
    """Best observed ops/sec over ``repeats`` timed batches."""
    best = 0.0
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < min_time:
            operation()
            calls += 1
            elapsed = time.perf_counter() - start
        rate = calls * operations_per_call / elapsed
        best = max(best, rate)
    return best


def measure_core_ops(width, *, repeats, min_time):
    """ops/sec for update/fork/join/compare at one frontier width."""
    stamps = _build_frontier(width)
    pairs = list(zip(stamps[::2], stamps[1::2]))
    results = {
        "update": _best_rate(
            lambda: [s.update() for s in stamps], len(stamps),
            repeats=repeats, min_time=min_time,
        ),
        "fork": _best_rate(
            lambda: [s.fork() for s in stamps], len(stamps),
            repeats=repeats, min_time=min_time,
        ),
        "join": _best_rate(
            lambda: [a.join(b) for a, b in pairs], len(pairs),
            repeats=repeats, min_time=min_time,
        ),
        "compare": _best_rate(
            lambda: [a.compare(b) for a in stamps for b in stamps if a is not b],
            len(stamps) * (len(stamps) - 1),
            repeats=repeats, min_time=min_time,
        ),
    }
    return results


def _fold_plans(width, rounds, seed=12345):
    """Random join orders folding ``width`` elements down to one.

    Real anti-entropy merges arrive in arbitrary order, so intermediate
    names carry O(width) strings and the Section 6 reduction fires
    throughout the fold -- the regime where normalization cost matters.
    The plans are precomputed so the timed loop contains nothing but joins.
    """
    import random

    rng = random.Random(seed)
    plans = []
    for _ in range(rounds):
        order = []
        alive = list(range(width))
        slot = width
        while len(alive) > 1:
            i, j = rng.sample(range(len(alive)), 2)
            a, b = alive[i], alive[j]
            for index in sorted((i, j), reverse=True):
                del alive[index]
            order.append((a, b, slot))
            alive.append(slot)
            slot += 1
        plans.append(order)
    return plans


def measure_join_normalize(width, *, repeats, min_time):
    """The acceptance microbenchmark: join+normalize, packed vs reference.

    Folds a width-``width`` frontier of updated stamps back to a single
    stamp along precomputed random join orders; every join triggers the
    Section 6 normalization.  The same workload runs through the packed
    core and the retained text-based seed implementation
    (:mod:`repro.core.refimpl`), and the ratio is the tracked speedup.
    """
    packed_frontier = _build_frontier(width, cls=VersionStamp)
    reference_frontier = _build_frontier(width, cls=RefStamp)
    plans = _fold_plans(width, rounds=8)
    joins_per_call = sum(len(plan) for plan in plans)

    def collapse(frontier):
        for plan in plans:
            slots = list(frontier) + [None] * len(plan)
            for a, b, out in plan:
                slots[out] = slots[a].join(slots[b])
        return slots[-1]

    packed_rate = _best_rate(
        lambda: collapse(packed_frontier), joins_per_call,
        repeats=repeats, min_time=min_time,
    )
    reference_rate = _best_rate(
        lambda: collapse(reference_frontier), joins_per_call,
        repeats=repeats, min_time=min_time,
    )
    return {
        "packed_ops_per_sec": packed_rate,
        "reference_ops_per_sec": reference_rate,
        "speedup_vs_reference": packed_rate / reference_rate if reference_rate else None,
    }


def measure_lockstep(
    *,
    steps=LOCKSTEP_TRACE_STEPS,
    max_frontier=LOCKSTEP_MAX_FRONTIER,
    repeats,
    min_time,
):
    """Lockstep trace throughput: this PR's oracle stack vs the seed stack.

    Replays one deterministic ``steps``-operation trace (frontier capped at
    ``max_frontier``, update-heavy so histories hold hundreds of events)
    through a :class:`LockstepRunner` with no comparison mechanisms
    attached: every step pays only for the oracle's frontier cross-check,
    i.e. the cost this benchmark isolates.  The same trace runs twice:

    * bitset-backed :class:`CausalAdapter` with the incremental
      comparison-cache strategy (this PR's lockstep stack), and
    * frozenset :class:`RefCausalAdapter` with the retained seed strategy
      (full O(F²) matrix rescans), exactly as the seed runner behaved.

    The two stacks are proven to produce identical agreement reports by the
    differential tests; the ratio of their trace throughput is the tracked
    speedup.
    """
    trace = random_dynamic_trace(
        steps,
        seed=97,
        update_weight=0.55,
        fork_weight=0.3,
        join_weight=0.15,
        max_frontier=max_frontier,
        name="lockstep-bench",
    )

    def replay_with(oracle_factory, incremental):
        def run():
            runner = LockstepRunner(
                adapters=[],
                oracle=oracle_factory(),
                compare_every_step=True,
                check_invariants=False,
                incremental=incremental,
            )
            runner.run(trace)
        return run

    bitset_rate = _best_rate(
        replay_with(CausalAdapter, True), len(trace),
        repeats=repeats, min_time=min_time,
    )
    reference_rate = _best_rate(
        replay_with(RefCausalAdapter, False), len(trace),
        repeats=repeats, min_time=min_time,
    )
    return {
        "trace_steps": steps,
        "max_frontier": max_frontier,
        "bitset_steps_per_sec": bitset_rate,
        "refhistory_steps_per_sec": reference_rate,
        "speedup_vs_refhistory": (
            bitset_rate / reference_rate if reference_rate else None
        ),
    }


def _replay_frontier(trace, threshold, *, track_peak=False):
    frontier = Frontier.initial(trace.seed, reroot_threshold=threshold)
    peak = 0
    for operation in trace.operations:
        apply_operation(frontier, operation)
        if track_peak:
            peak = max(peak, frontier.max_stamp_bits())
    return frontier, peak


def measure_reroot(
    *,
    chain_steps=REROOT_CHAIN_STEPS,
    soak_steps=REROOT_SOAK_STEPS,
    replicas=REROOT_REPLICAS,
    threshold=REROOT_THRESHOLD_BITS,
    repeats,
    min_time,
):
    """Re-rooting GC vs raw reducing stamps on a sibling-starved sync chain.

    The same ``chain_steps``-operation :func:`sync_chain_trace` replays
    through a plain frontier and one with ``reroot_threshold=threshold``;
    the speedup of the GC'd replay is the tracked ratio (stable across
    machines, both arms run in the same process).  A second, GC'd-only
    replay of a ``soak_steps`` trace reports absolute soak throughput and
    the peak stamp size, demonstrating the bounded regime the raw stamps
    cannot enter at all.
    """
    trace = sync_chain_trace(chain_steps, replicas=replicas, seed=11)
    rerooted_rate = _best_rate(
        lambda: _replay_frontier(trace, threshold), len(trace),
        repeats=repeats, min_time=min_time,
    )
    raw_rate = _best_rate(
        lambda: _replay_frontier(trace, None), len(trace),
        repeats=repeats, min_time=min_time,
    )
    soak_trace = sync_chain_trace(soak_steps, replicas=replicas, seed=11)
    soak_rate = _best_rate(
        lambda: _replay_frontier(soak_trace, threshold), len(soak_trace),
        repeats=max(1, repeats - 1), min_time=min_time,
    )
    final, soak_peak = _replay_frontier(soak_trace, threshold, track_peak=True)
    return {
        "chain_steps": chain_steps,
        "soak_steps": soak_steps,
        "replicas": replicas,
        "threshold_bits": threshold,
        "rerooted_steps_per_sec": rerooted_rate,
        "raw_steps_per_sec": raw_rate,
        "speedup_vs_raw": rerooted_rate / raw_rate if raw_rate else None,
        "soak_steps_per_sec": soak_rate,
        "soak_peak_stamp_bits": soak_peak,
        "soak_reroots": final.reroots_performed,
    }


def _build_kernel_frontier(family, width):
    """``width`` coexisting kernel clocks with mixed knowledge."""
    clocks = [kernel.make(family)]
    while len(clocks) < width:
        left, right = clocks.pop(0).fork()
        clocks.extend((left, right))
    return [
        clock.event() if index % 3 == 0 else clock
        for index, clock in enumerate(clocks)
    ]


def measure_codec(frontier_sizes, *, repeats, min_time):
    """Envelope encode/decode throughput for every registered clock family.

    Per family and frontier width: clocks/sec through ``to_bytes`` and
    ``from_bytes`` plus the mean envelope size.  The tracked floor is
    ``envelope_vs_json_roundtrip``: one full round-trip of a version-stamp
    frontier through the binary envelope vs through the JSON codec, at the
    largest measured width.  Both arms run in the same process, so the
    ratio (unlike the absolute rates) transfers across runner hardware.
    """
    section = {"frontier_sizes": list(frontier_sizes), "families": {}}
    for family in kernel.families():
        per_width = {}
        for width in frontier_sizes:
            clocks = _build_kernel_frontier(family, width)
            blobs = [clock.to_bytes() for clock in clocks]
            per_width[str(width)] = {
                "encode_ops_per_sec": _best_rate(
                    lambda clocks=clocks: [c.to_bytes() for c in clocks],
                    len(clocks), repeats=repeats, min_time=min_time,
                ),
                "decode_ops_per_sec": _best_rate(
                    lambda blobs=blobs: [kernel.from_bytes(b) for b in blobs],
                    len(blobs), repeats=repeats, min_time=min_time,
                ),
                "mean_envelope_bytes": sum(len(b) for b in blobs) / len(blobs),
            }
        section["families"][family] = per_width

    width = max(frontier_sizes)
    clocks = _build_kernel_frontier("version-stamp", width)
    stamps = [clock.stamp for clock in clocks]
    envelope_rate = _best_rate(
        lambda: [kernel.from_bytes(c.to_bytes()) for c in clocks],
        len(clocks), repeats=repeats, min_time=min_time,
    )
    json_rate = _best_rate(
        lambda: [stamp_from_json(stamp_to_json(s)) for s in stamps],
        len(stamps), repeats=repeats, min_time=min_time,
    )
    section["roundtrip_width"] = width
    section["envelope_roundtrips_per_sec"] = envelope_rate
    section["json_roundtrips_per_sec"] = json_rate
    section["envelope_vs_json_roundtrip"] = (
        envelope_rate / json_rate if json_rate else None
    )
    return section


def _build_population(family, replicas, keys, *, seed=0):
    """A fully-connected gossip population with ``keys`` replicated keys."""
    import random

    network = FullyConnectedNetwork()
    nodes = [
        MobileNode.first(
            "n0", network, tracker_factory=kernel.family(family).factory
        )
    ]
    for index in range(1, replicas):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    rng = random.Random(seed)
    for index in range(keys):
        rng.choice(nodes).write(f"key{index}", f"value{index}")
    return nodes


def _steady_state_counts(family, replicas):
    """Stamps, messages and bytes per converged anti-entropy round.

    Builds a population, replicates every key everywhere during warm-up
    rounds, then counts :data:`REPLICATION_COUNTED_ROUNDS` further rounds.
    Seeded, so the counts are exact on any hardware.
    """
    import random

    nodes = _build_population(family, replicas, REPLICATION_KEYS)
    engine = WireSyncEngine()
    gossip = AntiEntropy(nodes, rng=random.Random(7), engine=engine)
    for _ in range(REPLICATION_WARMUP_ROUNDS):
        gossip.run_round()
    shipped_before = engine.stamps_shipped
    messages_before, bytes_before = engine.meter.snapshot()
    for _ in range(REPLICATION_COUNTED_ROUNDS):
        gossip.run_round()
    return {
        "stamps_per_round": (engine.stamps_shipped - shipped_before)
        / REPLICATION_COUNTED_ROUNDS,
        "messages_per_round": (engine.meter.messages - messages_before)
        / REPLICATION_COUNTED_ROUNDS,
        "bytes_per_round": (engine.meter.bytes_sent - bytes_before)
        / REPLICATION_COUNTED_ROUNDS,
    }


def measure_replication(replica_counts):
    """Steady-state anti-entropy traffic for every clock family.

    The tracked values are the version-stamp steady state's stamps and
    messages per round at ``REPLICATION_TRACKED_REPLICAS`` replicas; the
    section keeps the latter's committed name,
    ``batched_messages_per_round``.
    """
    section = {
        "replica_counts": list(replica_counts),
        "keys": REPLICATION_KEYS,
        "warmup_rounds": REPLICATION_WARMUP_ROUNDS,
        "counted_rounds": REPLICATION_COUNTED_ROUNDS,
        "tracked_family": REPLICATION_TRACKED_FAMILY,
        "tracked_replicas": REPLICATION_TRACKED_REPLICAS,
        "families": {
            family: {
                str(replicas): _steady_state_counts(family, replicas)
                for replicas in replica_counts
            }
            for family in kernel.families()
        },
    }
    tracked = section["families"][REPLICATION_TRACKED_FAMILY][
        str(REPLICATION_TRACKED_REPLICAS)
    ]
    section["stamps_per_round"] = tracked["stamps_per_round"]
    section["batched_messages_per_round"] = tracked["messages_per_round"]
    return section


def _chaos_arm(loss):
    """Rounds-to-convergence and fault counters at one loss level.

    Fully deterministic: the transport schedule, the gossip pairings and
    the simulated retry backoff all derive from :data:`CHAOS_SEED`, so
    the returned counts are bit-identical across machines and runs.
    """
    import random

    network = PartitionedNetwork()
    plan = FaultPlan.perfect() if loss == 0.0 else FaultPlan.chaos(loss=loss)
    transport = FaultyTransport(network, plan=plan, seed=CHAOS_SEED)
    engine = WireSyncEngine(
        transport=transport,
        retry=RetryPolicy(attempts=CHAOS_RETRY_ATTEMPTS),
    )
    nodes = [
        MobileNode.first(
            "n0", transport, tracker_factory=kernel.family(CHAOS_FAMILY).factory
        )
    ]
    for index in range(1, CHAOS_REPLICAS):
        nodes.append(nodes[-1].spawn_peer(f"n{index}"))
    rng = random.Random(CHAOS_SEED + 1)
    for index in range(CHAOS_KEYS):
        rng.choice(nodes).write(f"key{index}", f"value{index}")
    gossip = AntiEntropy(nodes, rng=random.Random(CHAOS_SEED + 2), engine=engine)
    rounds = 0
    while not gossip.converged() and rounds < CHAOS_MAX_ROUNDS:
        gossip.run_round()
        rounds += 1
    if not gossip.converged():
        raise RuntimeError(
            f"chaos benchmark arm at loss={loss} failed to converge within "
            f"{CHAOS_MAX_ROUNDS} rounds"
        )
    meter = engine.meter
    return {
        "rounds_to_convergence": rounds,
        "goodput": meter.goodput(),
        "messages": meter.messages,
        "bytes_sent": meter.bytes_sent,
        "dropped": meter.dropped,
        "duplicated": meter.duplicated,
        "corrupted": meter.corrupted,
        "retried": meter.retried,
        "retry_latency": meter.retry_latency,
        "deliveries_failed": engine.deliveries_failed,
        "frames_rejected": engine.frames_rejected,
    }


def measure_chaos(loss_levels=CHAOS_LOSS_LEVELS):
    """Convergence cost of the fault matrix, as deterministic seeded counts.

    One population shape per loss level: :data:`CHAOS_REPLICAS` replicas,
    every key written before the first round, then faulty anti-entropy
    rounds until ``converged()``.  The 0.0 arm runs a perfect transport
    (the clean reference); lossy arms run the full
    :meth:`~repro.replication.faults.FaultPlan.chaos` matrix (loss plus
    duplication, reordering and bit corruption).  The tracked ratio is
    ``convergence_efficiency`` = clean rounds / rounds at
    :data:`CHAOS_TRACKED_LOSS` -- 1.0 means the fault matrix cost nothing,
    and a drop means the retry/skip machinery got worse at hiding faults.
    """
    section = {
        "replicas": CHAOS_REPLICAS,
        "keys": CHAOS_KEYS,
        "seed": CHAOS_SEED,
        "family": CHAOS_FAMILY,
        "retry_attempts": CHAOS_RETRY_ATTEMPTS,
        "loss_levels": {},
    }
    for loss in loss_levels:
        section["loss_levels"][f"{loss:.2f}"] = _chaos_arm(loss)
    clean = section["loss_levels"]["0.00"]["rounds_to_convergence"]
    tracked = section["loss_levels"][f"{CHAOS_TRACKED_LOSS:.2f}"]
    section["tracked_loss"] = f"{CHAOS_TRACKED_LOSS:.2f}"
    section["convergence_efficiency"] = (
        clean / tracked["rounds_to_convergence"]
        if tracked["rounds_to_convergence"]
        else None
    )
    return section


def measure_scale():
    """Datacenter-scale convergence via the async anti-entropy service.

    :data:`SCALE_REPLICAS` simulated replicas gossip the batched stream
    format over the virtual-time event loop (overlap mode,
    :data:`SCALE_SHARDS` key shards, millisecond links) until every
    replica agrees.  All reported figures are deterministic: round and
    byte *counts*, plus latency percentiles in *virtual* seconds -- the
    wall-clock cost of the simulation never leaks into the snapshot.
    """
    import math

    from repro.service import AntiEntropyService, LinkProfile, build_cluster

    nodes, keys = build_cluster(SCALE_REPLICAS, keys=SCALE_KEYS, seed=SCALE_SEED)
    service = AntiEntropyService(
        nodes,
        shards=SCALE_SHARDS,
        seed=SCALE_SEED,
        link=LinkProfile(
            latency=SCALE_LINK_LATENCY,
            bandwidth=SCALE_LINK_BANDWIDTH,
            jitter=SCALE_LINK_JITTER,
        ),
    )
    report = service.run(max_rounds=SCALE_MAX_ROUNDS)
    if report.converged_after is None:
        raise RuntimeError(
            f"scale benchmark failed to converge within {SCALE_MAX_ROUNDS} rounds"
        )
    rounds_p = report.round_duration_percentiles()
    legs_p = report.session_latency_percentiles()
    return {
        "replicas": SCALE_REPLICAS,
        "keys": SCALE_KEYS,
        "shards": SCALE_SHARDS,
        "seed": SCALE_SEED,
        "link_latency": SCALE_LINK_LATENCY,
        "link_bandwidth": SCALE_LINK_BANDWIDTH,
        "link_jitter": SCALE_LINK_JITTER,
        "rounds_to_convergence": report.converged_after,
        "virtual_seconds": report.virtual_seconds,
        "messages": report.total_messages,
        "bytes_sent": report.total_bytes,
        "bytes_per_key": report.bytes_per_key(len(keys)),
        "bytes_per_key_per_replica": report.bytes_per_key_per_replica(len(keys)),
        "round_p50_virtual_seconds": rounds_p[0.5],
        "round_p90_virtual_seconds": rounds_p[0.9],
        "round_p99_virtual_seconds": rounds_p[0.99],
        "transfer_leg_p50_virtual_seconds": legs_p[0.5],
        "transfer_leg_p90_virtual_seconds": legs_p[0.9],
        "transfer_leg_p99_virtual_seconds": legs_p[0.99],
        "convergence_efficiency": (
            math.log2(SCALE_REPLICAS) / report.converged_after
        ),
    }


def _health_arm(*, degrade, health, hedge):
    """One seeded grey-weather run; returns deterministic observables.

    The structure mirrors ``tests/service/test_grey_soak.py``: a clean
    pre-phase seeds every key everywhere, a maintenance re-rooting sweep
    runs once per service round (version stamps grow exponentially under
    sync churn -- the paper's core motivation -- and would overflow the
    wire format without it), then the cluster settles to convergence.
    """
    import random

    from repro.replication import DegradationPlan
    from repro.service import (
        AntiEntropyService,
        HealthConfig,
        LinkProfile,
        build_cluster,
    )

    seed = HEALTH_SEED
    nodes, names = build_cluster(
        HEALTH_REPLICAS,
        keys=HEALTH_KEYS,
        family=HEALTH_FAMILY,
        seed=seed,
        writes_per_key=0,
    )
    plan = FaultPlan(degradation=DegradationPlan.grey() if degrade else None)
    transport = FaultyTransport(nodes[0].network, plan=plan, seed=seed)
    service = AntiEntropyService(
        nodes,
        engine=WireSyncEngine(transport=transport),
        link=LinkProfile(latency=HEALTH_LINK_LATENCY),
        seed=seed,
        health=(
            HealthConfig(min_samples=3, min_deadline=1.0, max_deadline=20.0)
            if health
            else None
        ),
        hedge=hedge,
    )
    maintenance = AntiEntropy(
        nodes,
        rng=random.Random(seed + 1),
        engine=WireSyncEngine(),
        compact_threshold_bits=HEALTH_COMPACT_THRESHOLD_BITS,
    )
    for name in names:
        nodes[0].write(name, f"seed-{name}")
    for _ in range(40):
        maintenance.run_round()
        if maintenance.converged():
            break
    if not maintenance.converged():
        raise RuntimeError("health benchmark pre-phase failed to converge")

    ops = random.Random(seed + 2)
    step = 0
    detection_round = None

    def sweep_and_inject(metrics):
        nonlocal step, detection_round
        if detection_round is None and metrics.timeouts > 0:
            detection_round = metrics.number
        maintenance.run_round()
        for _ in range(HEALTH_WRITES_PER_ROUND):
            nodes[ops.randrange(HEALTH_WRITERS)].write(
                ops.choice(names), f"s{step}"
            )
            step += 1

    write = service.run(
        max_rounds=HEALTH_WRITE_ROUNDS,
        until_converged=False,
        on_round=sweep_and_inject,
    )
    maintenance.run_round()
    settle = service.run(
        max_rounds=HEALTH_SETTLE_ROUNDS,
        until_converged=True,
        on_round=lambda metrics: maintenance.run_round(),
    )
    if settle.converged_after is None:
        raise RuntimeError(
            "health benchmark arm failed to converge within "
            f"{HEALTH_SETTLE_ROUNDS} settle rounds"
        )
    counters = service.health.counters() if service.health is not None else {}
    return {
        "virtual_seconds": write.virtual_seconds + settle.virtual_seconds,
        "settle_rounds": len(settle.rounds),
        "detection_latency_rounds": detection_round,
        "timeouts": counters.get("timeouts", 0),
        "hedges": counters.get("hedges", 0),
        "hedge_wins": counters.get("hedge_wins", 0),
        "breaker_skips": counters.get("breaker_skips", 0),
    }


def measure_health():
    """Grey-failure resilience of the defensive anti-entropy service.

    Reported per arm: total virtual seconds to drive the seeded write
    schedule and settle to convergence, settle-phase round count, the
    round at which the accrual detector first cut a session off
    (detection latency), and the timeout/hedge/breaker counters.  The
    section-level figures: ``hedge_rate`` (hedges per timeout in the
    protected arm), ``convergence_slowdown_vs_healthy`` (protected over
    healthy virtual time -- the price of the grey weather *with* the
    defense up) and the tracked ``grey_resilience`` ratio (control over
    protected virtual time -- what the defense saves).
    """
    healthy = _health_arm(degrade=False, health=True, hedge=True)
    control = _health_arm(degrade=True, health=False, hedge=False)
    protected = _health_arm(degrade=True, health=True, hedge=True)
    if healthy["timeouts"] or healthy["breaker_skips"]:
        raise RuntimeError(
            "health benchmark healthy arm tripped the detector "
            "(false positives make the ratio meaningless)"
        )
    return {
        "replicas": HEALTH_REPLICAS,
        "keys": HEALTH_KEYS,
        "seed": HEALTH_SEED,
        "family": HEALTH_FAMILY,
        "write_rounds": HEALTH_WRITE_ROUNDS,
        "writes_per_round": HEALTH_WRITES_PER_ROUND,
        "link_latency": HEALTH_LINK_LATENCY,
        "healthy": healthy,
        "control": control,
        "protected": protected,
        "detection_latency_rounds": protected["detection_latency_rounds"],
        "hedge_rate": (
            protected["hedges"] / protected["timeouts"]
            if protected["timeouts"]
            else None
        ),
        "convergence_slowdown_vs_healthy": (
            protected["virtual_seconds"] / healthy["virtual_seconds"]
        ),
        "grey_resilience": (
            control["virtual_seconds"] / protected["virtual_seconds"]
        ),
    }


def _churn_elapsed(base, *, durable):
    """One write-churn run: build the population, time the fixed schedule.

    Quiescent rounds journal nothing (an EQUAL sync outcome writes no
    records), so the overhead workload makes every round actually move
    data: one write per round on a rotating node, then one gossip round,
    with auto re-rooting keeping the metadata bounded.  The schedule is
    fully deterministic (fixed seeds, fixed round count), so the durable
    and in-memory arms execute identical work and differ only in whether
    the stores journal to disk (file backend, OS page cache), including
    the snapshots the durability barrier takes.
    """
    import random

    network = FullyConnectedNetwork()
    factory = kernel.family(DURABILITY_FAMILY).factory
    if durable:
        store = StoreReplica(
            "n0", tracker_factory=factory,
            durable=True, path=Path(base) / "n0",
        )
        nodes = [MobileNode("n0", store, network)]
    else:
        nodes = [MobileNode.first("n0", network, tracker_factory=factory)]
    for index in range(1, DURABILITY_REPLICAS):
        peer = nodes[-1].spawn_peer(f"n{index}")
        if durable:
            peer.store.journal = StoreJournal(open_log(Path(base) / f"n{index}"))
            for key in peer.store.keys():
                peer.store._record(key)
            peer.store._flush_journal()
        nodes.append(peer)
    rng = random.Random(11)
    for index in range(DURABILITY_KEYS):
        rng.choice(nodes).write(f"key{index}", f"value{index}")
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(13),
        engine=WireSyncEngine(),
        compact_threshold_bits=DURABILITY_COMPACT_THRESHOLD_BITS,
    )
    for _ in range(DURABILITY_WARMUP_ROUNDS):
        gossip.run_round()
    start = time.perf_counter()
    for step in range(DURABILITY_CHURN_ROUNDS):
        nodes[step % len(nodes)].write(f"key{step % DURABILITY_KEYS}", step)
        gossip.run_round()
    return time.perf_counter() - start


def _measure_sync_overhead(root, *, repeats):
    """Paired rounds/sec for the durable and in-memory churn arms.

    The workload's journaling overhead (~10%) is of the same order as
    this machine's run-to-run timing noise, so the measurement leans on
    two facts: both arms run the *same deterministic schedule* every
    repeat, and timing noise is strictly additive (GC pauses, scheduler
    preemption, frequency scaling only ever make a run slower).  The
    minimum elapsed per arm is therefore the estimator of each arm's
    true cost, and the tracked ratio divides the two minima.  The arms
    are still run interleaved (memory then durable, back to back each
    repeat) so neither gets to monopolize a favourable load regime, and
    a generational collection before each timed run keeps GC pauses
    from landing on one arm only.
    """
    import gc

    best = {"memory": None, "durable": None}
    for attempt in range(max(1, repeats)):
        for arm, durable in (("memory", False), ("durable", True)):
            gc.collect()
            elapsed = _churn_elapsed(
                Path(root) / f"{arm}-{attempt}", durable=durable
            )
            if best[arm] is None or elapsed < best[arm]:
                best[arm] = elapsed
    return (
        DURABILITY_CHURN_ROUNDS / best["durable"],
        DURABILITY_CHURN_ROUNDS / best["memory"],
        best["memory"] / best["durable"],
    )


def measure_contracts(*, repeats, min_time):
    """Contract enforcement overhead and provenance reconstruction rate.

    The enforcement arm builds a :data:`CONTRACTS_REPLICAS`-replica
    population, propagates :data:`CONTRACTS_WARMUP_WRITES` exports until
    the consumer holds the latest one, then times
    :meth:`~repro.contracts.checker.ContractChecker.check` over an
    observes and a bounded-freshness contract in the steady (passing)
    state -- the rate a store pays to evaluate contracts on every
    operation boundary.  The baseline arm times the single bare
    ``compare(...).shortfall`` clock comparison the checker wraps, on the
    same live observer forks; the tracked ratio ``check_vs_compare``
    divides the two per-comparison rates, so a drop means the dispatch,
    log-lookup and report machinery around the comparison got heavier.

    The provenance arm scripts :data:`CONTRACTS_PROVENANCE_EXCHANGES`
    exchange records (one in five a lost leg) whose target replica never
    appears, forcing :func:`~repro.contracts.provenance.reconstruct` to
    replay the whole window every call, and reports traces/sec and
    records/sec.
    """
    import random

    from repro.contracts import ContractChecker, ContractSpec, reconstruct
    from repro.replication import SyncHistory

    network = FullyConnectedNetwork()
    factory = kernel.family(CONTRACTS_FAMILY).factory
    writer = MobileNode.first("writer", network, tracker_factory=factory)
    nodes = [writer] + [
        writer.spawn_peer(f"r{index}")
        for index in range(CONTRACTS_REPLICAS - 1)
    ]
    consumer = nodes[-1].store
    history = SyncHistory(maxlen=512)
    engine = WireSyncEngine(history=history)
    specs = [
        ContractSpec(
            name="observes", kind="observes",
            source="export", target="consume", key="k",
        ),
        ContractSpec(
            name="freshness", kind="freshness-within-k-events",
            source="export", target="consume", key="k",
            max_lag=CONTRACTS_FRESHNESS_LAG,
        ),
    ]
    checker = ContractChecker(specs, history=history)
    checker.watch_writes(writer.store, "export")
    gossip = AntiEntropy(
        nodes,
        rng=random.Random(5),
        engine=engine,
        compact_threshold_bits=384,
    )
    for generation in range(CONTRACTS_WARMUP_WRITES):
        writer.write("k", generation)
        gossip.run_round()
    violations = checker.check("consume", consumer, raise_on_violation=False)
    if violations:
        raise RuntimeError(
            "contracts benchmark population failed to reach the passing "
            f"steady state: {[v.summary() for v in violations]}"
        )
    check_rate = _best_rate(
        lambda: checker.check("consume", consumer, raise_on_violation=False),
        len(specs), repeats=repeats, min_time=min_time,
    )
    target = consumer.observe("k")
    record = writer.store.observe("k")
    compare_rate = _best_rate(
        lambda: target.compare(record).shortfall, 1,
        repeats=repeats, min_time=min_time,
    )

    trace_history = SyncHistory(maxlen=CONTRACTS_PROVENANCE_EXCHANGES)
    peers = [f"n{index}" for index in range(CONTRACTS_PROVENANCE_PEERS)]
    rng = random.Random(9)
    for seq in range(CONTRACTS_PROVENANCE_EXCHANGES):
        first, second = rng.sample(peers, 2)
        lost = seq % 5 == 0
        trace_history.append(
            first=first,
            second=second,
            keys_synced=() if lost else ("k",),
            keys_lost=(("k", "request-lost"),) if lost else (),
            messages=2,
            bytes_sent=64,
            dropped=1 if lost else 0,
            duplicated=0,
            retried=1 if lost else 0,
            corrupted=0,
            deliveries_failed=1 if lost else 0,
        )
    trace_rate = _best_rate(
        lambda: reconstruct(
            trace_history,
            key="k",
            source_replica=peers[0],
            target_replica="absent",
            since_seq=0,
        ),
        1, repeats=repeats, min_time=min_time,
    )
    return {
        "family": CONTRACTS_FAMILY,
        "replicas": CONTRACTS_REPLICAS,
        "specs": len(specs),
        "check_ops_per_sec": check_rate,
        "compare_ops_per_sec": compare_rate,
        "check_vs_compare": check_rate / compare_rate if compare_rate else None,
        "provenance": {
            "exchanges": CONTRACTS_PROVENANCE_EXCHANGES,
            "peers": CONTRACTS_PROVENANCE_PEERS,
            "traces_per_sec": trace_rate,
            "records_per_sec": trace_rate * CONTRACTS_PROVENANCE_EXCHANGES,
        },
    }


def measure_durability(log_lengths, *, repeats, min_time):
    """Recovery time, snapshot density and journaling overhead.

    Three arms:

    * ``recovery``: a journal of N records (no snapshot -- the worst
      case) rebuilt from disk via :func:`repro.durability.recovery.
      recover_replica`, reporting seconds and records/sec per length;
    * ``snapshot``: a compacted snapshot of ``DURABILITY_SNAPSHOT_KEYS``
      keys for every clock family, reporting bytes per key (the "CS"
      group streams make this the same bytes the wire ships);
    * ``sync_overhead``: write-churn anti-entropy rounds/sec with
      journaling on vs off, measured as interleaved repeats of one
      fixed deterministic schedule (``min_time`` does not apply).  The
      tracked ratio ``durable_vs_memory_sync`` divides the two minimum
      elapsed times -- the committed floor enforces the <= 10% overhead
      budget (ratio >= 0.9) in CI.
    """
    import tempfile

    del min_time  # fixed-length schedules; repeats absorb noise

    section = {
        "family": DURABILITY_FAMILY,
        "backend": "file",
        "log_lengths": list(log_lengths),
        "recovery": {},
        "snapshot": {},
    }
    factory = kernel.family(DURABILITY_FAMILY).factory
    with tempfile.TemporaryDirectory(prefix="repro-bench-durability-") as root:
        for length in log_lengths:
            path = Path(root) / f"recover-{length}"
            # A threshold past the log length keeps the barrier from
            # snapshotting, so recovery replays all ``length`` records.
            store = StoreReplica(
                "bench",
                tracker_factory=factory,
                durable=True,
                path=path,
                snapshot_every=length + 1,
            )
            for index in range(length):
                store.put(f"key{index % DURABILITY_KEYS}", {"step": index})
            journal_bytes = store.journal.log.journal_bytes()
            store.journal.close()
            best = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                recovered, report = recover_replica(path, name="bench")
                elapsed = time.perf_counter() - start
                recovered.journal.close()
                best = max(best, length / elapsed)
            assert report.records_replayed == length
            section["recovery"][str(length)] = {
                "journal_bytes": journal_bytes,
                "seconds": length / best,
                "records_per_sec": best,
            }
        for family in kernel.families():
            path = Path(root) / f"snapshot-{family}"
            store = StoreReplica(
                "bench",
                tracker_factory=kernel.family(family).factory,
                durable=True,
                path=path,
            )
            for index in range(DURABILITY_SNAPSHOT_KEYS):
                store.put(f"key{index}", {"slot": index})
            blob_size = store.journal.snapshot(store)
            store.journal.close()
            section["snapshot"][family] = {
                "keys": DURABILITY_SNAPSHOT_KEYS,
                "snapshot_bytes": blob_size,
                "bytes_per_key": blob_size / DURABILITY_SNAPSHOT_KEYS,
            }
        durable_rate, memory_rate, ratio = _measure_sync_overhead(
            Path(root) / "churn", repeats=max(repeats, 7)
        )
    section["sync_overhead"] = {
        "replicas": DURABILITY_REPLICAS,
        "keys": DURABILITY_KEYS,
        "rounds": DURABILITY_CHURN_ROUNDS,
        "durable_rounds_per_sec": durable_rate,
        "memory_rounds_per_sec": memory_rate,
    }
    section["durable_vs_memory_sync"] = ratio
    return section


def snapshot(
    *,
    frontier_sizes=DEFAULT_FRONTIER_SIZES,
    replica_counts=DEFAULT_REPLICA_COUNTS,
    durability_log_lengths=DURABILITY_LOG_LENGTHS,
    repeats=3,
    min_time=0.05,
):
    """Collect the full snapshot dictionary (no I/O)."""
    data = {
        "schema": "repro-bench-ops/2",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "frontier_sizes": list(frontier_sizes),
        "ops_per_sec": {},
        "join_normalize": {},
    }
    for width in frontier_sizes:
        data["ops_per_sec"][str(width)] = measure_core_ops(
            width, repeats=repeats, min_time=min_time
        )
        data["join_normalize"][str(width)] = measure_join_normalize(
            width, repeats=repeats, min_time=min_time
        )
    data["lockstep"] = measure_lockstep(repeats=repeats, min_time=min_time)
    data["reroot"] = measure_reroot(repeats=repeats, min_time=min_time)
    data["codec"] = measure_codec(frontier_sizes, repeats=repeats, min_time=min_time)
    data["replication"] = measure_replication(replica_counts)
    data["chaos"] = measure_chaos()
    data["health"] = measure_health()
    data["scale"] = measure_scale()
    data["contracts"] = measure_contracts(repeats=repeats, min_time=min_time)
    data["durability"] = measure_durability(
        durability_log_lengths, repeats=repeats, min_time=min_time
    )
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=(
            "Sections written: ops_per_sec (update/fork/join/compare at each "
            "frontier width), join_normalize (packed core vs text-based seed "
            "implementation, speedup tracked), and lockstep (a "
            f"{LOCKSTEP_TRACE_STEPS}-step random trace at frontier "
            f"{LOCKSTEP_MAX_FRONTIER} replayed through LockstepRunner: "
            "bitset causal oracle + incremental comparison caching vs the "
            "retained frozenset oracle + seed full-rescan strategy, in trace "
            "steps/sec), reroot (a sibling-starved sync chain replayed "
            "with and without the Section 7 re-rooting GC, speedup tracked), "
            "codec (kernel envelope encode/decode per clock family, with "
            "the envelope-vs-JSON roundtrip ratio tracked), and replication "
            "(steady-state anti-entropy stamps, messages and bytes per round "
            "per clock family at 8-64 replicas, counted, with the "
            "version-stamp steady state's stamps and messages per round at "
            "32 replicas tracked), and chaos "
            "(rounds-to-convergence and fault "
            "counters under a faulty transport at 0/10/30 percent loss, all "
            "deterministic seeded counts, with the clean-vs-10-percent "
            "convergence-efficiency ratio tracked), health (grey-failure "
            "resilience: a seeded degraded run with the accrual health "
            "layer on vs off vs a healthy baseline, reporting detection "
            "latency in rounds, hedge rate and the convergence slowdown, "
            "with the control-vs-protected grey-resilience ratio tracked), "
            "scale (the async "
            f"anti-entropy service converging {SCALE_REPLICAS:,} simulated "
            "replicas on virtual time: rounds, bytes/key and round/leg "
            "latency percentiles, all deterministic, with the "
            "log2(N)-per-round convergence-efficiency ratio tracked), "
            "contracts (causal ordering contract checks/sec vs the bare "
            "tracker comparison they wrap, ratio tracked, plus provenance "
            "reconstruction traces/sec over a scripted lost-leg history), "
            "and durability "
            "(recovery records/sec vs journal length, snapshot bytes/key "
            "per clock family, and journaling overhead on write-churn sync "
            "rounds, with the durable-vs-in-memory ratio tracked). "
            "benchmarks/check_regression.py compares the join_normalize@32, "
            "lockstep, reroot, codec, replication, chaos, health, scale, "
            "contracts "
            "and durability ratios of a fresh "
            "snapshot against the committed BENCH_ops.json and fails CI "
            "when a timed one drops more than 30 percent below its floor or "
            "a deterministic one (the replication steady state's stamps "
            "and messages per round, chaos, health, scale) moves at all "
            "(sections absent from the committed snapshot are skipped, so a "
            "PR adding a section can land)."
        ),
    )
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_ops.json"),
        help="where to write the JSON snapshot (default: repo root BENCH_ops.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewer frontier sizes and shorter timing windows",
    )
    args = parser.parse_args(argv)

    if args.quick:
        data = snapshot(
            frontier_sizes=QUICK_FRONTIER_SIZES,
            replica_counts=QUICK_REPLICA_COUNTS,
            durability_log_lengths=QUICK_DURABILITY_LOG_LENGTHS,
            repeats=2,
            min_time=0.02,
        )
    else:
        data = snapshot()
    data["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    output = Path(args.output)
    try:
        output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write snapshot to {output}: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {output}")
    for width, ops in data["ops_per_sec"].items():
        summary = ", ".join(f"{name}={rate:,.0f}/s" for name, rate in ops.items())
        print(f"  frontier {width:>3}: {summary}")
    for width, ratio in data["join_normalize"].items():
        print(
            f"  join+normalize @ {width:>3}: packed "
            f"{ratio['packed_ops_per_sec']:,.0f}/s vs reference "
            f"{ratio['reference_ops_per_sec']:,.0f}/s "
            f"-> {ratio['speedup_vs_reference']:.1f}x"
        )
    lockstep = data["lockstep"]
    print(
        f"  lockstep {lockstep['trace_steps']} steps @ frontier "
        f"{lockstep['max_frontier']}: bitset "
        f"{lockstep['bitset_steps_per_sec']:,.0f} steps/s vs refhistory "
        f"{lockstep['refhistory_steps_per_sec']:,.0f} steps/s "
        f"-> {lockstep['speedup_vs_refhistory']:.1f}x"
    )
    reroot = data["reroot"]
    print(
        f"  reroot {reroot['chain_steps']}-step sync chain: GC'd "
        f"{reroot['rerooted_steps_per_sec']:,.0f} steps/s vs raw "
        f"{reroot['raw_steps_per_sec']:,.0f} steps/s "
        f"-> {reroot['speedup_vs_raw']:.1f}x; soak {reroot['soak_steps']} "
        f"steps at {reroot['soak_steps_per_sec']:,.0f} steps/s, peak stamp "
        f"{reroot['soak_peak_stamp_bits']} bits over {reroot['soak_reroots']} "
        f"reroots"
    )
    codec = data["codec"]
    for family, widths in codec["families"].items():
        widest = str(max(int(w) for w in widths))
        rates = widths[widest]
        print(
            f"  codec {family:<16} @ {widest:>3}: encode "
            f"{rates['encode_ops_per_sec']:,.0f}/s, decode "
            f"{rates['decode_ops_per_sec']:,.0f}/s, "
            f"{rates['mean_envelope_bytes']:.0f} B/envelope"
        )
    print(
        f"  codec envelope vs JSON roundtrip @ {codec['roundtrip_width']}: "
        f"{codec['envelope_vs_json_roundtrip']:.1f}x"
    )
    replication = data["replication"]
    for family, counts in replication["families"].items():
        widest = str(max(int(c) for c in counts))
        arm = counts[widest]
        print(
            f"  sync {family:<16} @ {widest:>3} replicas: "
            f"{arm['stamps_per_round']:g} stamps, "
            f"{arm['messages_per_round']:g} messages, "
            f"{arm['bytes_per_round']:,.0f} B per converged round"
        )
    print(
        f"  sync steady state ({replication['tracked_family']} @ "
        f"{replication['tracked_replicas']} replicas): "
        f"{replication['stamps_per_round']:g} stamps and "
        f"{replication['batched_messages_per_round']:g} messages per round"
    )
    chaos = data["chaos"]
    for loss, arm in chaos["loss_levels"].items():
        print(
            f"  chaos @ {loss} loss: {arm['rounds_to_convergence']} rounds "
            f"to convergence, goodput {arm['goodput']:.2f}, "
            f"{arm['dropped']} dropped / {arm['duplicated']} duplicated / "
            f"{arm['corrupted']} corrupted / {arm['retried']} retried"
        )
    print(
        f"  chaos convergence efficiency @ {chaos['tracked_loss']} loss: "
        f"{chaos['convergence_efficiency']:.2f}"
    )
    health = data["health"]
    print(
        f"  health: detection in {health['detection_latency_rounds']} rounds, "
        f"hedge rate {health['hedge_rate']:.2f}, slowdown vs healthy "
        f"{health['convergence_slowdown_vs_healthy']:.2f}x, grey resilience "
        f"{health['grey_resilience']:.2f}x "
        f"({health['protected']['timeouts']} timeouts, "
        f"{health['protected']['hedges']} hedges, "
        f"{health['protected']['hedge_wins']} wins)"
    )
    scale = data["scale"]
    print(
        f"  scale @ {scale['replicas']:,} replicas x {scale['shards']} shards: "
        f"{scale['rounds_to_convergence']} rounds "
        f"({scale['virtual_seconds']:.3f} virtual s), "
        f"{scale['bytes_per_key_per_replica']:.1f} B/key/replica, round p99 "
        f"{scale['round_p99_virtual_seconds'] * 1000:.1f} ms, "
        f"efficiency {scale['convergence_efficiency']:.2f}"
    )
    contracts = data["contracts"]
    print(
        f"  contracts: {contracts['check_ops_per_sec']:,.0f} spec-checks/s "
        f"vs {contracts['compare_ops_per_sec']:,.0f} bare compares/s "
        f"-> {contracts['check_vs_compare']:.2f}x; provenance "
        f"{contracts['provenance']['traces_per_sec']:,.0f} traces/s over "
        f"{contracts['provenance']['exchanges']} exchanges"
    )
    durability = data["durability"]
    for length, arm in durability["recovery"].items():
        print(
            f"  recovery @ {length:>5} records: {arm['seconds'] * 1000:.1f} ms "
            f"({arm['records_per_sec']:,.0f} records/s, "
            f"{arm['journal_bytes']:,} journal bytes)"
        )
    for family, arm in durability["snapshot"].items():
        print(
            f"  snapshot {family:<16} @ {arm['keys']} keys: "
            f"{arm['snapshot_bytes']:,} B ({arm['bytes_per_key']:.0f} B/key)"
        )
    overhead = durability["sync_overhead"]
    print(
        f"  durable sync: {overhead['durable_rounds_per_sec']:,.0f} rounds/s "
        f"vs in-memory {overhead['memory_rounds_per_sec']:,.0f} rounds/s "
        f"-> {durability['durable_vs_memory_sync']:.2f}x "
        f"(budget >= 0.90)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
