"""Perf snapshot: timed throughput of the stamp core and its layers (BENCH_ops.json).

Every figure in the snapshot is a wall-clock measurement.  Sections:

* ``ops_per_sec``: the four Definition 4.3 operations plus the ``compare``
  pre-order at several frontier widths;
* ``join_normalize``: a join+normalize fold run through both the
  packed-integer core and the retained text-based reference
  implementation (:mod:`repro.core.refimpl`), with the speedup;
* ``lockstep``: a 500-step random fork/join/update trace replayed through
  :class:`repro.sim.runner.LockstepRunner` with per-step cross-checking,
  once with the bitset-backed causal oracle (:mod:`repro.causal.history`)
  and incremental comparison caching, once with the retained frozenset
  oracle (:mod:`repro.causal.refhistory`) and full rescans.  Histories
  hold hundreds of events, so the per-step frontier cross-check is where
  the time goes;
* ``reroot``: a sibling-starved sync-chain trace
  (:func:`repro.sim.workload.sync_chain_trace`) replayed through a plain
  frontier and through one with the Section 7 re-rooting garbage
  collector (:mod:`repro.core.reroot`), plus a long GC'd-only soak;
* ``codec``: encode/decode throughput of the kernel's epoch-tagged
  envelope (:mod:`repro.kernel.envelope`) for every clock family at each
  frontier width, and ``envelope_vs_json_roundtrip``: a version-stamp
  frontier round-tripped through the envelope vs through the JSON codec
  of :mod:`repro.core.encoding`.  Encode goes through the encode-once
  clock cache and decode through the payload intern, so the round trip
  times the cached path of a process re-shipping live metadata;
* ``contracts``: :meth:`repro.contracts.ContractChecker.check` per spec
  vs the bare clock comparisons it makes, and the provenance replay rate
  of :func:`repro.contracts.provenance.reconstruct`;
* ``durability``: recovery time against journals of several lengths,
  snapshot bytes per key for every clock family, and write-churn
  anti-entropy rounds/sec with journaling on vs off.

``benchmarks/check_regression.py`` gates six ratios: the join_normalize
speedup at frontier 32, lockstep, reroot, the codec round trip,
contracts and durability.  :func:`_paired_ratio` times all six the same
way: :data:`PAIRS` pairs of the credited arm and its baseline
(:data:`QUICK_PAIRS` with ``--quick``), alternating which arm runs
first, with a collection before each arm; the ratio is the median of the
per-pair ratios.  A shared 2-vCPU VM's speed drifts 20-40% from minute
to minute, and the two arms of a pair see the same speed, so the drift
cancels in each pair's ratio.  The absolute rates no gate reads take the
best of a few timing windows (:func:`_best_rate`).

Usage::

    PYTHONPATH=src python benchmarks/perf_snapshot.py            # full run
    PYTHONPATH=src python benchmarks/perf_snapshot.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf_snapshot.py -o out.json

The harness needs nothing beyond the standard library.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import sys
import tempfile
import time
from functools import partial
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
    FullyConnectedNetwork,
    MobileNode,
    StoreReplica,
    WireSyncEngine,
)
from repro.sim.runner import LockstepRunner
from repro.sim.trace import apply_operation
from repro.sim.workload import random_dynamic_trace, sync_chain_trace

DEFAULT_FRONTIER_SIZES = (8, 16, 32, 64)
QUICK_FRONTIER_SIZES = (8, 32)

#: Alternating pairs per gated ratio, in full and in quick mode.
PAIRS = 9
QUICK_PAIRS = 5

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

#: Contracts benchmark shape.  The enforcement arm settles a gossip
#: population until the consumer holds every export, so checks pass and
#: allocate no reports, and times ``ContractChecker.check`` in per-spec
#: evaluations/sec against the bare comparisons the checker makes.  The
#: population never compacts: a compaction puts the consumer's clock at a
#: newer epoch than the exports, and the checker then settles both specs
#: by epoch without comparing at all.  Freshness compares only once more
#: than ``CONTRACTS_FRESHNESS_LAG`` exports exist.  The provenance arm
#: replays :func:`repro.contracts.provenance.reconstruct` over a scripted
#: sync history whose target never appears (the full-replay worst case).
CONTRACTS_FAMILY = "version-stamp"
CONTRACTS_REPLICAS = 4
CONTRACTS_FRESHNESS_LAG = 4
CONTRACTS_WARMUP_WRITES = 8
CONTRACTS_SETTLE_ROUNDS = 16
CONTRACTS_PROVENANCE_EXCHANGES = 256
CONTRACTS_PROVENANCE_PEERS = 8

#: Durability benchmark shape.  Recovery is timed against journals of
#: these lengths (records); the snapshot arm measures compacted bytes per
#: key for every clock family; the overhead arm compares write-churn
#: anti-entropy rounds/sec with and without journaling (file backend, OS
#: page cache -- the process-crash model the replication layer defaults
#: to).  The tracked ratio is durable over in-memory rounds/sec.
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


def _window_rate(operation, operations_per_call, min_time):
    """ops/sec over back-to-back calls filling one ``min_time`` window."""
    calls = 0
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        operation()
        calls += 1
        elapsed = time.perf_counter() - start
    return calls * operations_per_call / elapsed


def _best_rate(operation, operations_per_call, *, repeats, min_time):
    """Best observed ops/sec over ``repeats`` timing windows."""
    return max(
        _window_rate(operation, operations_per_call, min_time)
        for _ in range(repeats)
    )


def _paired_ratio(credited, baseline, *, pairs):
    """Time two arms in ``pairs`` alternating pairs; return rates and ratio.

    ``credited`` and ``baseline`` each run once per call and return their
    rate.  Pair ``i`` runs both, the credited arm first when ``i`` is even
    and second when it is odd, with a collection before each arm so that
    neither pays for the other's garbage.  Returns each arm's median rate
    and the median of the per-pair ratios credited / baseline.
    """
    credited_rates, baseline_rates = [], []
    for index in range(pairs):
        arms = [(credited, credited_rates), (baseline, baseline_rates)]
        for arm, rates in arms if index % 2 == 0 else reversed(arms):
            gc.collect()
            rates.append(arm())
    ratios = [c / b for c, b in zip(credited_rates, baseline_rates)]
    return (
        statistics.median(credited_rates),
        statistics.median(baseline_rates),
        statistics.median(ratios),
    )


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


def measure_join_normalize(width, *, pairs, min_time):
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

    packed_rate, reference_rate, speedup = _paired_ratio(
        partial(
            _window_rate, lambda: collapse(packed_frontier), joins_per_call, min_time
        ),
        partial(
            _window_rate, lambda: collapse(reference_frontier), joins_per_call, min_time
        ),
        pairs=pairs,
    )
    return {
        "packed_ops_per_sec": packed_rate,
        "reference_ops_per_sec": reference_rate,
        "speedup_vs_reference": speedup,
    }


def measure_lockstep(
    *,
    steps=LOCKSTEP_TRACE_STEPS,
    max_frontier=LOCKSTEP_MAX_FRONTIER,
    pairs,
    min_time,
):
    """Lockstep trace throughput: the bitset oracle stack vs the seed stack.

    Replays one deterministic ``steps``-operation trace (frontier capped at
    ``max_frontier``, update-heavy so histories hold hundreds of events)
    through a :class:`LockstepRunner` with no comparison mechanisms
    attached: every step pays only for the oracle's frontier cross-check,
    i.e. the cost this benchmark isolates.  The same trace runs twice:

    * bitset-backed :class:`CausalAdapter` with the incremental
      comparison-cache strategy, and
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
        return partial(_window_rate, run, len(trace), min_time)

    bitset_rate, reference_rate, speedup = _paired_ratio(
        replay_with(CausalAdapter, True),
        replay_with(RefCausalAdapter, False),
        pairs=pairs,
    )
    return {
        "trace_steps": steps,
        "max_frontier": max_frontier,
        "bitset_steps_per_sec": bitset_rate,
        "refhistory_steps_per_sec": reference_rate,
        "speedup_vs_refhistory": speedup,
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
    pairs,
    min_time,
):
    """Re-rooting GC vs raw reducing stamps on a sibling-starved sync chain.

    The same ``chain_steps``-operation :func:`sync_chain_trace` replays
    through a plain frontier and one with ``reroot_threshold=threshold``;
    the speedup of the GC'd replay is the tracked ratio.  A second,
    GC'd-only replay of a ``soak_steps`` trace reports absolute soak
    throughput and the peak stamp size, demonstrating the bounded regime
    the raw stamps cannot enter at all.
    """
    trace = sync_chain_trace(chain_steps, replicas=replicas, seed=11)
    rerooted_rate, raw_rate, speedup = _paired_ratio(
        partial(
            _window_rate, lambda: _replay_frontier(trace, threshold), len(trace),
            min_time,
        ),
        partial(
            _window_rate, lambda: _replay_frontier(trace, None), len(trace),
            min_time,
        ),
        pairs=pairs,
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
        "speedup_vs_raw": speedup,
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


def measure_codec(frontier_sizes, *, repeats, pairs, min_time):
    """Envelope encode/decode throughput for every registered clock family.

    Per family and frontier width: clocks/sec through ``to_bytes`` and
    ``from_bytes`` plus the mean envelope size.  The tracked floor is
    ``envelope_vs_json_roundtrip``: one full round-trip of a version-stamp
    frontier through the binary envelope vs through the JSON codec, at the
    largest measured width.
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
    envelope_rate, json_rate, ratio = _paired_ratio(
        partial(
            _window_rate,
            lambda: [kernel.from_bytes(c.to_bytes()) for c in clocks],
            len(clocks),
            min_time,
        ),
        partial(
            _window_rate,
            lambda: [stamp_from_json(stamp_to_json(s)) for s in stamps],
            len(stamps),
            min_time,
        ),
        pairs=pairs,
    )
    section["roundtrip_width"] = width
    section["envelope_roundtrips_per_sec"] = envelope_rate
    section["json_roundtrips_per_sec"] = json_rate
    section["envelope_vs_json_roundtrip"] = ratio
    return section


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


def measure_contracts(*, repeats, pairs, min_time):
    """Contract enforcement overhead and provenance reconstruction rate.

    The enforcement arm builds a :data:`CONTRACTS_REPLICAS`-replica
    population, records :data:`CONTRACTS_WARMUP_WRITES` exports with a
    gossip round after each, settles it until the consumer holds every
    export, then times
    :meth:`~repro.contracts.checker.ContractChecker.check` over an
    observes and a bounded-freshness contract in that passing state --
    the rate a store pays to evaluate contracts on every operation
    boundary.  Each check compares the consumer's clock once per spec:
    with the latest export, and with the export
    :data:`CONTRACTS_FRESHNESS_LAG` writes before it.  The baseline arm
    makes those two bare ``compare(...).shortfall`` calls; the tracked
    ratio ``check_vs_compare`` divides the per-spec check rate by the
    per-comparison rate, so a drop means the dispatch, log-lookup and
    report machinery around the comparison got heavier.

    The provenance arm scripts :data:`CONTRACTS_PROVENANCE_EXCHANGES`
    exchange records (one in five a lost leg) whose target replica never
    appears, forcing :func:`~repro.contracts.provenance.reconstruct` to
    replay the whole window every call, and reports traces/sec and
    records/sec.
    """
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
    gossip = AntiEntropy(
        nodes, rng=random.Random(5), engine=WireSyncEngine(history=history)
    )
    exports = []
    for generation in range(CONTRACTS_WARMUP_WRITES):
        writer.write("k", generation)
        exports += checker.record("export", writer.store)
        gossip.run_round()
    settled = gossip.run(CONTRACTS_SETTLE_ROUNDS).converged_after is not None
    violations = checker.check("consume", consumer, raise_on_violation=False)
    if not settled or violations:
        raise RuntimeError(
            "contracts benchmark population failed to reach the passing "
            f"steady state: {[v.summary() for v in violations]}"
        )
    target = consumer.tracker_of("k")
    compared = [exports[-1].tracker, exports[-1 - CONTRACTS_FRESHNESS_LAG].tracker]
    check_rate, compare_rate, ratio = _paired_ratio(
        partial(
            _window_rate,
            lambda: checker.check("consume", consumer, raise_on_violation=False),
            len(specs),
            min_time,
        ),
        partial(
            _window_rate,
            lambda: [target.compare(record).shortfall for record in compared],
            len(compared),
            min_time,
        ),
        pairs=pairs,
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
        "check_vs_compare": ratio,
        "provenance": {
            "exchanges": CONTRACTS_PROVENANCE_EXCHANGES,
            "peers": CONTRACTS_PROVENANCE_PEERS,
            "traces_per_sec": trace_rate,
            "records_per_sec": trace_rate * CONTRACTS_PROVENANCE_EXCHANGES,
        },
    }


def measure_durability(log_lengths, *, repeats, pairs):
    """Recovery time, snapshot density and journaling overhead.

    Three arms:

    * ``recovery``: a journal of N records (no snapshot -- the worst
      case) rebuilt from disk via :func:`repro.durability.recovery.
      recover_replica`, reporting seconds and records/sec per length;
    * ``snapshot``: a compacted snapshot of ``DURABILITY_SNAPSHOT_KEYS``
      keys for every clock family, reporting bytes per key (the "CS"
      group streams make this the same bytes the wire ships);
    * ``sync_overhead``: write-churn anti-entropy rounds/sec with
      journaling on vs off, each arm one run of the same fixed schedule.
      The tracked ratio ``durable_vs_memory_sync`` is durable over
      in-memory rounds/sec.  Journaling costs about a quarter of the
      in-memory rate on this workload: the ratio reads about 0.75.
    """
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
        def churn(durable):
            elapsed = _churn_elapsed(tempfile.mkdtemp(dir=root), durable=durable)
            return DURABILITY_CHURN_ROUNDS / elapsed

        durable_rate, memory_rate, ratio = _paired_ratio(
            partial(churn, True), partial(churn, False), pairs=pairs
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
    durability_log_lengths=DURABILITY_LOG_LENGTHS,
    repeats=3,
    pairs=PAIRS,
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
            width, pairs=pairs, min_time=min_time
        )
    data["lockstep"] = measure_lockstep(pairs=pairs, min_time=min_time)
    data["reroot"] = measure_reroot(repeats=repeats, pairs=pairs, min_time=min_time)
    data["codec"] = measure_codec(
        frontier_sizes, repeats=repeats, pairs=pairs, min_time=min_time
    )
    data["contracts"] = measure_contracts(
        repeats=repeats, pairs=pairs, min_time=min_time
    )
    data["durability"] = measure_durability(
        durability_log_lengths, repeats=repeats, pairs=pairs
    )
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=(
            "Sections written: ops_per_sec, join_normalize, lockstep, reroot, "
            "codec, contracts and durability (see the module docstring). "
            "benchmarks/check_regression.py compares six of their ratios, "
            "each timed as the median of alternating pairs, with the "
            "committed BENCH_ops.json and fails when one drops more than "
            "30 percent below its floor."
        ),
    )
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_ops.json"),
        help="where to write the JSON snapshot (default: repo root BENCH_ops.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewer frontier sizes, pairs and shorter timing windows",
    )
    args = parser.parse_args(argv)

    if args.quick:
        data = snapshot(
            frontier_sizes=QUICK_FRONTIER_SIZES,
            durability_log_lengths=QUICK_DURABILITY_LOG_LENGTHS,
            repeats=2,
            pairs=QUICK_PAIRS,
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
        f"-> {durability['durable_vs_memory_sync']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
