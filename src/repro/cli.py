"""Command-line interface to the version-stamp library.

Installed as the ``repro`` console script (or run with ``python -m
repro.cli``).  The CLI exposes the pieces a user reaches for first:

* ``repro stamp ...``     -- manipulate stamps in the paper's ``[u | i]``
  notation (fork, update, join, compare, normalize, inspect sizes);
* ``repro figures``       -- regenerate Figures 1-4 and report paper-vs-measured;
* ``repro check``         -- run the exhaustive model checker (invariants +
  Proposition 5.1) up to a bounded number of operations;
* ``repro simulate``      -- generate a workload, replay it against every
  mechanism (or one registered clock family via ``--clock``), and report
  ordering agreement and metadata sizes;
* ``repro kernel ...``    -- list the registered clock families and
  round-trip clocks through the epoch-tagged wire envelope;
* ``repro sync-bench``    -- measure batched-stream vs per-envelope
  anti-entropy throughput of the wire sync engine for any clock family;
* ``repro panasync ...``  -- track dependencies among file copies on disk.

Every command prints plain text and exits non-zero on failure, so the CLI is
usable from scripts and CI jobs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from . import kernel
from .analysis.diagrams import render_trace
from .analysis.figures import (
    FIGURE1_EXPECTED,
    FIGURE4_EXPECTED,
    figure1_version_vectors,
    figure3_encoding,
    figure4_stamps,
)
from .analysis.reporting import ExperimentReport, render_reports
from .core.encoding import encoded_size_bits, stamp_from_text
from .core.stamp import VersionStamp
from .panasync.tools import Panasync
from .sim.exhaustive import explore
from .sim.metrics import SweepTable
from .sim.runner import LockstepRunner
from .sim.workload import (
    churn_trace,
    fixed_replica_trace,
    partitioned_trace,
    random_dynamic_trace,
)

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# stamp subcommand
# ---------------------------------------------------------------------------


def _load_stamp(text: str, *, reducing: bool = True) -> VersionStamp:
    return stamp_from_text(text, reducing=reducing)


def _cmd_stamp(args: argparse.Namespace) -> int:
    action = args.stamp_command
    if action == "seed":
        print(VersionStamp.seed())
        return 0
    if action == "parse":
        stamp = _load_stamp(args.stamp)
        print(f"stamp:      {stamp}")
        print(f"update:     {stamp.update_component.to_text()}")
        print(f"id:         {stamp.identity.to_text()}")
        print(f"normalized: {stamp.is_normalized()}")
        print(f"size:       {encoded_size_bits(stamp)} bits (compact binary encoding)")
        return 0
    if action == "update":
        print(_load_stamp(args.stamp).update())
        return 0
    if action == "fork":
        left, right = _load_stamp(args.stamp).fork()
        print(left)
        print(right)
        return 0
    if action == "join":
        reducing = not args.no_reduce
        first = _load_stamp(args.first, reducing=reducing)
        second = _load_stamp(args.second, reducing=reducing)
        print(first.join(second))
        return 0
    if action == "normalize":
        print(_load_stamp(args.stamp).normalized())
        return 0
    if action == "compare":
        first = _load_stamp(args.first)
        second = _load_stamp(args.second)
        print(first.compare(second).value)
        return 0
    raise AssertionError(f"unhandled stamp action {action!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# figures subcommand
# ---------------------------------------------------------------------------


def _cmd_figures(_args: argparse.Namespace) -> int:
    reports: List[ExperimentReport] = []

    figure1 = figure1_version_vectors()
    report1 = ExperimentReport("FIG1", "Version vectors among three replicas")
    for replica, expected in FIGURE1_EXPECTED.items():
        report1.add(f"replica {replica} timeline", expected, figure1.timelines[replica])
    reports.append(report1)

    figure3 = figure3_encoding()
    report3 = ExperimentReport("FIG3", "Fixed replicas under fork-and-join dynamics")
    report3.add("stamps/vectors/causal histories agree at every checkpoint", True, figure3.all_agree())
    reports.append(report3)

    figure4 = figure4_stamps()
    report4 = ExperimentReport("FIG4", "Version stamps of the Figure 2 evolution")
    for key, expected in FIGURE4_EXPECTED.items():
        report4.add(key, expected, figure4.stamps.get(key, "<missing>"))
    reports.append(report4)

    print(render_reports(reports))
    return 0 if all(report.ok for report in reports) else 1


# ---------------------------------------------------------------------------
# check subcommand (exhaustive model checking)
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    result = explore(
        args.operations,
        max_frontier=args.max_frontier,
        check_subsets=args.subsets,
    )
    print(result)
    for counterexample in result.counterexamples:
        print(f"  counterexample: {counterexample}")
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------

_WORKLOADS = {
    "random": lambda args: random_dynamic_trace(
        args.operations, seed=args.seed, max_frontier=args.max_frontier
    ),
    "fixed": lambda args: fixed_replica_trace(
        args.replicas, args.operations, seed=args.seed
    ),
    "churn": lambda args: churn_trace(
        args.operations, seed=args.seed, target_frontier=args.max_frontier
    ),
    "partitioned": lambda args: partitioned_trace(
        initial_replicas=args.replicas,
        partitions=max(2, args.replicas // 2),
        phases=3,
        operations_per_phase=max(1, args.operations // 3),
        seed=args.seed,
    ),
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _WORKLOADS[args.workload](args)
    if args.clock == "all":
        adapters = None  # the historical default mechanism set
    else:
        # One registered clock family, driven purely through the kernel's
        # CausalityClock protocol -- the same trace, any family, one flag.
        adapters = [kernel.KernelClockAdapter(args.clock)]
    runner = LockstepRunner(adapters, compare_every_step=not args.fast)
    reports, sizes = runner.run(trace)

    print(f"workload: {trace.name}")
    print(f"operations: {len(trace)}  max frontier width: {trace.max_frontier_width()}")
    print()
    table = SweepTable(["mechanism", "agreement", "missed", "false", "mean_bits", "peak_bits"])
    for name, report in sorted(reports.items()):
        table.add_row(
            mechanism=name,
            agreement=f"{report.agreement_rate:.1%}",
            missed=report.missed_conflicts,
            false=report.false_conflicts,
            mean_bits=sizes[name].final_mean_bits,
            peak_bits=sizes[name].peak_bits,
        )
    oracle = sizes.get("causal-history")
    if oracle is not None:
        table.add_row(
            mechanism="causal-history (oracle)",
            agreement="--",
            missed="--",
            false="--",
            mean_bits=oracle.final_mean_bits,
            peak_bits=oracle.peak_bits,
        )
    print(table.render(title="ordering agreement with causal histories and metadata size"))
    if args.diagram:
        print()
        print(render_trace(trace))
    return 0 if all(report.agreement_rate == 1.0 for report in reports.values()) else 1


# ---------------------------------------------------------------------------
# kernel subcommand
# ---------------------------------------------------------------------------


def _cmd_kernel(args: argparse.Namespace) -> int:
    action = args.kernel_command
    if action == "families":
        print(f"{'tag':>3}  {'family':<16} description")
        for name in kernel.families():
            entry = kernel.family(name)
            print(f"{entry.tag:>3}  {entry.name:<16} {entry.description}")
        return 0
    if action == "roundtrip":
        clock = kernel.make(args.clock).with_epoch(args.epoch)
        left, right = clock.fork()
        left = left.event()
        payload = left.to_bytes()
        info = kernel.envelope_info(payload)
        restored = kernel.from_bytes(payload)
        print(f"family:   {info.family} (format v{info.format_version})")
        print(f"epoch:    {info.epoch}")
        print(f"payload:  {info.payload_size} bytes "
              f"({left.encoded_size_bits()} payload bits)")
        print(f"envelope: {payload.hex()}")
        print(f"restored == original: {restored == left}")
        print(f"restored vs peer:     {restored.compare(right).value}")
        return 0 if restored == left else 1
    raise AssertionError(f"unhandled kernel action {action!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# sync-bench subcommand
# ---------------------------------------------------------------------------


def _cmd_sync_bench(args: argparse.Namespace) -> int:
    import random
    import time

    from .replication import (
        AntiEntropy,
        FullyConnectedNetwork,
        KernelTracker,
        MobileNode,
        WireSyncEngine,
    )

    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 1
    if args.warmup < 0 or args.replicas < 2 or args.keys < 1 or args.repeats < 1:
        print(
            "error: need --warmup >= 0, --replicas >= 2, --keys >= 1 "
            "and --repeats >= 1",
            file=sys.stderr,
        )
        return 1

    def timed_arm(family: str, batched: bool):
        """One timed measurement of one arm; returns (elapsed, stats)."""
        network = FullyConnectedNetwork()
        nodes = [
            MobileNode.first(
                "n0", network, tracker_factory=KernelTracker.factory(family)
            )
        ]
        for index in range(1, args.replicas):
            nodes.append(nodes[-1].spawn_peer(f"n{index}"))
        rng = random.Random(args.seed)
        for index in range(args.keys):
            rng.choice(nodes).write(f"key{index}", f"value{index}")
        engine = WireSyncEngine(batched=batched)
        gossip = AntiEntropy(nodes, rng=random.Random(args.seed + 1), engine=engine)
        for _ in range(args.warmup):
            gossip.run_round()
        shipped = engine.stamps_shipped
        messages, sent = engine.meter.snapshot()
        start = time.perf_counter()
        for _ in range(args.rounds):
            gossip.run_round()
        elapsed = time.perf_counter() - start
        stats = (
            (engine.stamps_shipped - shipped) / args.rounds,
            (engine.meter.messages - messages) / args.rounds,
            (engine.meter.bytes_sent - sent) / args.rounds,
        )
        return elapsed, stats

    families = kernel.families() if args.clock == "all" else [args.clock]
    print(
        f"steady-state anti-entropy: {args.replicas} replicas, "
        f"{args.keys} keys, {args.rounds} timed rounds per arm, "
        f"best of {args.repeats} interleaved repeats"
    )
    print(
        f"{'family':<16} {'mode':<13} {'rounds/s':>9} {'stamps/s':>10} "
        f"{'msgs/round':>11} {'bytes/round':>12} {'speedup':>8}"
    )
    worst = None
    for family in families:
        # Best-of-N with the arms interleaved (the perf_snapshot.py idiom):
        # a GC pause or scheduler stall lands on one repeat of one arm, not
        # on a whole arm, so the min-over-repeats ratio cannot flake a
        # --min-speedup gate the way a single perf_counter shot per arm can.
        best = {}
        for _ in range(args.repeats):
            for batched in (True, False):
                elapsed, stats = timed_arm(family, batched)
                if batched not in best or elapsed < best[batched][0]:
                    best[batched] = (elapsed, stats)
        rates = {
            batched: (args.rounds / elapsed if elapsed else float("inf"))
            for batched, (elapsed, _) in best.items()
        }
        for batched in (True, False):
            rate = rates[batched]
            stamps, msgs, nbytes = best[batched][1]
            mode = "batched" if batched else "per-envelope"
            print(
                f"{family:<16} {mode:<13} {rate:>9,.1f} "
                f"{rate * stamps:>10,.0f} "
                f"{msgs:>11,.1f} "
                f"{nbytes:>12,.0f} "
                + (f"{rates[True] / rates[False]:>8.1f}x" if not batched else f"{'':>8}")
            )
        speedup = rates[True] / rates[False]
        worst = speedup if worst is None else min(worst, speedup)
    if args.min_speedup is not None and worst is not None:
        if worst < args.min_speedup:
            print(
                f"FAIL: worst batched speedup {worst:.2f}x is below "
                f"--min-speedup {args.min_speedup:.2f}x"
            )
            return 1
        print(f"ok: worst batched speedup {worst:.2f}x")
    return 0


# ---------------------------------------------------------------------------
# serve-sim subcommand
# ---------------------------------------------------------------------------


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    import json as json_module

    from .replication import DegradationPlan, FaultPlan, FaultyTransport
    from .service import (
        AntiEntropyService,
        AsyncWireSyncEngine,
        LinkProfile,
        build_cluster,
    )

    nodes, key_names = build_cluster(
        args.replicas, keys=args.keys, family=args.clock, seed=args.seed
    )
    degradation = (
        DegradationPlan.grey(slow_fraction=args.degraded)
        if args.degraded > 0
        else None
    )
    transport = None
    if args.loss > 0 or degradation is not None:
        plan = FaultPlan(loss=args.loss, degradation=degradation)
        transport = FaultyTransport(nodes[0].network, plan=plan, seed=args.seed)
    engine = AsyncWireSyncEngine(transport=transport)
    link = LinkProfile(
        latency=args.latency, bandwidth=args.bandwidth, jitter=args.jitter
    )
    service = AntiEntropyService(
        nodes,
        engine=engine,
        shards=args.shards,
        link=link,
        seed=args.seed,
        lockstep=args.lockstep,
        health=args.health,
        hedge=args.hedge,
    )
    quiet = args.json
    if not quiet:
        mode = "lockstep" if args.lockstep else "overlap"
        extras = ""
        if args.health:
            extras += ", health on" + (" + hedging" if args.hedge else "")
        if degradation is not None:
            extras += f", {args.degraded:.0%} nodes grey-degraded"
        print(
            f"serve-sim: {args.replicas:,} replicas x {args.keys} keys "
            f"({args.clock}), {args.shards} shard(s), {mode} mode, "
            f"loss={args.loss:.2f}, latency={args.latency * 1e3:.1f}ms{extras}"
        )
        print(
            f"{'round':>5} {'exchanges':>9} {'skipped':>7} {'messages':>9} "
            f"{'bytes':>12} {'virtual s':>10} {'converged':>9}"
        )

    def show(metrics) -> None:
        print(
            f"{metrics.number:>5} {metrics.exchanges:>9,} {metrics.skipped:>7,} "
            f"{metrics.messages:>9,} {metrics.bytes_sent:>12,} "
            f"{metrics.virtual_duration:>10.4f} {str(metrics.converged):>9}"
        )

    report = service.run(
        max_rounds=args.max_rounds, on_round=None if quiet else show
    )
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.converged_after is not None else 1
    rounds_p = report.round_duration_percentiles()
    session_p = report.session_latency_percentiles()
    print(
        f"total: {report.total_messages:,} messages, {report.total_bytes:,} bytes "
        f"({report.bytes_per_key_per_replica(len(key_names)):.1f} B/key/replica), "
        f"{report.virtual_seconds:.3f} virtual seconds"
    )
    print(
        f"round duration p50/p90/p99: {rounds_p[0.5]:.4f}/{rounds_p[0.9]:.4f}/"
        f"{rounds_p[0.99]:.4f}s; transfer-leg p50/p90/p99: "
        f"{session_p[0.5] * 1e3:.2f}/{session_p[0.9] * 1e3:.2f}/"
        f"{session_p[0.99] * 1e3:.2f}ms"
    )
    if report.health is not None:
        health = report.health
        print(
            f"health: {health['timeouts']} timeout(s), "
            f"{health['breaker_opens']} breaker open(s), "
            f"{health['breaker_skips']} breaker skip(s), "
            f"{health['hedges']} hedge(s) ({health['hedge_wins']} won), "
            f"{health['redraws']} weighted redraw(s)"
        )
    if args.health_table and service.health is not None:
        _print_health_table(service)
    if report.converged_after is None:
        print(f"FAIL: not converged after {args.max_rounds} rounds")
        return 1
    print(f"converged after round {report.converged_after}")
    return 0


def _print_health_table(service) -> None:
    """The per-replica suspicion / circuit / deadline table."""
    rows = service.health.table()
    if not rows:
        print("health table: no peers observed")
        return
    print(
        f"{'replica':>10} {'samples':>7} {'mean ms':>9} {'deadline s':>10} "
        f"{'suspicion':>9} {'weight':>6} {'circuit':>9} {'timeouts':>8}"
    )
    for row in rows:
        node_id = service.nodes[row["peer"]].node_id
        print(
            f"{node_id:>10} {row['samples']:>7} "
            f"{row['mean_latency'] * 1e3:>9.2f} {row['deadline']:>10.3f} "
            f"{row['suspicion']:>9.2f} {row['weight']:>6.2f} "
            f"{row['circuit']:>9} {row['timeouts']:>8}"
        )


# ---------------------------------------------------------------------------
# contracts subcommand
# ---------------------------------------------------------------------------


def _cmd_contracts(args: argparse.Namespace) -> int:
    import dataclasses
    import random

    from .contracts import ContractChecker, ContractSpec
    from .replication import (
        AntiEntropy,
        FaultPlan,
        FaultyTransport,
        FullyConnectedNetwork,
        KernelTracker,
        MobileNode,
        NetworkMeter,
        SyncHistory,
        WireSyncEngine,
    )

    # The SNIPPETS.md Snippet-3 scenario: pipeline A exports a dataset,
    # pipeline B trains on it, and the only thing connecting them is
    # anti-entropy gossip over a chaotic fabric.  Wall-clock freshness
    # ("the export file is recent") cannot see whether B's copy causally
    # includes A's latest export -- the observes contract can.
    network = FullyConnectedNetwork()
    pipeline_a = MobileNode.first(
        "pipeline-a", network, tracker_factory=KernelTracker.factory(args.clock)
    )
    relay = pipeline_a.spawn_peer("relay")
    pipeline_b = relay.spawn_peer("pipeline-b")
    nodes = [pipeline_a, relay, pipeline_b]

    meter = NetworkMeter()
    history = SyncHistory(maxlen=args.history)
    checker = ContractChecker(
        [
            ContractSpec(
                name="train-sees-latest-export",
                kind="observes",
                source="export",
                target="train",
                key="dataset",
            )
        ],
        history=history,
    )
    checker.watch_writes(pipeline_a.store, "export")
    checker.bind("train", pipeline_b.store)

    print(f"contract: {checker.specs[0].describe()}")
    print(f"clock family: {args.clock}")

    # Act 1: export #1 propagates over a healthy fabric.
    warmup_engine = WireSyncEngine(meter=meter, history=history)
    gossip = AntiEntropy(nodes, rng=random.Random(args.seed), engine=warmup_engine)
    pipeline_a.write("dataset", "export #1")
    while not gossip.converged():
        gossip.run_round()
    print(f"healthy fabric: 'export #1' replicated in {len(gossip.reports)} round(s)")

    # Act 2: export #2 lands while the fabric chaos-fails.  The outage
    # window rides the transport's transfer counter, so the first
    # exchanges after the stale export are total losses; once the window
    # closes, the chaos plan's probabilistic faults (with retries) decide.
    plan = dataclasses.replace(
        FaultPlan.chaos(loss=args.loss), outages=((0, args.outage),)
    )
    transport = FaultyTransport(network, plan=plan, seed=args.seed)
    gossip.engine = WireSyncEngine(meter=meter, history=history, transport=transport)
    pipeline_a.write("dataset", "export #2")
    print(
        f"chaos fabric (loss={args.loss:.0%}, outage for the first "
        f"{args.outage} transfers): 'export #2' written at pipeline-a"
    )
    gossip.run(args.rounds)
    print(f"ran {args.rounds} gossip round(s); pipeline-b now runs 'train'")

    reports = checker.check("train", raise_on_violation=False)
    if reports:
        print()
        for report in reports:
            print(report.describe())
        print()
        print(
            "pipeline-b's copy of 'dataset' is causally behind pipeline-a's "
            "export; a wall-clock freshness check would have trained on it "
            "anyway.  (Re-run with more --rounds to let gossip outlive the "
            "outage.)"
        )
        return 2
    print(
        "contract holds: pipeline-b's 'dataset' causally includes "
        "pipeline-a's latest export"
    )
    return 0


# ---------------------------------------------------------------------------
# panasync subcommand
# ---------------------------------------------------------------------------


def _cmd_panasync(args: argparse.Namespace) -> int:
    tool = Panasync()
    tool.add_repository("repo", Path(args.repository))
    action = args.panasync_command
    if action == "create":
        content = Path(args.source).read_text(encoding="utf-8") if args.source else ""
        tool.create("repo", args.name, content)
        print(f"tracking {args.name}")
        return 0
    if action == "edit":
        content = Path(args.source).read_text(encoding="utf-8")
        tool.edit("repo", args.name, content)
        print(f"recorded an edit of {args.name}")
        return 0
    if action == "copy":
        tool.add_repository("target", Path(args.target_repository))
        tool.copy("repo", args.name, "target", args.target_name or args.name)
        print(f"copied {args.name} to {args.target_repository}")
        return 0
    if action == "compare":
        tool.add_repository("other", Path(args.other_repository))
        relation = tool.compare("repo", args.name, "other", args.other_name or args.name)
        print(relation.description)
        return 0 if not relation.diverged else 2
    if action == "merge":
        tool.add_repository("other", Path(args.other_repository))
        relation = tool.merge("repo", args.name, "other", args.other_name or args.name)
        print(f"merged ({relation.description})")
        return 0
    if action == "status":
        for line in tool.status():
            print(line.render())
        return 0
    raise AssertionError(f"unhandled panasync action {action!r}")  # pragma: no cover


def _cmd_store(args: argparse.Namespace) -> int:
    from .durability.inspect import format_report, inspect_path

    if args.store_command == "inspect":
        info = inspect_path(args.path)
        print(format_report(info))
        # Damage is described, not hidden -- and also signalled in the
        # exit code so scripts can gate on store health.
        return 0 if info.healthy else 2
    raise AssertionError(
        f"unhandled store action {args.store_command!r}"
    )  # pragma: no cover


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Version stamps: decentralized version vectors (ICDCS 2002 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # stamp
    stamp = subparsers.add_parser("stamp", help="manipulate individual version stamps")
    stamp_sub = stamp.add_subparsers(dest="stamp_command", required=True)
    stamp_sub.add_parser("seed", help="print the seed stamp")
    for name in ("parse", "update", "fork", "normalize"):
        sub = stamp_sub.add_parser(name, help=f"{name} a stamp given in [u | i] notation")
        sub.add_argument("stamp", help="stamp text, e.g. '[1 | 01+1]'")
    join = stamp_sub.add_parser("join", help="join two stamps")
    join.add_argument("first")
    join.add_argument("second")
    join.add_argument("--no-reduce", action="store_true", help="skip the Section 6 simplification")
    compare = stamp_sub.add_parser("compare", help="compare two stamps")
    compare.add_argument("first")
    compare.add_argument("second")
    stamp.set_defaults(handler=_cmd_stamp)

    # figures
    figures = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures.set_defaults(handler=_cmd_figures)

    # check
    check = subparsers.add_parser("check", help="exhaustively model-check small executions")
    check.add_argument("--operations", type=int, default=4, help="depth bound (default 4)")
    check.add_argument("--max-frontier", type=int, default=3, help="frontier width cap (default 3)")
    check.add_argument("--subsets", action="store_true", help="also check the subset form of Prop. 5.1")
    check.set_defaults(handler=_cmd_check)

    # simulate
    simulate = subparsers.add_parser("simulate", help="replay a workload against every mechanism")
    simulate.add_argument("--workload", choices=sorted(_WORKLOADS), default="random")
    simulate.add_argument("--operations", type=int, default=100)
    simulate.add_argument("--replicas", type=int, default=4)
    simulate.add_argument("--max-frontier", type=int, default=8)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--clock",
        choices=["all"] + kernel.families(),
        default="all",
        help=(
            "replay against one registered clock family through the kernel "
            "CausalityClock protocol (default: the full mechanism set)"
        ),
    )
    simulate.add_argument("--fast", action="store_true", help="compare only at the end of the trace")
    simulate.add_argument("--diagram", action="store_true", help="print an ASCII diagram of the trace")
    simulate.set_defaults(handler=_cmd_simulate)

    # kernel
    kernel_parser = subparsers.add_parser(
        "kernel", help="inspect the causality kernel (clock families, envelopes)"
    )
    kernel_sub = kernel_parser.add_subparsers(dest="kernel_command", required=True)
    kernel_sub.add_parser("families", help="list the registered clock families")
    roundtrip = kernel_sub.add_parser(
        "roundtrip", help="fork/event a seed clock and round-trip it through the envelope"
    )
    roundtrip.add_argument("--clock", choices=kernel.families(), default="version-stamp")
    roundtrip.add_argument("--epoch", type=int, default=0, help="epoch tag to stamp on the clock")
    kernel_parser.set_defaults(handler=_cmd_kernel)

    # sync-bench
    sync_bench = subparsers.add_parser(
        "sync-bench",
        help="measure batched vs per-envelope anti-entropy sync throughput",
    )
    sync_bench.add_argument(
        "--clock", default="all",
        choices=["all"] + kernel.families(),
        help="clock family to benchmark (default: all registered families)",
    )
    sync_bench.add_argument(
        "--replicas", type=int, default=16, help="population size (default: 16)"
    )
    sync_bench.add_argument(
        "--keys", type=int, default=24, help="replicated keys (default: 24)"
    )
    sync_bench.add_argument(
        "--rounds", type=int, default=30, help="timed gossip rounds per arm (default: 30)"
    )
    sync_bench.add_argument(
        "--warmup", type=int, default=6,
        help="untimed rounds to reach the steady state (default: 6)",
    )
    sync_bench.add_argument("--seed", type=int, default=0, help="workload seed")
    sync_bench.add_argument(
        "--repeats", type=int, default=3,
        help="interleaved timing repeats per arm; the best (minimum) elapsed "
        "time of each arm is what the speedup gate compares (default: 3)",
    )
    sync_bench.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero when the worst batched speedup falls below this",
    )
    sync_bench.set_defaults(handler=_cmd_sync_bench)

    # serve-sim
    serve_sim = subparsers.add_parser(
        "serve-sim",
        help="drive the async anti-entropy service at datacenter scale on virtual time",
    )
    serve_sim.add_argument(
        "--replicas", type=int, default=10_000,
        help="simulated replica population (default: 10,000)",
    )
    serve_sim.add_argument(
        "--keys", type=int, default=4, help="replicated keys (default: 4)"
    )
    serve_sim.add_argument(
        "--clock", default="version-stamp", choices=kernel.families(),
        help="clock family (default: version-stamp)",
    )
    serve_sim.add_argument(
        "--shards", type=int, default=4,
        help="key-range shards syncing independently (default: 4)",
    )
    serve_sim.add_argument(
        "--loss", type=float, default=0.0,
        help="message loss probability on the simulated fabric (default: 0)",
    )
    serve_sim.add_argument(
        "--latency", type=float, default=0.001,
        help="one-way link latency in virtual seconds (default: 1ms)",
    )
    serve_sim.add_argument(
        "--bandwidth", type=float, default=1e9,
        help="link bandwidth in bytes per virtual second (default: 1e9)",
    )
    serve_sim.add_argument(
        "--jitter", type=float, default=0.1,
        help="fractional uniform latency jitter (default: 0.1)",
    )
    serve_sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    serve_sim.add_argument(
        "--max-rounds", type=int, default=64,
        help="gossip-round budget before declaring failure (default: 64)",
    )
    serve_sim.add_argument(
        "--lockstep", action="store_true",
        help="serialize sessions in schedule order (the sync-equivalent mode)",
    )
    serve_sim.add_argument(
        "--health", action="store_true",
        help="enable the grey-failure health layer (accrual detection, "
        "adaptive deadlines, circuit breakers, weighted peer draw)",
    )
    serve_sim.add_argument(
        "--hedge", action="store_true",
        help="with --health: launch a backup session against the healthiest "
        "other peer when a primary session times out",
    )
    serve_sim.add_argument(
        "--degraded", type=float, default=0.0,
        help="fraction of replicas grey-degraded 10-100x (slow, stuck, "
        "flapping); implies a fault transport (default: 0)",
    )
    serve_sim.add_argument(
        "--health-table", action="store_true",
        help="print the per-replica suspicion/circuit/deadline table after the run",
    )
    serve_sim.add_argument(
        "--json", action="store_true",
        help="emit the full service report (health counters included) as JSON",
    )
    serve_sim.set_defaults(handler=_cmd_serve_sim)

    # contracts
    contracts = subparsers.add_parser(
        "contracts",
        help="declare and enforce causal ordering contracts between pipelines",
    )
    contracts_sub = contracts.add_subparsers(dest="contracts_command", required=True)
    demo = contracts_sub.add_parser(
        "demo",
        help="the stale-export scenario: pipeline B trains on pipeline A's "
        "dataset export under injected faults; exits 2 with a provenance-"
        "traced violation report when the contract is broken",
    )
    demo.add_argument(
        "--clock",
        default="version-stamp",
        choices=kernel.families(),
        help="clock family tracking the dataset key (default: version-stamp)",
    )
    demo.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="chaos gossip rounds between the stale export and the train "
        "step (default: 3 -- inside the outage, so the contract trips; "
        "try 12 to let the export propagate)",
    )
    demo.add_argument(
        "--loss",
        type=float,
        default=0.1,
        help="chaos plan loss rate after the outage window (default: 0.1)",
    )
    demo.add_argument(
        "--outage",
        type=int,
        default=50,
        help="scheduled total-loss window, in transfer attempts after the "
        "stale export (default: 50)",
    )
    demo.add_argument(
        "--history",
        type=int,
        default=256,
        help="sync-history ring buffer size backing provenance (default: 256)",
    )
    demo.add_argument("--seed", type=int, default=0, help="fault/schedule seed")
    contracts.set_defaults(handler=_cmd_contracts)

    # panasync
    panasync = subparsers.add_parser("panasync", help="track dependencies among file copies")
    panasync.add_argument("--repository", required=True, help="path of the copy repository")
    panasync_sub = panasync.add_subparsers(dest="panasync_command", required=True)
    create = panasync_sub.add_parser("create", help="start tracking a file")
    create.add_argument("name")
    create.add_argument("--source", help="file whose content seeds the copy")
    edit = panasync_sub.add_parser("edit", help="record an edit from a source file")
    edit.add_argument("name")
    edit.add_argument("source")
    copy = panasync_sub.add_parser("copy", help="duplicate a copy into another repository")
    copy.add_argument("name")
    copy.add_argument("target_repository")
    copy.add_argument("--target-name")
    compare_files = panasync_sub.add_parser("compare", help="compare two copies")
    compare_files.add_argument("name")
    compare_files.add_argument("other_repository")
    compare_files.add_argument("--other-name")
    merge_files = panasync_sub.add_parser("merge", help="merge two copies")
    merge_files.add_argument("name")
    merge_files.add_argument("other_repository")
    merge_files.add_argument("--other-name")
    panasync_sub.add_parser("status", help="list tracked copies")
    panasync.set_defaults(handler=_cmd_panasync)

    # store
    store = subparsers.add_parser(
        "store", help="work with durable store logs and snapshots"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect_cmd = store_sub.add_parser(
        "inspect",
        help="header-only dump of a durable store (families, epochs, record "
        "counts, CRC status) without decoding any payload",
    )
    inspect_cmd.add_argument(
        "path", help="store directory (file backend) or SQLite database file"
    )
    store.set_defaults(handler=_cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as error:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
