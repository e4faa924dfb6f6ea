"""Layer spans recorded from outside the program under test.

:class:`Tracer` wraps the public entry points of each layer (a class
attribute, or a module attribute where a caller imported the name by
value) with span recorders, runs a pass, and restores every original on
exit -- nothing under ``src/`` changes.  A span records its name, start,
end and parent in flat in-memory arrays; :meth:`Tracer.layer_times`
derives each name's inclusive and self time (span time minus the time its
child spans cover) once the pass is over, and :meth:`Tracer.write`
dumps the table.

Every span is a synchronous call region -- a generator session is traced
one resume at a time -- so spans nest strictly even when the service
interleaves thousands of sessions on its virtual-time loop.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import repro.contracts.checker as checker_module
import repro.durability.recovery as recovery_module
import repro.durability.store as journal_module
import repro.replication.synchronizer as sync_module
from repro.contracts import ContractChecker
from repro.durability.log import DurableLog
from repro.kernel.stream import ClockStream, IncrementalStreamDecoder, stream_info
from repro.replication import (
    AntiEntropy,
    FaultyTransport,
    KeepBoth,
    MobileNode,
    StoreReplica,
)
from repro.replication.synchronizer import WireSyncEngine
from repro.service import AntiEntropyService, HealthMonitor

now_ns = time.perf_counter_ns

#: (owner, attribute, span name) of every plain span the tracer installs.
SPANS: List[Tuple[object, str, str]] = [
    (AntiEntropyService, "run", "service"),
    (AntiEntropy, "run_round", "gossip"),
    (AntiEntropy, "converged", "gossip"),
    (AntiEntropy, "compact_key", "compact"),
    (sync_module, "reroot_group", "reroot"),
    (sync_module, "encode_stream", "codec.encode"),
    (journal_module, "encode_stream", "codec.encode"),
    (sync_module, "decode_stream", "codec.decode"),
    (recovery_module, "decode_stream", "codec.decode"),
    (IncrementalStreamDecoder, "feed", "codec.decode"),
    (IncrementalStreamDecoder, "finish", "codec.decode"),
    (ClockStream, "__getitem__", "codec.decode"),
    (StoreReplica, "_merge_key_states", "merge"),
    (FaultyTransport, "transfer_batch", "transport"),
    (journal_module.StoreJournal, "record_key", "journal.record"),
    (journal_module.StoreJournal, "flush", "journal.flush"),
    (journal_module.StoreJournal, "snapshot", "journal.snapshot"),
    (journal_module.StoreJournal, "simulate_crash", "recovery"),
    (recovery_module, "rebuild", "recovery"),
    (ContractChecker, "scan", "contracts.scan"),
    (ContractChecker, "_record_key", "contracts.record"),
    (checker_module, "reconstruct", "contracts.provenance"),
    (MobileNode, "write", "put"),
] + [
    (HealthMonitor, method, "health")
    for method in (
        "allow",
        "deadline",
        "observe_success",
        "observe_timeout",
        "select",
        "hedge_candidate",
        "decay_round",
    )
]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._active: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, after=None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, result)`` counts work."""
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            active[nid] += 1
            starts.append(now_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now_ns()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _session(self, fn: Callable) -> Callable:
        """Trace a sans-io session generator one resume at a time."""
        nid = self._id("engine")
        service, compact = self._id("service"), self._id("compact")
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, active, counters = self._stack, self._active, self.counters

        def session(*args, **kwargs):
            counters["engine.sessions"] += 1
            if active[service]:
                counters["service.sessions"] += 1
            if active[compact]:
                counters["compact.sessions"] += 1
            inner = fn(*args, **kwargs)
            value = error = None
            while True:
                index = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(index)
                starts.append(now_ns())
                try:
                    if error is None:
                        effect = inner.send(value)
                    else:
                        effect = inner.throw(error)
                except StopIteration as stop:
                    ends[index] = now_ns()
                    stack.pop()
                    counters["engine.keys_examined"] += stop.value.keys_examined
                    return stop.value
                except BaseException:
                    ends[index] = now_ns()
                    stack.pop()
                    raise
                ends[index] = now_ns()
                stack.pop()
                value = error = None
                try:
                    value = yield effect
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:
                    error = exc

        session.__wrapped__ = fn
        return session

    # -- counting hooks ----------------------------------------------------

    def _count_encode(self, args, stream) -> None:
        self.counters["codec.frames"] += stream_info(stream).frame_count
        self.counters["codec.bytes"] += len(stream)

    def _count_transport(self, args, _result) -> None:
        self.counters["transport.attempts"] += len(args[3])

    def _count_scan(self, args, _result) -> None:
        checker = args[0]
        self.counters["contracts.checks"] += sum(
            len(checker._by_target[operation]) for operation in checker._bindings
        )

    # -- install / remove --------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Tracer":
        hooks = {
            "codec.encode": self._count_encode,
            "transport": self._count_transport,
            "contracts.scan": self._count_scan,
        }
        for owner, attribute, name in SPANS:
            original = owner.__dict__[attribute]
            self._patch(owner, attribute, self._span(name, original, hooks.get(name)))
        self._patch(
            WireSyncEngine, "session", self._session(WireSyncEngine.__dict__["session"])
        )
        counters = self.counters
        # Counted, not spanned: one call per journal record appended and
        # one per conflict the merge resolves.
        for owner, attribute, counter, amount in (
            (DurableLog, "append", "journal.bytes", lambda args: len(args[1])),
            (KeepBoth, "resolve", "merge.conflicts", lambda args: 1),
        ):
            self._patch(
                owner,
                attribute,
                self._count(owner.__dict__[attribute], counters, counter, amount),
            )
        return self

    @staticmethod
    def _count(fn: Callable, counters, counter: str, amount: Callable) -> Callable:
        def wrapper(*args):
            counters[counter] += amount(args)
            return fn(*args)

        return wrapper

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def layer_times(self) -> Tuple[Dict[str, float], Dict[str, float], float]:
        """Per span name: (inclusive seconds, self seconds), plus top-level seconds.

        Self time is a span's duration minus the durations of its direct
        children; top-level seconds sum the spans with no parent, i.e. the
        wall time the trace covers.
        """
        count = len(self.span_start)
        child = [0] * count
        durations = [0] * count
        parents, names = self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end
        top = 0
        for index in range(count):
            duration = ends[index] - starts[index]
            durations[index] = duration
            parent = parents[index]
            if parent >= 0:
                child[parent] += duration
            else:
                top += duration
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for index in range(count):
            name = self.names[names[index]]
            inclusive[name] += durations[index] / 1e9
            own[name] += (durations[index] - child[index]) / 1e9
        return dict(inclusive), dict(own), top / 1e9

    def write(self, path: str) -> None:
        """Dump the span table: id, parent, name, start_ns, end_ns."""
        origin = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for index in range(len(self.span_start)):
                out.write(
                    f"{index}\t{self.span_parent[index]}\t"
                    f"{self.names[self.span_name[index]]}\t"
                    f"{self.span_start[index] - origin}\t"
                    f"{self.span_end[index] - origin}\n"
                )


def engine_counters(workload) -> List[float]:
    """Summed engine/meter/intern counters of the workload's engines."""
    totals = [0.0] * 11
    for engine in workload.engines:
        meter, intern = engine.meter, engine.intern
        values = (
            engine.stamps_shipped,
            engine.equal_bytes_skips + engine.equal_cache_hits,
            engine.deliveries_failed,
            meter.messages,
            meter.bytes_sent,
            meter.bytes_delivered,
            meter.dropped,
            meter.corrupted,
            meter.retried,
            intern.hits if intern is not None else 0,
            intern.misses if intern is not None else 0,
        )
        totals = [total + value for total, value in zip(totals, values)]
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, workload, before: List[float], wall_s: float):
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``.

    ``*.self_s`` is a layer's self time; the other ``*.s``/``*_s`` times
    are inclusive (compaction includes the syncs it drives).  Counts come
    from the tracer's boundary counters and from the workload's own
    engines, meters, health monitor, checker and recovery reports.
    """
    inclusive, own, covered = tracer.layer_times()
    counts = tracer.counters
    calls: Dict[str, int] = defaultdict(int)
    for nid in tracer.span_name:
        calls[tracer.names[nid]] += 1
    (shipped, equal_skips, lost, messages, sent, delivered, dropped,
     corrupted, retried, hits, misses) = (
        after - base for after, base in zip(engine_counters(workload), before)
    )
    keys = counts["engine.keys_examined"]
    service, gossip, checker = workload.service, workload.gossip, workload.checker
    health = service.health.counters() if service is not None and service.health else {}
    shards = service.shards.count if service is not None else 0
    recoveries = workload.recoveries
    metrics = {
        "service.self_s": (own.get("service", 0.0), "s"),
        "service.jobs": (
            sum(r.exchanges for rep in workload.reports for r in rep.rounds) * shards,
            "count",
        ),
        "service.empty_parts": (
            sum(r.empty_parts for rep in workload.reports for r in rep.rounds), "count"
        ),
        "service.sessions": (counts["service.sessions"], "count"),
        "gossip.self_s": (own.get("gossip", 0.0), "s"),
        "put.self_s": (own.get("put", 0.0), "s"),
        "engine.self_s": (own.get("engine", 0.0), "s"),
        "engine.sessions": (counts["engine.sessions"], "count"),
        "engine.keys_examined": (keys, "count"),
        "engine.equal_skip_ratio": (_ratio(equal_skips, keys), "ratio"),
        "engine.stamps_shipped": (shipped, "count"),
        "engine.messages": (messages, "count"),
        "engine.bytes": (sent, "B"),
        "codec.encode_s": (own.get("codec.encode", 0.0), "s"),
        "codec.decode_s": (own.get("codec.decode", 0.0), "s"),
        "codec.frames": (counts["codec.frames"], "count"),
        "codec.bytes": (counts["codec.bytes"], "B"),
        "codec.intern_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "merge.s": (own.get("merge", 0.0), "s"),
        "merge.calls": (calls["merge"], "count"),
        "merge.conflicts": (counts["merge.conflicts"], "count"),
        "transport.s": (own.get("transport", 0.0), "s"),
        "transport.attempts": (counts["transport.attempts"], "count"),
        "transport.dropped": (dropped, "count"),
        "transport.corrupted": (corrupted, "count"),
        "transport.retried": (retried, "count"),
        "transport.goodput": (
            _ratio(delivered, sent) if counts["transport.attempts"] else 0.0, "ratio"
        ),
        "transport.deliveries_failed": (lost, "count"),
        "compact.s": (inclusive.get("compact", 0.0), "s"),
        "compact.self_s": (own.get("compact", 0.0), "s"),
        "compact.calls": (calls["compact"], "count"),
        "compact.sessions": (counts["compact.sessions"], "count"),
        "compact.success_ratio": (
            _ratio(gossip.compactions, gossip.compaction_attempts)
            if gossip is not None else 0.0,
            "ratio",
        ),
        "reroot.s": (inclusive.get("reroot", 0.0), "s"),
        "journal.record_s": (own.get("journal.record", 0.0), "s"),
        "journal.flush_s": (own.get("journal.flush", 0.0), "s"),
        "journal.snapshot_s": (own.get("journal.snapshot", 0.0), "s"),
        "journal.records": (calls["journal.record"], "count"),
        "journal.flushes": (calls["journal.flush"], "count"),
        "journal.bytes_per_user_byte": (
            _ratio(counts["journal.bytes"], workload.user_bytes), "ratio"
        ),
        "recovery.s": (inclusive.get("recovery", 0.0), "s"),
        "recovery.records_replayed": (
            sum(report.records_replayed for report in recoveries), "count"
        ),
        "recovery.torn_tails": (
            sum(1 for report in recoveries if report.tail is not None), "count"
        ),
        "health.s": (own.get("health", 0.0), "s"),
        "health.timeouts": (health.get("timeouts", 0), "count"),
        "health.breaker_opens": (health.get("breaker_opens", 0), "count"),
        "health.breaker_skips": (health.get("breaker_skips", 0), "count"),
        "health.hedges": (health.get("hedges", 0), "count"),
        "health.hedge_win_ratio": (
            _ratio(health.get("hedge_wins", 0), health.get("hedges", 0)), "ratio"
        ),
        "contracts.scan_s": (inclusive.get("contracts.scan", 0.0), "s"),
        "contracts.record_s": (inclusive.get("contracts.record", 0.0), "s"),
        "contracts.checks": (counts["contracts.checks"], "count"),
        "contracts.violations": (
            len(checker.violations) if checker is not None else 0, "count"
        ),
        "contracts.provenance_s": (inclusive.get("contracts.provenance", 0.0), "s"),
        "trace.coverage": (_ratio(covered, wall_s), "ratio"),
    }
    return metrics, own
