"""Contract evaluation at operation boundaries.

:class:`ContractChecker` holds a set of :class:`~repro.contracts.spec.
ContractSpec` declarations and two kinds of state:

* *recordings* -- snapshots of the source operations' causal trackers,
  taken when the producer runs (:meth:`ContractChecker.record`, or
  automatically via :meth:`watch_writes` through the store's put
  listener);
* *bindings* -- which store replica a target operation runs against,
  for the inline :meth:`scan` hook the gossip drivers call.

:meth:`ContractChecker.check` is a stateless query: it evaluates every
contract on the operation and explains each violation it returns.
:meth:`ContractChecker.scan` reports transitions instead.  It
re-evaluates a binding only when its inputs changed since the last scan
(the target key's clock object, the source's recording count, the bound
store), appends a violation to :attr:`~ContractChecker.violations` when
it opens or changes, and appends a :class:`HealedViolation` to
:attr:`~ContractChecker.healed` when it closes.

Checking is family-generic by construction: the only question ever
asked of causal metadata is the
:meth:`~repro.kernel.protocol.CausalityClock.compare` of two clocks, read
as :attr:`~repro.core.order.Ordering.shortfall` for dominance and as
CONCURRENT for mutual exclusion, so any registered kernel family (and
the dynamic-VV baseline) enforces identically.

Epoch soundness
---------------
Kernel clocks carry a re-rooting epoch, and clocks from different
epochs cannot be compared directly.  The checker resolves cross-epoch
checks *without* comparing, using the compaction protocol's invariant
(epoch bumps only happen at common knowledge -- see
:meth:`~repro.replication.synchronizer.AntiEntropy.compact_key`):

* target epoch **newer** than the recorded snapshot's: satisfied.  The
  bump the target went through required every live holder -- including
  the recording replica, whose knowledge contained the recorded state --
  to reach pairwise-EQUAL first, so any post-bump state causally
  dominates any pre-bump snapshot of the same key.
* target epoch **older**: violation (``"straggler"`` mode).  The
  recording was taken at the newer epoch, i.e. after a bump the target
  has still not heard about; the target's last successful sync on the
  key predates that bump and therefore predates the recording.

On violation the checker raises (or collects) a typed
:class:`ContractViolation` carrying a machine-readable
:class:`ViolationReport`; when the engine records a
:class:`~repro.replication.history.SyncHistory`, the report embeds the
:class:`~repro.contracts.provenance.ProvenanceTrace` naming the sync
paths that should have carried the knowledge and didn't.  Evaluation
builds reports without it; ``check()`` attaches it to every report it
returns and ``scan()`` only to the reports it appends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.errors import ContractError, ReplicationError
from ..core.order import Ordering
from ..kernel.protocol import CausalityClock
from ..replication.history import SyncHistory
from ..replication.store import StoreReplica
from .provenance import ProvenanceTrace, reconstruct
from .spec import ContractKind, ContractSpec

__all__ = [
    "OperationRecord",
    "ViolationReport",
    "ContractViolation",
    "HealedViolation",
    "ContractChecker",
]


@dataclass(frozen=True)
class OperationRecord:
    """One recorded completion of a source operation on one key."""

    operation: str
    key: str
    replica: str
    tracker: CausalityClock
    epoch: int
    #: ``SyncHistory.next_seq`` at record time (None without a history) --
    #: the anchor provenance reconstruction replays from.
    seq: Optional[int]
    #: 1-based count of recordings of this (operation, key) so far.
    index: int


@dataclass(frozen=True)
class ViolationReport:
    """Machine-readable description of one contract violation."""

    spec: ContractSpec
    #: ``"stale"`` (target saw only a causal prefix), ``"concurrent"``
    #: (target raced the source), ``"missing"`` (target never received
    #: the key, or a happened-before source never ran), or
    #: ``"straggler"`` (target is a re-rooting epoch behind the source).
    mode: str
    target_replica: str
    source_replica: Optional[str]
    #: The observed tracker ordering (None when no compare was possible:
    #: missing key, missing source, or cross-epoch resolution).
    ordering: Optional[str]
    #: For freshness contracts: how many recordings behind the target is
    #: (None when it lags past everything the checker retained).
    lag: Optional[int] = None
    #: 1-based index of the source recording the check compared against.
    record_index: Optional[int] = None
    provenance: Optional[ProvenanceTrace] = None

    @property
    def contract(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        return self.spec.kind.value

    @property
    def key(self) -> str:
        return self.spec.key

    def summary(self) -> str:
        """One line: which contract broke, where, and how."""
        source = (
            f" (source at {self.source_replica!r})"
            if self.source_replica is not None
            else ""
        )
        return (
            f"contract {self.spec.name!r} violated: {self.spec.target!r} at "
            f"replica {self.target_replica!r} is {self.mode} on key "
            f"{self.spec.key!r}{source}"
        )

    def describe(self) -> str:
        """The readable multi-line report (summary, obligation, provenance)."""
        lines = [self.summary(), f"  obligation: {self.spec.describe()}"]
        if self.ordering is not None:
            lines.append(f"  observed ordering: {self.ordering}")
        if self.lag is not None:
            lines.append(
                f"  lag: {self.lag} recording(s) behind "
                f"(allowed: {self.spec.max_lag})"
            )
        elif self.spec.kind is ContractKind.FRESHNESS:
            lines.append(
                f"  lag: beyond every retained recording "
                f"(allowed: {self.spec.max_lag})"
            )
        if self.provenance is not None:
            lines.append("  provenance:")
            for line in self.provenance.describe().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)


@dataclass(frozen=True)
class HealedViolation:
    """One violation a scan saw open and later saw satisfied."""

    #: The report :meth:`ContractChecker.scan` appended when it opened.
    report: ViolationReport
    #: ``SyncHistory.next_seq`` when it opened and when it healed (None
    #: without a history): how long it stood, in exchanges.
    opened_seq: Optional[int]
    healed_seq: Optional[int]


class ContractViolation(ContractError):
    """A checked contract did not hold.

    Carries the :class:`ViolationReport` as :attr:`report`; the exception
    message is the report's one-line summary, so logs stay readable while
    handlers get the full machine-readable structure (and the provenance
    trace, when sync history is recorded).
    """

    def __init__(self, report: ViolationReport) -> None:
        super().__init__(report.summary())
        self.report = report


#: A violation as evaluation finds it: the provenance-free report and the
#: source record it was checked against (None when the source never ran);
#: ``ContractChecker._explain`` adds the provenance.
_Finding = Tuple[ViolationReport, Optional[OperationRecord]]


class _OpLog:
    """Retained recordings of one (source operation, key) pair.

    A log is created with its first recording, so ``recent`` is never
    empty and ``recent[-1]`` is the latest recording.
    """

    __slots__ = ("first", "recent", "count")

    def __init__(self, depth: int) -> None:
        self.first: Optional[OperationRecord] = None
        self.recent: Deque[OperationRecord] = deque(maxlen=depth)
        self.count = 0

    def add(self, record: OperationRecord) -> None:
        if self.first is None:
            self.first = record
        self.recent.append(record)
        self.count += 1


class ContractChecker:
    """Evaluate declared ordering contracts against live store replicas.

    Parameters
    ----------
    specs:
        The :class:`~repro.contracts.spec.ContractSpec` declarations to
        enforce; names must be unique.
    history:
        Optional :class:`~repro.replication.history.SyncHistory` (the
        engine's ``history=`` recorder).  With it, recordings are
        anchored to history sequence numbers and every violation report
        embeds a provenance trace.
    """

    def __init__(
        self,
        specs: Iterable[ContractSpec],
        *,
        history: Optional[SyncHistory] = None,
    ) -> None:
        self.specs: Tuple[ContractSpec, ...] = tuple(specs)
        if not self.specs:
            raise ContractError("a contract checker needs at least one spec")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ContractError(
                f"duplicate contract name(s): {', '.join(duplicates)}"
            )
        self.history = history
        self._by_source: Dict[str, List[ContractSpec]] = {}
        self._by_target: Dict[str, List[ContractSpec]] = {}
        for spec in self.specs:
            self._by_source.setdefault(spec.source, []).append(spec)
            self._by_target.setdefault(spec.target, []).append(spec)
        # Retention per (source op, key): freshness contracts need the
        # last max_lag + 1 recordings, everything else only the latest
        # (plus the pinned first, kept separately for happened-before).
        self._logs: Dict[Tuple[str, str], _OpLog] = {}
        self._depths: Dict[Tuple[str, str], int] = {}
        for spec in self.specs:
            pair = (spec.source, spec.key)
            depth = (spec.max_lag + 1) if spec.max_lag is not None else 1
            self._depths[pair] = max(self._depths.get(pair, 1), depth)
        self._bindings: Dict[str, StoreReplica] = {}
        #: Violations :meth:`scan` saw open or change, each once, with
        #: provenance as it stood at that scan.
        self.violations: List[ViolationReport] = []
        #: Violations :meth:`scan` saw close, in the order they healed.
        self.healed: List[HealedViolation] = []
        # Per spec name: the bound store, target clock and source
        # recording count the last scan evaluated.  Held by reference,
        # so a freed clock's id can never alias a live one.
        self._inputs: Dict[
            str, Tuple[StoreReplica, Optional[CausalityClock], int]
        ] = {}
        # Per spec name, while violated: the last report (provenance-free),
        # the report that opened the violation and the seq it opened at.
        self._open: Dict[
            str, Tuple[ViolationReport, ViolationReport, Optional[int]]
        ] = {}

    # -- producer side -----------------------------------------------------

    def record(self, operation: str, store: StoreReplica) -> List[OperationRecord]:
        """Snapshot ``store``'s trackers as a completion of ``operation``.

        One :class:`OperationRecord` is taken per contract naming
        ``operation`` as its source (each on its own key).  Raises
        :class:`~repro.core.errors.ContractError` when no contract
        mentions the operation or the store does not hold a required key.
        """
        specs = self._by_source.get(operation)
        if not specs:
            known = ", ".join(sorted(self._by_source))
            raise ContractError(
                f"no contract names operation {operation!r} as its source "
                f"(known source operations: {known})"
            )
        records = []
        for key in sorted({spec.key for spec in specs}):
            records.append(self._record_key(operation, store, key))
        return records

    def _record_key(
        self, operation: str, store: StoreReplica, key: str
    ) -> OperationRecord:
        # A recording is a *live observer fork*, not a tracker copy: the
        # version-stamp family only orders coexisting stamps, so a copy
        # would go stale the moment a later sync joins (and frontier-
        # normalizes) the store-side tracker.  See StoreReplica.observe.
        try:
            tracker = store.observe(key)
        except ReplicationError as error:
            raise ContractError(
                f"cannot record operation {operation!r}: {error}"
            ) from error
        pair = (operation, key)
        log = self._logs.get(pair)
        if log is None:
            log = self._logs[pair] = _OpLog(self._depths.get(pair, 1))
        record = OperationRecord(
            operation=operation,
            key=key,
            replica=store.name,
            tracker=tracker,
            epoch=tracker.epoch,
            seq=self._next_seq(),
            index=log.count + 1,
        )
        log.add(record)
        return record

    def watch_writes(self, store: StoreReplica, operation: str) -> None:
        """Auto-record ``operation`` whenever ``store`` puts a contract key.

        Registers a put listener on the store: every local write to a key
        that some contract binds to ``operation`` as its source is
        recorded at the moment it lands -- the producer-side integration
        hook, so pipelines do not have to call :meth:`record` by hand.
        """
        specs = self._by_source.get(operation)
        if not specs:
            raise ContractError(
                f"no contract names operation {operation!r} as its source"
            )
        watched = {spec.key for spec in specs}

        def on_put(replica: StoreReplica, key: str) -> None:
            if key in watched:
                self._record_key(operation, replica, key)

        store.add_put_listener(on_put)

    # -- consumer side -----------------------------------------------------

    def bind(self, operation: str, store: StoreReplica) -> None:
        """Declare that ``operation`` runs against ``store`` (for scans)."""
        if operation not in self._by_target:
            known = ", ".join(sorted(self._by_target))
            raise ContractError(
                f"no contract names operation {operation!r} as its target "
                f"(known target operations: {known})"
            )
        self._bindings[operation] = store

    def check(
        self,
        operation: str,
        store: Optional[StoreReplica] = None,
        *,
        raise_on_violation: bool = True,
    ) -> List[ViolationReport]:
        """Evaluate every contract targeting ``operation`` at its boundary.

        ``store`` defaults to the replica bound via :meth:`bind`.  With
        ``raise_on_violation`` (the default) the first violation raises a
        :class:`ContractViolation`; otherwise all violations are returned
        (an empty list means the operation may proceed).
        """
        specs = self._by_target.get(operation)
        if not specs:
            known = ", ".join(sorted(self._by_target))
            raise ContractError(
                f"no contract names operation {operation!r} as its target "
                f"(known target operations: {known})"
            )
        if store is None:
            store = self._bindings.get(operation)
            if store is None:
                raise ContractError(
                    f"operation {operation!r} is not bound to a store; pass "
                    f"one or call bind() first"
                )
        reports = []
        for spec in specs:
            finding = self._evaluate(spec, store)
            if finding is not None:
                report = self._explain(*finding)
                if raise_on_violation:
                    raise ContractViolation(report)
                reports.append(report)
        return reports

    def scan(self) -> List[ViolationReport]:
        """Evaluate all bound target operations, reporting transitions.

        The inline hook gossip drivers call after each round / session;
        it never raises.  A binding is re-evaluated only when its bound
        store, its target key's clock object or its source's recording
        count changed since the last scan: clocks are immutable and every
        mutation path assigns a new one, and the verdict reads nothing
        else.  A violation is appended to :attr:`violations`, with its
        provenance, when it opens or its mode, record, ordering or lag
        changes; a violation that closes is appended to :attr:`healed`.
        Returns the reports this scan appended.
        """
        fresh: List[ViolationReport] = []
        for operation in sorted(self._bindings):
            store = self._bindings[operation]
            for spec in self._by_target[operation]:
                target = self._target_tracker(spec, store)
                log = self._logs.get((spec.source, spec.key))
                count = log.count if log is not None else 0
                seen = self._inputs.get(spec.name)
                if (
                    seen is not None
                    and seen[0] is store
                    and seen[1] is target
                    and seen[2] == count
                ):
                    continue
                self._inputs[spec.name] = (store, target, count)
                finding = self._evaluate(spec, store)
                opened = self._open.get(spec.name)
                if finding is None:
                    if opened is not None:
                        del self._open[spec.name]
                        self.healed.append(
                            HealedViolation(opened[1], opened[2], self._next_seq())
                        )
                elif opened is None or opened[0] != finding[0]:
                    explained = self._explain(*finding)
                    first, since = (
                        (explained, self._next_seq()) if opened is None else opened[1:]
                    )
                    self._open[spec.name] = (finding[0], first, since)
                    fresh.append(explained)
        self.violations.extend(fresh)
        return fresh

    # -- evaluation --------------------------------------------------------

    def _evaluate(
        self, spec: ContractSpec, store: StoreReplica
    ) -> Optional[_Finding]:
        log = self._logs.get((spec.source, spec.key))
        if spec.kind is ContractKind.MUTUAL_EXCLUSION:
            return self._check_exclusion(spec, store, log)
        if spec.kind is ContractKind.HAPPENED_BEFORE:
            if log is None or log.first is None:
                return self._report(
                    spec, store, mode="missing", record=None, ordering=None
                )
            return self._check_dominance(spec, store, log.first)
        if log is None:
            # No recorded source state yet: observes/freshness are
            # vacuously satisfied (there is nothing to observe).
            return None
        if spec.kind is ContractKind.OBSERVES:
            return self._check_dominance(spec, store, log.recent[-1])
        return self._check_freshness(spec, store, log)

    def _target_tracker(
        self, spec: ContractSpec, store: StoreReplica
    ) -> Optional[CausalityClock]:
        state = store._keys.get(spec.key)
        return state.tracker if state is not None else None

    def _relation(
        self, target: CausalityClock, record: OperationRecord
    ) -> Optional[Ordering]:
        """``target`` compared with the record; None across epochs.

        A cross-epoch pair is never compared: the compaction invariant
        (see the module docstring) orders it by epoch alone.
        """
        if target.epoch != record.epoch:
            return None
        return target.compare(record.tracker)

    def _check_dominance(
        self, spec: ContractSpec, store: StoreReplica, record: OperationRecord
    ) -> Optional[_Finding]:
        target = self._target_tracker(spec, store)
        if target is None:
            return self._report(
                spec, store, mode="missing", record=record, ordering=None
            )
        ordering = self._relation(target, record)
        failure = _shortfall(target, record, ordering)
        if failure is None:
            return None
        return self._report(
            spec, store, mode=failure, record=record, ordering=ordering
        )

    def _check_freshness(
        self, spec: ContractSpec, store: StoreReplica, log: _OpLog
    ) -> Optional[_Finding]:
        assert spec.max_lag is not None
        if log.count <= spec.max_lag:
            # Fewer recordings than the allowed lag exist at all, so the
            # target cannot be more than max_lag behind.
            return None
        bound = log.recent[-(spec.max_lag + 1)]
        target = self._target_tracker(spec, store)
        if target is None:
            return self._report(
                spec, store, mode="missing", record=bound, ordering=None
            )
        ordering = self._relation(target, bound)
        failure = _shortfall(target, bound, ordering)
        if failure is None:
            return None
        # Actual lag, for the report: distance from the newest recording
        # to the first one the target dominates (None: beyond retention).
        lag: Optional[int] = None
        for offset, record in enumerate(reversed(log.recent)):
            if record is bound:
                continue  # already known not to be dominated
            if _shortfall(target, record, self._relation(target, record)) is None:
                lag = offset
                break
        return self._report(
            spec, store, mode=failure, record=bound, ordering=ordering, lag=lag
        )

    def _check_exclusion(
        self,
        spec: ContractSpec,
        store: StoreReplica,
        log: Optional[_OpLog],
    ) -> Optional[_Finding]:
        if log is None:
            return None
        record = log.recent[-1]
        target = self._target_tracker(spec, store)
        if target is None:
            return None
        # Cross-epoch states are ordered by the compaction invariant (the
        # newer epoch dominates), hence never concurrent.
        ordering = self._relation(target, record)
        if ordering is not Ordering.CONCURRENT:
            return None
        return self._report(
            spec, store, mode="concurrent", record=record, ordering=ordering
        )

    def _report(
        self,
        spec: ContractSpec,
        store: StoreReplica,
        *,
        mode: str,
        record: Optional[OperationRecord],
        ordering: Optional[Ordering],
        lag: Optional[int] = None,
    ) -> _Finding:
        report = ViolationReport(
            spec=spec,
            mode=mode,
            target_replica=store.name,
            source_replica=record.replica if record is not None else None,
            ordering=ordering.value if ordering is not None else None,
            lag=lag,
            record_index=record.index if record is not None else None,
        )
        return report, record

    def _explain(
        self, report: ViolationReport, record: Optional[OperationRecord]
    ) -> ViolationReport:
        """``report`` with its provenance trace, when the history has one."""
        if self.history is None or record is None or record.seq is None:
            return report
        return replace(
            report,
            provenance=reconstruct(
                self.history,
                key=report.key,
                source_replica=record.replica,
                target_replica=report.target_replica,
                since_seq=record.seq,
            ),
        )

    def _next_seq(self) -> Optional[int]:
        return self.history.next_seq if self.history is not None else None


def _shortfall(
    target: CausalityClock,
    record: OperationRecord,
    ordering: Optional[Ordering],
) -> Optional[str]:
    """How ``target`` fails to dominate the record, epoch-resolved.

    ``ordering`` is :meth:`ContractChecker._relation` of the pair.  A
    cross-epoch target is satisfied when its epoch is newer and a
    ``"straggler"`` when it is older (see the module docstring).
    """
    if ordering is None:
        return None if target.epoch > record.epoch else "straggler"
    return ordering.shortfall
