"""A replicated multi-value key-value store built on version stamps.

This is the kind of optimistic data store the paper's motivation describes:
every node holds a copy, writes are accepted locally without coordination,
and reconciliation happens whenever two copies meet.  Because writes can
race, a key may hold several *sibling* values after a synchronization; the
causal metadata is what distinguishes stale values (safe to drop) from
genuinely concurrent ones (application conflicts).

Design notes (how the store stays inside the paper's frontier model)
---------------------------------------------------------------------
Version stamps order *coexisting* elements; comparing a live stamp against a
stale snapshot from an earlier frontier is outside the model.  The store
therefore keeps **one live tracker per key per replica** and only ever
compares the live trackers of the two replicas being synchronized:

* a local ``put`` records an update on that key's tracker;
* replicating a key to a replica that does not hold it yet *forks* the key's
  tracker (exactly like creating a new replica of a file);
* a pairwise synchronization compares the two live trackers, moves values in
  the direction causality dictates (or keeps both as siblings on a genuine
  conflict), and then joins-and-forks the trackers so both replicas continue
  with combined knowledge and distinct identities (Section 1.1);
* a causally EQUAL pair keeps its trackers: both sides already hold the
  same knowledge, so a join-and-fork would only grow the metadata.

Every pairwise synchronization runs over the wire, through
:meth:`repro.replication.synchronizer.WireSyncEngine.session`;
:meth:`StoreReplica.sync_with` is that engine's one-call form.

Sibling values carry no stamps of their own -- they are simply the set of
candidate values for the key; the next causally-dominating write supersedes
all of them everywhere it propagates.

One consequence (shared with PANASYNC file copies): a logical key should be
*created* at one replica and spread by synchronization.  Two replicas
independently creating the same key cannot be causally related -- the store
flags that situation as a conflict of independent origins.

Durability (PR 7)
-----------------
A replica opened with ``durable=True`` (or recovered via
:meth:`StoreReplica.recover`) journals the post-mutation state of every
key it writes, merges, replicates or rolls back to an append-only
:class:`~repro.durability.log.DurableLog` through a
:class:`~repro.durability.store.StoreJournal`.  Local writes flush
immediately; synchronization paths flush once at sync completion (the
durability barrier that keeps recovery inside the paper's I2 invariant --
see the recovery design record in ``ROADMAP.md``).  The store only duck
-types the journal, so this module never imports the durability package
at module level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.errors import ReplicationError
from ..core.order import Ordering
from .conflict import ConflictPolicy, KeepBoth
from .tracker import CausalityTracker, KernelTracker

__all__ = ["StoreReplica", "MergeReport", "KeyState", "FrameRejected"]


@dataclass(frozen=True)
class FrameRejected:
    """One wire frame the sync engine skipped instead of merging.

    Produced by the wire sync engine when a frame survives transport-level
    retries but still fails to decode (e.g. payload bits flipped in
    flight past the stream's structural checks).  The affected key keeps
    its local state and is healed by a later round; the rest of the
    pairwise sync proceeds.  ``stage`` says where the damage surfaced
    (``"request"`` or ``"response"`` leg), ``reason`` carries the typed
    decode error's message.
    """

    key: str
    family: str
    epoch: int
    stage: str
    reason: str


@dataclass
class MergeReport:
    """Statistics produced by one pairwise store synchronization."""

    keys_examined: int = 0
    values_taken: int = 0
    values_dropped_stale: int = 0
    conflicts_detected: int = 0
    conflicts_resolved: int = 0
    keys_replicated: int = 0
    #: Stale-epoch trackers fiat-upgraded to the newer epoch during merge.
    epoch_upgrades: int = 0
    #: Frames skipped (not merged) because they failed decode after retries.
    frames_rejected: List[FrameRejected] = field(default_factory=list)

    def __iadd__(self, other: "MergeReport") -> "MergeReport":
        self.keys_examined += other.keys_examined
        self.values_taken += other.values_taken
        self.values_dropped_stale += other.values_dropped_stale
        self.conflicts_detected += other.conflicts_detected
        self.conflicts_resolved += other.conflicts_resolved
        self.keys_replicated += other.keys_replicated
        self.epoch_upgrades += other.epoch_upgrades
        self.frames_rejected.extend(other.frames_rejected)
        return self


@dataclass
class KeyState:
    """The live state of one key at one replica: sibling values + tracker."""

    values: List[object]
    tracker: CausalityTracker
    independently_created: bool = False


class StoreReplica:
    """One replica of a multi-value key-value store.

    Parameters
    ----------
    name:
        Replica name used in logs and reports.
    tracker_factory:
        Callable producing the causality tracker used for keys first created
        at this replica; defaults to version-stamp trackers
        (``KernelTracker.factory("version-stamp")``).
    policy:
        Conflict policy applied when concurrent versions of a key meet;
        defaults to keeping all siblings.
    durable:
        Open a journaled replica: every accepted mutation is persisted to
        the durable log at ``path`` so :meth:`recover` can rebuild the
        replica after a crash.  Requires kernel trackers (the default, or
        any ``KernelTracker.factory(<family>)``) -- the dynamic-VV
        baseline has no canonical byte form.
    path:
        Location of the backing log (a directory for the file backend,
        a database file for SQLite).  Required with ``durable=True``.
    backend:
        ``"file"`` (default) or ``"sqlite"``.
    fsync_every:
        Device-sync batching forwarded to the log: ``None`` commits stop
        at the OS page cache (the process-crash model), ``N`` fsyncs
        every Nth flush.
    snapshot_every:
        Auto-compaction threshold in journal records (``None`` compacts
        only at epoch bumps and explicit requests).
    journal:
        An already-constructed :class:`~repro.durability.store.
        StoreJournal` to attach (used by recovery); mutually exclusive
        with ``durable=True``.
    """

    def __init__(
        self,
        name: str,
        *,
        tracker_factory=KernelTracker.factory("version-stamp"),
        policy: Optional[ConflictPolicy] = None,
        durable: bool = False,
        path=None,
        backend: str = "file",
        fsync_every: Optional[int] = None,
        snapshot_every: Optional[int] = None,
        journal=None,
    ) -> None:
        self.name = name
        self._tracker_factory = tracker_factory
        self._policy = policy if policy is not None else KeepBoth()
        self._keys: Dict[str, KeyState] = {}
        # Write observers, called as fn(replica, key) after every local
        # put.  This is the contracts layer's producer-side hook
        # (ContractChecker.watch_writes snapshots the key's tracker the
        # moment an export lands), kept generic so other consumers can
        # observe local mutations without subclassing the store.
        self._put_listeners: List = []
        if durable and journal is None:
            if path is None:
                raise ReplicationError(
                    "a durable store needs a path for its backing log"
                )
            from ..durability.store import StoreJournal, open_log

            journal = StoreJournal(
                open_log(path, backend=backend, fsync_every=fsync_every),
                snapshot_every=snapshot_every,
            )
        #: The attached :class:`~repro.durability.store.StoreJournal`
        #: (``None`` for a purely in-memory replica).
        self.journal = journal

    @classmethod
    def recover(
        cls,
        path,
        *,
        name: str,
        backend: str = "file",
        tracker_factory=None,
        policy: Optional[ConflictPolicy] = None,
        fsync_every: Optional[int] = None,
        snapshot_every: Optional[int] = None,
    ):
        """Rebuild a replica from the durable log at ``path``.

        Returns ``(replica, report)``: the replica holds the pre-crash
        values, trackers and epochs (snapshot + CRC-valid journal tail,
        torn tails truncated and reported -- never silently decoded), and
        the :class:`~repro.durability.recovery.RecoveryReport` says what
        was replayed, skipped and cut.  The replica is re-attached to the
        same log, so journaling continues where the crash interrupted it.
        """
        from ..durability.recovery import recover_replica

        return recover_replica(
            path,
            name=name,
            backend=backend,
            tracker_factory=tracker_factory,
            policy=policy,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
        )

    # -- journaling hooks --------------------------------------------------

    def _record(self, key: str) -> None:
        """Journal the current (post-mutation) state of ``key``, if durable."""
        if self.journal is not None:
            self.journal.record_key(key, self._keys.get(key))

    def _flush_journal(self) -> None:
        """Commit journaled records (the sync-boundary durability barrier)."""
        if self.journal is not None:
            self.journal.flush()

    # -- inspection ------------------------------------------------------

    def keys(self) -> List[str]:
        """All keys currently holding at least one value."""
        return sorted(self._keys)

    def get(self, key: str) -> List[object]:
        """All sibling values currently stored under ``key`` (may be empty)."""
        state = self._keys.get(key)
        return list(state.values) if state is not None else []

    def get_one(self, key: str) -> object:
        """The single value of ``key``.

        Raises
        ------
        ReplicationError
            If the key is missing or currently holds conflicting siblings.
        """
        state = self._keys.get(key)
        if state is None or not state.values:
            raise ReplicationError(f"key {key!r} has no value on replica {self.name!r}")
        if len(state.values) > 1:
            raise ReplicationError(
                f"key {key!r} holds {len(state.values)} conflicting siblings on "
                f"replica {self.name!r}; resolve them before reading one value"
            )
        return state.values[0]

    def tracker_of(self, key: str) -> CausalityTracker:
        """The live causality tracker of ``key`` at this replica."""
        state = self._keys.get(key)
        if state is None:
            raise ReplicationError(f"key {key!r} is not stored on replica {self.name!r}")
        return state.tracker

    def has_conflict(self, key: str) -> bool:
        """True when ``key`` currently holds more than one sibling."""
        return len(self.get(key)) > 1

    def conflicted_keys(self) -> List[str]:
        """All keys currently holding conflicting siblings."""
        return [key for key in self.keys() if self.has_conflict(key)]

    def metadata_size_in_bits(self) -> int:
        """Encoded size of every causal tracker held by this replica."""
        return sum(state.tracker.size_in_bits() for state in self._keys.values())

    def __repr__(self) -> str:
        return f"StoreReplica({self.name!r}, keys={self.keys()})"

    # -- local operations ------------------------------------------------------

    def put(self, key: str, value: object) -> None:
        """Write ``value`` under ``key``, superseding every local sibling.

        A key written for the first time at this replica starts a fresh
        causal lineage (it is "created" here); the key then spreads to other
        replicas through synchronization.
        """
        state = self._keys.get(key)
        if state is None:
            state = KeyState(values=[], tracker=self._tracker_factory(), independently_created=True)
            self._keys[key] = state
        state.values = [value]
        state.tracker = state.tracker.updated()
        if self.journal is not None:
            self._record(key)
            self.journal.flush()
            self.journal.maybe_snapshot(self)
        for listener in self._put_listeners:
            listener(self, key)

    def add_put_listener(self, listener) -> None:
        """Observe local writes: ``listener(replica, key)`` after each put.

        Listeners fire after the write is applied (and journaled, when
        durable), so they see the post-write tracker -- the snapshot an
        ordering contract needs for "the producer's latest export".
        """
        self._put_listeners.append(listener)

    def observe(self, key: str) -> CausalityTracker:
        """Mint a live observer of ``key``'s current causal state.

        Forks the key's tracker: one half stays in the store, the other
        is returned for the caller to keep.  The observer is causally
        EQUAL to the key's state at observation time and is never updated
        or joined, so a later ``current.dominates(observer)`` answers
        "has ``current`` seen everything this key had seen by then?".

        Callers must hold a *live fork*, never a plain copy of the
        tracker: version stamps only order coexisting stamps, and the
        frontier-relative normalization applied by later joins discards
        exactly the history a retired copy would still be relying on --
        a copied stamp can end up spuriously "ahead" of replicas that
        causally dominate it.  Forking registers the observer in the
        key's identity space, which the normalization then provably
        cannot collapse away.
        """
        state = self._keys.get(key)
        if state is None:
            raise ReplicationError(
                f"key {key!r} is not stored on replica {self.name!r}"
            )
        local, observer = state.tracker.forked()
        state.tracker = local
        if self.journal is not None:
            self._record(key)
            self.journal.flush()
        return observer

    def delete(self, key: str) -> None:
        """Remove ``key`` locally (modelled as writing a tombstone value)."""
        self.put(key, None)

    def reset(self) -> None:
        """Drop all keys, values and trackers (crash-stop recovery).

        A replica that crashes rejoins *empty* and re-replicates from
        peers: restoring an old snapshot would resurrect identifier space
        that later forks already split away (an I2 violation that can
        manufacture false orderings).  Fresh identities are minted per key
        by the normal replication fork when the key flows back in.
        """
        self._keys.clear()
        if self.journal is not None:
            self.journal.record_clear()
            self.journal.flush()

    def fork(self, name: str, *, connected: bool = True) -> "StoreReplica":
        """Create a new store replica holding the same data, entirely locally.

        Every key's tracker is forked so both replicas keep distinct,
        autonomous identities per key.  The clone starts in-memory (attach
        a journal or open it durable separately); the *parent's* re-seated
        trackers are journaled and flushed before the clone leaves this
        call, so a post-fork crash can never resurrect the pre-fork
        identities the clone now co-owns.
        """
        clone = StoreReplica(name, tracker_factory=self._tracker_factory, policy=self._policy)
        for key, state in self._keys.items():
            mine, theirs = state.tracker.forked(connected=connected)
            state.tracker = mine
            clone._keys[key] = KeyState(
                values=list(state.values),
                tracker=theirs,
                independently_created=False,
            )
            state.independently_created = False
            self._record(key)
        self._flush_journal()
        return clone

    # -- reconciliation ------------------------------------------------------

    def _merge_key_states(
        self, mine: KeyState, theirs: KeyState, report: MergeReport
    ) -> None:
        """Reconcile two held key states (values + trackers) in place.

        The per-key core of a pairwise synchronization.  The wire sync
        engine calls it with ``theirs.tracker`` substituted by metadata
        decoded off the wire.  A pair of causally EQUAL trackers is left
        untouched -- both already carry identical knowledge, so the
        join-and-fork would only churn metadata.  The engine relies on
        that stability: unchanged trackers re-ship as byte-identical
        frames, which its decode intern turns into dictionary hits.

        Epoch-gossip straggler upgrade: when the two trackers disagree on
        their re-rooting epoch, the older-epoch side is a straggler that
        missed a compaction.  Epoch bumps only happen once every live
        holder of the key reached pairwise-EQUAL common knowledge (see
        :meth:`repro.replication.synchronizer.AntiEntropy.compact_key`),
        so the straggler's knowledge is causally dominated by the
        newer-epoch state *by construction* -- the merge adopts the newer
        side's values wholesale and re-seats the straggler on a fresh fork
        of the newer tracker, instead of raising :class:`EpochMismatch`.
        """
        my_epoch = getattr(mine.tracker, "epoch", None)
        their_epoch = getattr(theirs.tracker, "epoch", None)
        if (
            my_epoch is not None
            and their_epoch is not None
            and my_epoch != their_epoch
        ):
            fresh, stale = (mine, theirs) if my_epoch > their_epoch else (theirs, mine)
            report.epoch_upgrades += 1
            report.values_dropped_stale += len(stale.values)
            stale.values = list(fresh.values)
            report.values_taken += len(fresh.values)
            local, remote = fresh.tracker.forked()
            fresh.tracker = local
            stale.tracker = remote
            mine.independently_created = False
            theirs.independently_created = False
            return

        relation = mine.tracker.compare(theirs.tracker)
        independent_origins = (
            mine.independently_created
            and theirs.independently_created
            and relation is not Ordering.CONCURRENT
        )
        if relation is Ordering.CONCURRENT or independent_origins:
            report.conflicts_detected += 1
            combined = self._policy.resolve(list(mine.values) + list(theirs.values))
            if len(combined) < len(mine.values) + len(theirs.values):
                report.conflicts_resolved += 1
            mine.values = list(combined)
            theirs.values = list(combined)
            report.values_taken += len(combined)
        elif relation is Ordering.BEFORE:
            report.values_dropped_stale += len(mine.values)
            mine.values = list(theirs.values)
            report.values_taken += len(theirs.values)
        elif relation is Ordering.AFTER:
            report.values_dropped_stale += len(theirs.values)
            theirs.values = list(mine.values)
            report.values_taken += len(mine.values)
        else:
            # EQUAL: both sides already hold the same version with
            # equivalent causal knowledge.
            return

        joined = mine.tracker.joined(theirs.tracker)
        if relation is Ordering.CONCURRENT and self._policy.collapses:
            # A resolved conflict is a new version that must dominate both
            # inputs in later comparisons with third replicas.
            joined = joined.updated()
        local, remote = joined.forked()
        mine.tracker = local
        theirs.tracker = remote
        mine.independently_created = False
        theirs.independently_created = False

    def sync_with(self, other: "StoreReplica") -> MergeReport:
        """Two-way reconciliation: both replicas end with the same keys and
        values, with combined causal knowledge per key (Section 1.1).

        One call of a fresh :class:`~repro.replication.synchronizer.
        WireSyncEngine`, so every tracker crosses the codec and causally
        EQUAL keys keep their trackers.
        """
        from .synchronizer import WireSyncEngine

        return WireSyncEngine().sync(self, other)

    def _commit_sync(self, other: "StoreReplica", keys: Iterable[str]) -> None:
        """The sync-completion durability barrier of the wire session.

        Journals the post-sync state of ``keys`` -- the keys the sync
        changed, which both replicas now hold -- on both sides, then
        flushes each journal once.  A crash before the flush recovers the
        pre-sync state and a crash after it the completed sync; no state
        in between, holding one half of a fresh join-and-fork, can be
        resurrected.
        """
        if self.journal is None and other.journal is None:
            return
        for key in keys:
            self._record(key)
            other._record(key)
        self._flush_journal()
        other._flush_journal()
