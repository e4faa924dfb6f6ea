"""Anti-entropy synchronization over a set of mobile nodes.

Optimistic systems reconcile replicas opportunistically: whenever two copies
can communicate, they exchange what they know.  :class:`AntiEntropy` drives
that process over a collection of :class:`~repro.replication.node.MobileNode`
objects and a :class:`~repro.replication.network.SimulatedNetwork`:

* each *round*, every live node picks a reachable peer (at random) and
  performs a two-way store synchronization;
* partitions and crashed nodes simply limit who can be picked, so progress
  continues independently inside every partition -- the paper's partitioned
  operation;
* every round leaves a :class:`RoundReport` and every run a
  :class:`RunReport`, which let benchmarks measure how many rounds
  convergence takes, how many conflicts were detected, and -- under a
  fault-injecting transport -- the effective goodput of the exchange.

The wire sync engine
--------------------
:class:`WireSyncEngine` is the one pairwise synchronization: every piece
of causal metadata a sync moves actually crosses a wire boundary as bytes.
:meth:`StoreReplica.sync_with`, :meth:`MobileNode.sync_with` and both
gossip drivers run its :meth:`~WireSyncEngine.session`.  A reconciliation
between stores ``A`` and ``B`` is up to three transfers:

1. *digest* -- ``A`` ships a 128-bit digest of every key both sides hold
   (:meth:`~repro.replication.store.KeyState.digest`: family, epoch, the
   clock's :meth:`~repro.kernel.clocks.KernelClock.knowledge_bytes` and
   the sorted sibling values), 16 bytes per key in one message.  A key
   whose digests match is *settled*: nothing about it is shipped,
   decoded, merged, snapshotted or journaled;
2. *request* -- ``B`` ships the trackers of every other key it holds,
   framed as **one stream per (family, epoch) group**
   (:mod:`repro.kernel.stream`).  ``A`` decodes them lazily, one frame
   per key as the merge reads it, and runs the store's per-key merge;
3. *response* -- ``A`` ships back only the trackers that changed, which
   ``B`` installs after decoding, so what a store holds after a wire sync
   has genuinely round-tripped the codec.

A matching digest settles a key soundly because equal knowledge bytes of
one family and epoch make ``compare()`` EQUAL -- the codecs are canonical
-- and an EQUAL pair is a no-op for the merge.  The sibling values can
only turn a match into a mismatch.  A collision could settle a key that
differs; with 128-bit digests its probability is at most n * 2^-128 over n
key comparisons, and the key is repaired by the next session whose
digests differ.  Causally EQUAL keys keep their trackers, so the steady
state of anti-entropy -- most keys unchanged between rounds -- costs one
16-byte digest per key and ships no stamps.  A property test holds the
engine's configurations to the causal oracle's.

Degrading gracefully under faults
---------------------------------
Give the engine a :class:`~repro.replication.faults.FaultyTransport` and a
:class:`~repro.replication.faults.RetryPolicy` and every transfer leg runs
through scheduled loss, duplication, reordering and corruption:

* each wire message carries a CRC32 transport checksum; a copy that fails
  the checksum (or fails eager structural decode) is discarded and the
  message is *resent* under bounded exponential backoff with jitter --
  ``messages``/``bytes_sent`` on the meter count every attempt, so goodput
  is honest;
* the engine counts the faults, the transport only delivers: each
  attempt's drops, duplicates and damaged copies are read off what came
  back, into a tally of the session's own that the engine's meter
  absorbs when the session ends, finished or aborted, so one session's
  :class:`~repro.replication.history.ExchangeRecord` never counts
  another's traffic, even when a driver interleaves sessions;
* duplicate copies of an already-accepted message are no-ops (positional
  reassembly plus canonical bytes make re-delivery idempotent), and
  reordering is absorbed the same way;
* a frame that fails *lazy* payload decode at merge time costs exactly one
  key one round: the key is skipped and reported as a typed
  :class:`~repro.replication.store.FrameRejected` in the
  :class:`~repro.replication.store.MergeReport`, the rest of the pairwise
  sync proceeds, and the key heals on a later round;
* a *digest* leg lost past the retry budget ends the session untouched,
  every key reported lost like a lost request leg's keys: its outcome
  decides which keys the request leg carries;
* keys whose *response* leg is lost past the retry budget are rolled back
  on **both** sides to their pre-sync state: a half-installed join/fork
  would strand one half of freshly split identifier space, an I2 hazard
  that could manufacture false orderings.  Every session snapshots the
  keys the digest leg left before its request leg, so the same rollback
  also undoes an aborted session (:class:`SessionAbort`);
* a stale-epoch straggler is *upgraded* instead of rejected: epoch bumps
  only happen at common knowledge (:meth:`AntiEntropy.compact_key`), so
  the merge adopts the newer-epoch state wholesale rather than raising
  :class:`~repro.core.errors.EpochMismatch` -- reroot announcements simply
  piggyback on the normal sync legs.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import kernel
from ..core.errors import EncodingError, ReplicationError
from ..core.order import Ordering
from ..core.reroot import reroot_group
from ..kernel.clocks import KernelClock, VersionStampClock
from ..kernel.stream import ClockStream, decode_stream, encode_stream
from .faults import FaultyTransport, RetryPolicy, StuckLeg
from .history import SyncHistory
from .network import NetworkMeter, nearest_rank
from .node import MobileNode, replicas_agree
from .store import DIGEST_BYTES, FrameRejected, KeyState, MergeReport, StoreReplica

__all__ = [
    "RoundReport",
    "RunReport",
    "AntiEntropy",
    "WireSyncEngine",
    "SleepEffect",
    "TransferEffect",
    "SessionAbort",
]
# SyncHistory/ExchangeRecord live in .history; re-exported by the package.


class SessionAbort(Exception):
    """Thrown *into* a running session generator to cancel it cleanly.

    A driver that decides a session must not continue -- the service
    interpreter's deadline enforcement -- calls ``session.throw(SessionAbort())``
    at the suspended wire effect.  Every yield of the session generator
    sits inside a transfer leg, so the abort surfaces at the digest or
    request leg, which have changed nothing yet, or at the response leg,
    where the generator restores both replicas from the session's
    transactional snapshots and re-raises, guaranteeing the aborted
    session left no half-merged key behind (the same I2-hazard
    discipline the response-loss rollback follows).  The session's record
    lists the keys it had not settled as lost to the abort.  The driver
    then reports the abort as a typed
    :class:`~repro.core.errors.SessionTimeout`.
    """


class SleepEffect(NamedTuple):
    """A sans-io wire effect: the session waits out simulated time.

    Emitted by :meth:`WireSyncEngine.session` for retry backoff.  The
    synchronous driver ignores it (the meter already accounts the latency
    as ``retry_latency``); an asynchronous driver sleeps it on the virtual
    clock so backoff shapes the simulation's timeline.
    """

    seconds: float


class TransferEffect(NamedTuple):
    """A sans-io wire effect: one transfer attempt just hit the wire.

    Emitted after the transport computed its deliveries and before the
    receiver validates them -- the point where, on a real network, the
    bytes would be in flight.  An asynchronous driver turns it into a
    link-model delay (latency plus ``nbytes`` over bandwidth) plus
    ``hang``, the virtual seconds a stuck leg hung on this attempt; the
    synchronous driver ignores it, hang included.
    """

    source: str
    destination: str
    messages: int
    nbytes: int
    hang: float = 0.0


@dataclass
class RoundReport:
    """What one gossip round did, in counters and virtual time.

    Both drivers fill it; ``empty_parts``, ``virtual_duration`` and the
    health counters stay zero on the synchronous one.
    """

    number: int
    #: Sessions that ran (the initiator could reach its peer).
    exchanges: int = 0
    #: Initiators that gossiped with nobody: partitioned or crashed.
    skipped: int = 0
    #: Shard parts skipped because the shard spanned no keys for the pair.
    empty_parts: int = 0
    #: Merge outcome folded over every session of the round.
    merge: MergeReport = field(default_factory=MergeReport)
    #: Wire traffic of the round, compaction sweeps included.
    messages: int = 0
    bytes_sent: int = 0
    #: Fault economy of the round (all zero on a perfect transport).
    dropped: int = 0
    duplicated: int = 0
    retried: int = 0
    corrupted: int = 0
    retry_latency: float = 0.0
    #: Accepted payload bytes over sent bytes for this round's traffic.
    goodput: float = 0.0
    #: Virtual seconds the round occupied (longest chain in overlap mode).
    virtual_duration: float = 0.0
    #: Whether every live replica agreed after this round (set by ``run``).
    converged: bool = False
    #: Sessions aborted at their adaptive deadline (health layer on).
    timeouts: int = 0
    #: Sessions refused by an open per-peer circuit breaker.
    breaker_skips: int = 0
    #: Hedged (backup-peer) sessions launched after a primary timeout.
    hedges: int = 0


@dataclass
class RunReport:
    """Summary of one ``run()`` of either gossip driver, and only of it."""

    replicas: int
    rounds: List[RoundReport]
    #: First round after which the cluster was converged (None: never).
    converged_after: Optional[int]
    shards: int = 1
    #: Virtual seconds the run took (0.0 for the immediate-time driver).
    virtual_seconds: float = 0.0
    #: Aggregate health counters (``HealthMonitor.counters()``) captured
    #: when the run finished; ``None`` when the health layer was off.
    health: Optional[Dict[str, int]] = None
    #: Virtual seconds of every transfer leg the run priced, in order
    #: (empty for the immediate-time driver, which prices none).
    leg_latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def total_exchanges(self) -> int:
        return sum(r.exchanges for r in self.rounds)

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_sent for r in self.rounds)

    @property
    def total_timeouts(self) -> int:
        return sum(r.timeouts for r in self.rounds)

    @property
    def total_breaker_skips(self) -> int:
        return sum(r.breaker_skips for r in self.rounds)

    @property
    def total_hedges(self) -> int:
        return sum(r.hedges for r in self.rounds)

    def bytes_per_key(self, key_count: int) -> float:
        """Payload bytes spent per logical key over the whole run."""
        return self.total_bytes / max(1, key_count)

    def bytes_per_key_per_replica(self, key_count: int) -> float:
        """Payload bytes per key per replica -- the scale-honest cost."""
        return self.total_bytes / (max(1, key_count) * max(1, self.replicas))

    def round_duration_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Dict[float, float]:
        """Nearest-rank percentiles of per-round virtual durations."""
        return nearest_rank([r.virtual_duration for r in self.rounds], quantiles)

    def session_latency_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Dict[float, float]:
        """Nearest-rank tail latency of this run's transfer legs."""
        return nearest_rank(self.leg_latencies, quantiles)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable view of the whole run (``--json`` output).

        Everything a dashboard or regression script needs: totals, the
        fault economy summed over the run's rounds, every field of each
        round's report, tail percentiles and -- when the health layer
        ran -- its aggregate counters.
        """
        return {
            "replicas": self.replicas,
            "shards": self.shards,
            "converged_after": self.converged_after,
            "virtual_seconds": self.virtual_seconds,
            "totals": {
                "exchanges": self.total_exchanges,
                "messages": self.total_messages,
                "bytes_sent": self.total_bytes,
                "timeouts": self.total_timeouts,
                "breaker_skips": self.total_breaker_skips,
                "hedges": self.total_hedges,
            },
            "faults": {
                name: sum(getattr(r, name) for r in self.rounds)
                for name in (
                    "dropped", "duplicated", "retried", "corrupted", "retry_latency"
                )
            },
            "round_duration_percentiles": {
                str(q): v for q, v in self.round_duration_percentiles().items()
            },
            "session_latency_percentiles": {
                str(q): v for q, v in self.session_latency_percentiles().items()
            },
            "health": self.health,
            "rounds": [asdict(r) for r in self.rounds],
        }


class WireSyncEngine:
    """Pairwise store synchronization over the kernel wire formats.

    Every leg ships one envelope stream per (family, epoch) group and
    direction, decoded lazily frame by frame.

    Parameters
    ----------
    meter:
        The :class:`~repro.replication.network.NetworkMeter` that absorbs
        every session's tally of messages, bytes and fault counters; a
        fresh one is created when omitted.
    transport:
        Optional :class:`~repro.replication.faults.FaultyTransport`; when
        given, every transfer leg is delivered through its fault plan and
        retried under ``retry``.  Without it the wire is perfect (the
        pre-fault behaviour, bit for bit).
    retry:
        The :class:`~repro.replication.faults.RetryPolicy` used with a
        transport; defaults to a fresh policy.
    verify_checksums:
        Whether transport messages carry a CRC32 end-to-end check (the
        simulated analogue of a datagram checksum).  Disable only to
        deliberately let damaged frames reach the decode layer, e.g. to
        exercise the skip-and-report path.
    retry_seed:
        Seed of the jitter RNG, so retry schedules are reproducible.
    history:
        Optional :class:`~repro.replication.history.SyncHistory` -- a
        bounded ring buffer that receives one
        :class:`~repro.replication.history.ExchangeRecord` per session,
        finished or aborted (which keys completed, which were lost and
        why, the session's own tally).  This is what contract
        provenance reconstruction walks; without it the engine keeps the
        pre-existing transient reporting only.

    Each key merges through :meth:`StoreReplica._merge_key_states`.
    Values move by reference -- this is a simulation -- but every piece
    of *causal metadata* a sync transfers crosses the codec boundary as
    real bytes, in both directions.

    Only stores whose keys hold kernel clocks can sync over the wire (the
    dynamic-VV baseline has no byte form); anything else raises
    :class:`~repro.core.errors.ReplicationError`.
    """

    def __init__(
        self,
        *,
        meter: Optional[NetworkMeter] = None,
        transport: Optional[FaultyTransport] = None,
        retry: Optional[RetryPolicy] = None,
        verify_checksums: bool = True,
        retry_seed: int = 0x5EED,
        history: Optional[SyncHistory] = None,
    ) -> None:
        self.meter = meter if meter is not None else NetworkMeter()
        #: Always ``None``: the digest leg left the stream intern table
        #: this held too little to do (the version-stamp and ITC codecs
        #: intern payloads themselves).  ``perfbench/tracing.py`` still
        #: reads it.
        self.intern = None
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self.verify_checksums = verify_checksums
        self.history = history
        self._retry_rng = random.Random(retry_seed)
        #: Stamps that crossed the wire (both directions, all syncs).
        self.stamps_shipped = 0
        #: Keys settled by the digest leg (equal digests, nothing shipped).
        self.equal_bytes_skips = 0
        #: Always 0: the digest leg replaced the EQUAL verdict cache this
        #: counted.  ``perfbench/tracing.py`` still reads it.
        self.equal_cache_hits = 0
        #: Frames skipped via the typed FrameRejected path (all syncs).
        self.frames_rejected = 0
        #: Stale-epoch stragglers fiat-upgraded during merges (all syncs).
        self.epoch_upgrades = 0

    _CRC_BYTES = 4

    @property
    def deliveries_failed(self) -> int:
        """Messages given up on after exhausting the retry budget (the meter's)."""
        return self.meter.deliveries_failed

    @staticmethod
    def _clock_of(store: StoreReplica, key: str, state: KeyState) -> KernelClock:
        tracker = state.tracker
        if not isinstance(tracker, KernelClock):
            raise ReplicationError(
                f"wire sync needs kernel clock trackers; key {key!r} on "
                f"replica {store.name!r} is tracked by "
                f"{type(tracker).__name__}"
            )
        return tracker

    # -- faulty delivery ---------------------------------------------------

    def _seal(self, blob: bytes) -> bytes:
        """Prepend the transport checksum (a simulated datagram CRC)."""
        if not self.verify_checksums:
            return blob
        return (zlib.crc32(blob) & 0xFFFFFFFF).to_bytes(self._CRC_BYTES, "big") + blob

    def _unseal(self, payload) -> bytes:
        """Verify and strip the transport checksum of one delivered copy."""
        if not self.verify_checksums:
            return bytes(payload)
        if len(payload) < self._CRC_BYTES:
            raise EncodingError("transport frame shorter than its checksum")
        expected = int.from_bytes(payload[: self._CRC_BYTES], "big")
        body = bytes(payload[self._CRC_BYTES :])
        if (zlib.crc32(body) & 0xFFFFFFFF) != expected:
            raise EncodingError("transport frame failed its checksum")
        return body

    def _deliver_batch(
        self,
        tally: NetworkMeter,
        source: str,
        destination: str,
        blobs: Sequence[bytes],
        validate: Callable[[int, bytes], object],
    ):
        """Send ``blobs`` through the transport, retrying failed messages.

        A sans-io generator: it yields :class:`SleepEffect` (retry
        backoff) and :class:`TransferEffect` (an attempt on the wire) and
        *returns* ``blob index -> validated result`` via ``StopIteration``.
        The synchronous driver exhausts it ignoring every effect; the
        service interpreter waits out the effects on the virtual clock -- either
        way the computation, RNG draws and counts are the same
        code in the same order, which is what makes the two paths
        lockstep-equal on identical schedules.

        Every count lands in ``tally``, the session's own.  The faults of
        each attempt are read off its deliveries: a message with no copy
        back was dropped, copies after the first are duplicates, and a
        copy whose bytes differ from what was sent was corrupted.

        An index missing from the result exhausted the retry budget (lost
        or damaged on every attempt) and the caller degrades without it.
        ``validate`` is the eager acceptance check: checksum-stripped
        payloads it rejects with a typed :class:`EncodingError` count as
        not delivered and are retried.  Duplicate copies of an
        already-accepted message are discarded (idempotent re-delivery);
        reordering is absorbed by the positional index riding with each
        copy.
        """
        results: Dict[int, object] = {}
        if self.transport is None:
            nbytes = sum(map(len, blobs))
            tally.messages += len(blobs)
            tally.bytes_sent += nbytes
            if blobs:
                yield TransferEffect(source, destination, len(blobs), nbytes)
            tally.bytes_delivered += nbytes
            for index, blob in enumerate(blobs):
                results[index] = validate(index, blob)
            return results
        policy = self.retry
        sealed = [self._seal(blob) for blob in blobs]
        pending = list(range(len(blobs)))
        for attempt in range(1, policy.attempts + 1):
            if not pending:
                break
            if attempt > 1:
                latency = sum(
                    policy.delay(attempt - 1, self._retry_rng) for _ in pending
                )
                tally.retried += len(pending)
                tally.retry_latency += latency
                yield SleepEffect(latency)
            sent = [sealed[index] for index in pending]
            nbytes = sum(map(len, sent))
            tally.messages += len(sent)
            tally.bytes_sent += nbytes
            deliveries = self.transport.transfer_batch(source, destination, sent)
            # The attempt's faults, counted before its effect: an abort
            # thrown there does not unsend what the transport did.
            copies = [0] * len(sent)
            for position, payload in deliveries:
                copies[position] += 1
                if payload != sent[position]:
                    tally.corrupted += 1
            lost = copies.count(0)
            tally.dropped += lost
            # Every copy beyond the first of each message that arrived.
            tally.duplicated += len(deliveries) - (len(sent) - lost)
            hang = deliveries.hang if isinstance(deliveries, StuckLeg) else 0.0
            yield TransferEffect(source, destination, len(sent), nbytes, hang)
            for position, payload in deliveries:
                index = pending[position]
                if index in results:
                    # An extra copy of a message we already accepted:
                    # re-delivery is a no-op by construction.
                    continue
                try:
                    body = self._unseal(payload)
                    results[index] = validate(index, body)
                except EncodingError:
                    # Damaged in flight; a later attempt may succeed.
                    continue
                tally.bytes_delivered += len(payload)
            pending = [index for index in pending if index not in results]
        tally.deliveries_failed += len(pending)
        return results

    def _ship(
        self,
        tally: NetworkMeter,
        sender: StoreReplica,
        receiver: StoreReplica,
        items: List[Tuple[str, KeyState]],
    ):
        """Transfer the trackers of ``items`` from sender to receiver.

        A sans-io generator (effects as in :meth:`_deliver_batch`) whose
        *return value* is ``key -> (stream, index)`` on the receiving side:
        the key's clock is frame ``index`` of a delivered
        :class:`~repro.kernel.stream.ClockStream`, decoded lazily when the
        merge reads it.  One stream per (family, epoch) group; ``tally``
        counts every message and attempt.  Keys whose message exhausted the
        transport retry budget are simply absent from the result -- the
        caller skips them and a later round heals the difference.
        """
        self.stamps_shipped += len(items)
        received: Dict[str, Tuple[ClockStream, int]] = {}
        groups: Dict[Tuple[str, int], List[Tuple[str, object]]] = {}
        for key, state in items:
            clock = self._clock_of(sender, key, state)
            groups.setdefault((clock.family, clock.epoch), []).append((key, clock))
        ordered = list(groups.items())
        blobs = [
            encode_stream(
                [clock for _, clock in members],
                family_name=family_name,
                epoch=epoch,
            )
            for (family_name, epoch), members in ordered
        ]

        def validate_stream(index: int, body: bytes):
            (family_name, epoch), members = ordered[index]
            stream = decode_stream(memoryview(body))
            # The session's control data (which keys, which group) rides a
            # reliable out-of-band channel; a delivered stream must match
            # its announcement, or bits were flipped in the header.
            if (stream.family, stream.epoch, len(stream)) != (
                family_name,
                epoch,
                len(members),
            ):
                raise EncodingError(
                    f"stream header does not match its announced group "
                    f"({family_name!r}, epoch {epoch}, {len(members)} frames)"
                )
            return stream

        results = yield from self._deliver_batch(
            tally, sender.name, receiver.name, blobs, validate_stream
        )
        for index, (_, members) in enumerate(ordered):
            stream = results.get(index)
            if stream is None:
                continue
            for frame_index, (key, _) in enumerate(members):
                received[key] = (stream, frame_index)
        return received

    # -- per-key transactionality ------------------------------------------

    @staticmethod
    def _snapshot(state: Optional[KeyState]):
        if state is None:
            return None
        return (list(state.values), state.tracker, state.independently_created)

    @staticmethod
    def _restore(store: StoreReplica, key: str, snap) -> None:
        if snap is None:
            store._keys.pop(key, None)
        else:
            values, tracker, independent = snap
            store._keys[key] = KeyState(
                values=list(values),
                tracker=tracker,
                independently_created=independent,
            )

    @staticmethod
    def _reject(
        report: MergeReport,
        key: str,
        stream: ClockStream,
        stage: str,
        error: Exception,
    ) -> None:
        report.frames_rejected.append(
            FrameRejected(
                key=key,
                family=stream.family,
                epoch=stream.epoch,
                stage=stage,
                reason=str(error),
            )
        )

    def sync(
        self,
        first: StoreReplica,
        second: StoreReplica,
        *,
        keys: Optional[Iterable[str]] = None,
    ) -> MergeReport:
        """Two-way reconciliation of ``first`` and ``second`` over the wire.

        :meth:`StoreReplica.sync_with` is this call on a fresh engine.
        Causally EQUAL keys keep their trackers (metadata stability) and
        all causal metadata round-trips the codec.  Under a faulty
        transport the sync is *per-key transactional*: a key whose frames
        are lost or damaged past the retry budget is either skipped
        untouched (digest or request leg) or rolled back on both sides
        (response leg); every other key of the pairwise sync completes
        normally.

        ``keys`` restricts the exchange to the named subset -- the
        sharding hook: every key's merge is independent of every other
        key's, so syncing each shard of the key space separately (in any
        interleaving that keeps one shard's syncs ordered) produces
        exactly the state of one unrestricted sync.  The datacenter-scale
        service uses this to parallelize one logical exchange across
        shards.

        This is the synchronous driver of :meth:`session`: it runs the
        identical sans-io generator, ignoring the wire-timing effects.
        """
        session = self.session(first, second, keys=keys)
        while True:
            try:
                next(session)
            except StopIteration as stop:
                return stop.value

    def session(
        self,
        first: StoreReplica,
        second: StoreReplica,
        *,
        keys: Optional[Iterable[str]] = None,
    ):
        """The sans-io pairwise sync: a generator of wire effects.

        Yields :class:`SleepEffect` and :class:`TransferEffect` at every
        point where a real network would spend time, and returns the
        :class:`~repro.replication.store.MergeReport` via
        ``StopIteration.value``.  All state mutation, RNG consumption and
        counting happen *inside* the generator, so any driver -- the
        synchronous :meth:`sync`, the virtual-time service -- produces
        identical merges, fault schedules and counters for the same call
        sequence; drivers differ only in what they do with the effects.
        The session counts its traffic on a tally of its own, which the
        engine's :attr:`meter` absorbs when the session ends.

        The session runs three legs (module docstring): a digest leg
        from ``first`` settles the keys whose digests match, and the
        request and response legs run over the rest only.  Settled keys
        count in ``keys_examined`` and in :attr:`equal_bytes_skips`, and
        the sync history lists them as synced.  The 128-bit digests bound
        the chance that a collision settles a key that differs by
        n * 2^-128 over n key comparisons; such a key changes on neither
        side, and the next session whose digests differ repairs it.  A
        digest leg lost past the retry budget ends the session with every
        key left untouched and reported ``request-lost``.

        Any session may be cancelled by ``throw(SessionAbort())`` at any
        yielded effect, and both replicas are left in their pre-session
        state when the abort propagates.  An abort at the digest or
        request leg finds nothing changed yet; one at the response leg
        restores the transactional snapshots the session took of the
        keys the digest leg left.  An aborted session still leaves its
        record and its tally: keys its digests settled count as synced,
        and every other key is lost as ``"aborted"``.
        """
        if first is second:
            raise ReplicationError("a store replica cannot synchronize with itself")
        report = MergeReport()
        tally = NetworkMeter()
        spanned = set(first._keys) | set(second._keys)
        if keys is not None:
            spanned &= set(keys)
        keys = sorted(spanned)
        settled = lost = None
        try:
            # Digest leg.  Nothing has changed yet, so an abort thrown at
            # one of its effects leaves nothing to restore.
            settled = yield from self._digest_leg(tally, first, second, keys)
            if settled is None:
                # Lost past the retry budget, like a lost request leg:
                # every key stays untouched until a later round.
                pending: List[str] = []
                request_lost = keys
            else:
                pending = [key for key in keys if key not in settled]
                request_lost = []
                self.equal_bytes_skips += len(settled)
            report.keys_examined += len(keys) - len(pending)
            changed: List[str] = []
            rolled_back = set()
            if pending:
                first._exchanges_open += 1
                second._exchanges_open += 1
                try:
                    changed, request_lost, rolled_back = yield from self._exchange(
                        tally, first, second, pending, report
                    )
                finally:
                    first._exchanges_open -= 1
                    second._exchanges_open -= 1
            # Rolled-back keys are byte-identical to their already journaled
            # pre-sync state, so the barrier journals only completed changes.
            # A crash mid-sync thus recovers to the pre-sync state -- exactly
            # what the per-key rollback would have produced.
            first._commit_sync(
                second, (key for key in changed if key not in rolled_back)
            )
            self.frames_rejected += len(report.frames_rejected)
            self.epoch_upgrades += report.epoch_upgrades
            if self.history is not None:
                lost = [(key, "request-lost") for key in request_lost]
                lost.extend((key, "response-lost") for key in sorted(rolled_back))
                lost.extend(
                    (frame.key, f"rejected:{frame.stage}: {frame.reason}")
                    for frame in report.frames_rejected
                )
        except SessionAbort:
            if self.history is not None:
                # Both replicas are as they were before the session, so
                # every key the digests did not settle is lost to the abort.
                kept = settled or ()
                lost = [(key, "aborted") for key in keys if key not in kept]
            raise
        finally:
            self.meter.absorb(tally)
            if lost is not None:
                # One ExchangeRecord per session: which keys completed
                # (both sides now share the combined knowledge), which
                # were lost and why, and the session's own tally -- the
                # raw material contract provenance reconstruction walks.
                lost_keys = {key for key, _ in lost}
                self.history.append(
                    first=first.name,
                    second=second.name,
                    keys_synced=tuple(key for key in keys if key not in lost_keys),
                    keys_lost=tuple(lost),
                    messages=tally.messages,
                    bytes_sent=tally.bytes_sent,
                    dropped=tally.dropped,
                    duplicated=tally.duplicated,
                    retried=tally.retried,
                    corrupted=tally.corrupted,
                    deliveries_failed=tally.deliveries_failed,
                )
        return report

    def _digest_leg(
        self,
        tally: NetworkMeter,
        first: StoreReplica,
        second: StoreReplica,
        keys: List[str],
    ):
        """Ship ``first``'s key digests to ``second``; return the keys they settle.

        A sans-io generator (effects as in :meth:`_deliver_batch`).  The
        leg covers every key of ``keys`` that both sides hold with kernel
        clocks and that neither side created independently.  ``first``
        ships each such key's :meth:`~repro.replication.store.KeyState.
        digest` as one message, 16 bytes per key in key order; the key
        list rides the session's out-of-band control data.  The return
        value is the set of keys whose digests match ``second``'s own, or
        ``None`` when the message was lost past the retry budget.  When
        no key qualifies, nothing is sent and nothing settles.
        """
        first_keys, second_keys = first._keys, second._keys
        shared: List[Tuple[str, KeyState]] = []
        digests: List[bytes] = []
        for key in keys:
            mine = first_keys.get(key)
            theirs = second_keys.get(key)
            if (
                mine is not None
                and theirs is not None
                and not (mine.independently_created or theirs.independently_created)
                and isinstance(mine.tracker, KernelClock)
                and isinstance(theirs.tracker, KernelClock)
            ):
                shared.append((key, theirs))
                digests.append(mine.digest())
        if not shared:
            return set()
        blob = b"".join(digests)

        def validate_digests(index: int, body: bytes) -> bytes:
            if len(body) != len(blob):
                raise EncodingError(
                    f"digest leg carries {len(body)} bytes, not the "
                    f"{len(blob)} its {len(shared)} announced keys take"
                )
            return body

        delivered = yield from self._deliver_batch(
            tally, first.name, second.name, [blob], validate_digests
        )
        body = delivered.get(0)
        if body is None:
            return None
        return {
            key
            for offset, (key, theirs) in zip(range(0, len(body), DIGEST_BYTES), shared)
            if body[offset : offset + DIGEST_BYTES] == theirs.digest()
        }

    def _exchange(
        self,
        tally: NetworkMeter,
        first: StoreReplica,
        second: StoreReplica,
        keys: List[str],
        report: MergeReport,
    ):
        """The request and response legs over the keys the digests left.

        A sans-io generator (effects as in :meth:`_deliver_batch`) that
        merges into ``report`` and returns ``(changed, request_lost,
        rolled_back)``: the keys whose merged trackers shipped back, the
        keys whose request leg was lost, and the changed keys rolled back
        on both sides because their response leg was lost.
        """
        backup = {
            key: (
                self._snapshot(first._keys.get(key)),
                self._snapshot(second._keys.get(key)),
            )
            for key in keys
        }

        # Request leg: second ships everything it holds to first.  An
        # abort thrown at one of this leg's effects arrives before any
        # merge ran, so it has nothing to restore.
        held = [(key, second._keys[key]) for key in keys if key in second._keys]
        received = yield from self._ship(tally, second, first, held)

        changed: List[str] = []
        request_lost: List[str] = []
        for key in keys:
            mine = first._keys.get(key)
            theirs = second._keys.get(key)
            report.keys_examined += 1
            if theirs is None:
                # Replicate first -> second: fork the holder's tracker; the
                # remote half rides the response leg to its new home.
                local, remote = mine.tracker.fork()
                mine.tracker = local
                second._keys[key] = KeyState(values=list(mine.values), tracker=remote)
                mine.independently_created = False
                report.keys_replicated += 1
                report.values_taken += len(mine.values)
                changed.append(key)
                continue
            if key not in received:
                # The request-leg message carrying this key never made it
                # past the retry budget: leave both sides untouched and
                # let a later round heal the difference.
                request_lost.append(key)
                continue
            stream, index = received[key]
            try:
                remote_clock = stream[index]
            except EncodingError as error:
                # One damaged frame costs this key this round, nothing
                # more: the group's other frames and the sync's other
                # keys proceed.
                self._reject(report, key, stream, "request", error)
                continue
            if mine is None:
                # Replicate second -> first from the decoded wire copy.
                local, remote = remote_clock.fork()
                theirs.tracker = local
                first._keys[key] = KeyState(values=list(theirs.values), tracker=remote)
                theirs.independently_created = False
                report.keys_replicated += 1
                report.values_taken += len(theirs.values)
                changed.append(key)
                continue
            theirs.tracker = remote_clock
            first._merge_key_states(mine, theirs, report)
            if theirs.tracker is not remote_clock:
                changed.append(key)

        # Response leg: only second-side trackers that changed go back.
        # An abort here lands after the merge mutated both sides: restore
        # every snapshotted key so the cancelled session is a no-op (no
        # journal record has been written yet -- journaling happens after
        # this leg completes -- so a crash-after-abort recovers cleanly).
        try:
            returned = yield from self._ship(
                tally, first, second, [(key, second._keys[key]) for key in changed]
            )
        except SessionAbort:
            for key, (mine_snap, theirs_snap) in backup.items():
                self._restore(first, key, mine_snap)
                self._restore(second, key, theirs_snap)
            raise
        rolled_back = set()
        for key in changed:
            entry = returned.get(key)
            if entry is not None:
                stream, index = entry
                try:
                    second._keys[key].tracker = stream[index]
                    continue
                except EncodingError as error:
                    self._reject(report, key, stream, "response", error)
            # The response leg for this key was lost or damaged past the
            # retry budget.  Roll BOTH sides back to their pre-sync state:
            # completing only one half of a join/fork would strand freshly
            # split identifier space across an unfinished exchange (an I2
            # hazard that can manufacture false orderings later).
            mine_snap, theirs_snap = backup[key]
            self._restore(first, key, mine_snap)
            self._restore(second, key, theirs_snap)
            rolled_back.add(key)
        return changed, request_lost, rolled_back


class AntiEntropy:
    """Round-based gossip reconciliation over a node population.

    Every pairwise exchange runs on ``engine``, a :class:`WireSyncEngine`
    (a fresh one when omitted), so each :class:`RoundReport` carries the
    round's real message, byte and fault counts.  Pass an engine to choose
    a faulty transport or a sync history.

    This is the one gossip driver, running rounds in immediate time;
    :class:`~repro.service.cluster.AntiEntropyService` is the subclass
    that runs them on a virtual clock.

    With ``compact_threshold_bits`` set, every round ends with a
    decentralized re-rooting sweep: any key whose causal metadata exceeds
    the threshold on some holder is compacted via :meth:`compact_key` --
    the epoch-gossip protocol that replaces the frontier-wide synchronous
    re-root of :mod:`repro.core.reroot` for replicated stores.
    """

    def __init__(
        self,
        nodes: Sequence[MobileNode],
        *,
        rng: Optional[random.Random] = None,
        engine: Optional[WireSyncEngine] = None,
        compact_threshold_bits: Optional[int] = None,
        checker=None,
    ) -> None:
        self.nodes: List[MobileNode] = list(nodes)
        self._rng = rng if rng is not None else random.Random(0)
        self.engine = engine if engine is not None else WireSyncEngine()
        self.compact_threshold_bits = compact_threshold_bits
        #: Optional :class:`~repro.contracts.ContractChecker` scanned at
        #: the end of every round (duck-typed: anything with ``scan()``),
        #: so ordering contracts are evaluated inline with gossip instead
        #: of only at explicit operation boundaries.  A scan reports each
        #: violation when it opens or changes and each heal once.
        self.checker = checker
        #: The report of every round this driver ran, across ``run`` calls.
        self.rounds: List[RoundReport] = []
        #: Successful epoch-bump compactions performed so far.
        self.compactions = 0
        #: Compaction attempts (a verify step may abort one harmlessly).
        self.compaction_attempts = 0

    @property
    def transport(self) -> Optional[FaultyTransport]:
        """The engine's faulty transport, when one is in play."""
        return self.engine.transport

    def add_node(self, node: MobileNode) -> None:
        """Bring a new node into the gossip population."""
        self.nodes.append(node)

    # -- crash / restart ---------------------------------------------------

    def crash(self, node: MobileNode) -> None:
        """Crash-stop ``node``: it stops gossiping and drops off the network."""
        node.crash()
        transport = self.transport
        if transport is not None:
            transport.crash(node.node_id)

    def restart(self, node: MobileNode, *, mode: Optional[str] = None) -> None:
        """Restart ``node`` under the chosen (or the plan's) crash model.

        ``mode`` is ``"rejoin-empty"`` (crash-stop: drop state, re-replicate
        from peers) or ``"recover"`` (crash-recover: rebuild the pre-crash
        state from the node's durable log).  When omitted, the transport's
        :attr:`~repro.replication.faults.FaultPlan.crash_restart` decides,
        defaulting to rejoin-empty.
        """
        transport = self.transport
        if mode is None:
            plan = transport.plan if transport is not None else None
            mode = getattr(plan, "crash_restart", None) or "rejoin-empty"
        node.restart(mode=mode)
        if transport is not None:
            transport.restart(node.node_id)

    # -- rounds ------------------------------------------------------------

    @contextmanager
    def _round(self) -> Iterator[RoundReport]:
        """The round skeleton both drivers share, around a round's body.

        Numbers the round and marks the sync history; after the body,
        records the meter's deltas and goodput, appends the report and
        scans the checker.  A body that raises leaves no report behind.
        """
        report = RoundReport(number=len(self.rounds) + 1)
        engine = self.engine
        if engine.history is not None:
            engine.history.mark_round(report.number)
        meter = engine.meter
        messages, sent = meter.snapshot()
        delivered = meter.bytes_delivered
        dropped, duplicated, retried, corrupted, latency = meter.fault_snapshot()
        yield report
        report.messages = meter.messages - messages
        report.bytes_sent = meter.bytes_sent - sent
        report.dropped = meter.dropped - dropped
        report.duplicated = meter.duplicated - duplicated
        report.retried = meter.retried - retried
        report.corrupted = meter.corrupted - corrupted
        report.retry_latency = meter.retry_latency - latency
        if report.bytes_sent > 0:
            report.goodput = (meter.bytes_delivered - delivered) / report.bytes_sent
        self.rounds.append(report)
        if self.checker is not None:
            self.checker.scan()

    def _schedule_round(self, report: RoundReport) -> List[Tuple[int, int]]:
        """One seeded gossip round: each live node draws a peer it can reach.

        O(N) reachability checks per node, so O(N^2) per round.  A node
        whose live peers are all out of reach counts in ``report.skipped``.
        """
        nodes = self.nodes
        order = list(range(len(nodes)))
        self._rng.shuffle(order)
        live = [index for index, node in enumerate(nodes) if node.alive]
        pairs: List[Tuple[int, int]] = []
        for initiator in order:
            node = nodes[initiator]
            if not node.alive or len(live) < 2:
                continue
            reachable = [
                index
                for index in live
                if index != initiator and node.can_reach(nodes[index])
            ]
            if reachable:
                pairs.append((initiator, self._rng.choice(reachable)))
            else:
                report.skipped += 1
        return pairs

    def _reachable(
        self, report: RoundReport, pairs: Sequence[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """The ``pairs`` that can reach each other; the rest count as skipped."""
        nodes = self.nodes
        ready = [pair for pair in pairs if nodes[pair[0]].can_reach(nodes[pair[1]])]
        report.exchanges += len(ready)
        report.skipped += len(pairs) - len(ready)
        return ready

    def run_round(self) -> RoundReport:
        """Run one gossip round in immediate time.

        Each drawn pair that can reach each other runs one engine session
        in draw order; then, if ``compact_threshold_bits`` is set, so
        does the compaction sweep.
        """
        nodes, sync = self.nodes, self.engine.sync
        with self._round() as report:
            pairs = self._reachable(report, self._schedule_round(report))
            for initiator, peer in pairs:
                report.merge += sync(nodes[initiator].store, nodes[peer].store)
            if self.compact_threshold_bits is not None:
                self._auto_compact()
        return report

    def run(
        self,
        max_rounds: int,
        *,
        until_converged: bool = True,
        advance_network: bool = True,
        on_round: Optional[Callable[[RoundReport], None]] = None,
    ) -> RunReport:
        """Run up to ``max_rounds`` gossip rounds.

        Each round's report records whether every live replica agrees
        after it, and ``until_converged`` stops the run at the first that
        does.  ``advance_network`` steps the network's simulated time
        after every round; ``on_round`` is called with each report.
        """
        rounds = (self.run_round() for _ in range(max_rounds))
        return self._run(rounds, until_converged, advance_network, on_round)

    def _run(
        self,
        played: Iterable[RoundReport],
        until_converged: bool,
        advance_network: bool,
        on_round: Optional[Callable[[RoundReport], None]],
    ) -> RunReport:
        """The loop of :meth:`run`; each item of ``played`` runs one round."""
        rounds: List[RoundReport] = []
        converged_after: Optional[int] = None
        for report in played:
            report.converged = self.converged()
            if report.converged and converged_after is None:
                converged_after = report.number
            rounds.append(report)
            if on_round is not None:
                on_round(report)
            if advance_network and self.nodes:
                self.nodes[0].network.advance()
            if until_converged and report.converged:
                break
        return RunReport(
            replicas=len(self.nodes),
            rounds=rounds,
            converged_after=converged_after,
        )

    # -- decentralized re-rooting (epoch gossip) ---------------------------

    def _auto_compact(self) -> None:
        threshold = self.compact_threshold_bits
        oversized: List[str] = []
        seen: set = set()
        for node in self.nodes:
            if not node.alive:
                continue
            for key in node.store._keys:
                if key in seen:
                    continue
                state = node.store._keys[key]
                if state.tracker.encoded_size_bits() > threshold:
                    oversized.append(key)
                    seen.add(key)
        for key in oversized:
            self.compact_key(key)

    @staticmethod
    def _common_knowledge(
        key: str, holders: Sequence[MobileNode]
    ) -> Optional[List[KeyState]]:
        """The holders' states of ``key`` when they share common knowledge.

        That is: every holder still holds the key with a kernel clock, at
        one shared epoch, with identical sibling values, and every pair of
        trackers compares causally EQUAL.  Returns ``None`` otherwise.
        """
        states = [node.store._keys.get(key) for node in holders]
        if any(
            state is None or not isinstance(state.tracker, KernelClock)
            for state in states
        ):
            return None
        if len({state.tracker.epoch for state in states}) != 1:
            return None
        reference = sorted(repr(value) for value in states[0].values)
        for state in states[1:]:
            if sorted(repr(value) for value in state.values) != reference:
                return None
        trackers = [state.tracker for state in states]
        for i in range(len(trackers)):
            for j in range(i + 1, len(trackers)):
                if trackers[i].compare(trackers[j]) is not Ordering.EQUAL:
                    return None
        return states

    def compact_key(
        self, key: str, *, participants: Optional[Sequence[MobileNode]] = None
    ) -> bool:
        """Compact one key's causal metadata by bumping its epoch.

        The check-sweep-check-bump protocol: the common knowledge of all
        live holders of ``key`` is *verified* -- identical sibling values,
        a single shared epoch, every pair causally EQUAL.  Only when that
        check fails are the holders synchronized through one hub (two
        passes of full-store syncs) and checked again.  When a check
        passes, the epoch is bumped: the version-stamp family re-roots the
        group (:func:`~repro.core.reroot.reroot_group`, the paper's
        Section 7 collection), every other family re-seeds at the new
        epoch and forks the seed into one identity per holder.  Holders
        that already agree are thus re-rooted with no sync at all, and the
        bump always fires on a state checked just before it.
        Verification instead of assumption is what makes the protocol
        safe under faults: a lossy transport can make a sync pass
        silently skip the key, in which case the second check fails and
        the compaction aborts harmlessly (``False``) -- to be retried a
        later round.

        When it runs, the sweep syncs every key of the holders' stores,
        not just ``key``.  With one clock per key and siblings unioned on
        CONCURRENT, merge order can leave two holders with trackers that
        compare EQUAL but different sibling sets; such a key never passes
        the check, so it is never re-rooted and its metadata grows without
        bound.  Syncing the whole store through the hub keeps every key's
        holders converging; in the version-stamp grey soak a key-scoped
        sweep let that state form, and its stamps overflowed the codec's
        16-bit length prefix.

        The bump is sound because everything the old epoch could ever
        discriminate is common knowledge at bump time: older-epoch
        knowledge is causally dominated *by construction*, which is
        exactly the fiat rule the merge's straggler upgrade applies.  A
        holder excluded via ``participants`` is being *asserted* dominated
        by the caller (e.g. a holder known quiescent on this key); the
        default -- all live holders -- never needs that assertion.

        Returns ``True`` when the epoch was bumped.
        """
        nodes = list(participants) if participants is not None else self.nodes
        holders = [
            node
            for node in nodes
            if node.alive and key in node.store._keys
        ]
        if not holders:
            return False
        if not all(
            isinstance(node.store._keys[key].tracker, KernelClock)
            for node in holders
        ):
            # Epoch bumps re-root kernel clocks only; the dynamic-VV
            # baseline is never compacted.
            return False
        for node in holders:
            for other in holders:
                if node is not other and not node.can_reach(other):
                    return False
        self.compaction_attempts += 1
        states = self._common_knowledge(key, holders)
        if states is None:
            hub = holders[0]
            for _sweep in range(2):
                for other in holders[1:]:
                    self.engine.sync(hub.store, other.store)
            states = self._common_knowledge(key, holders)
            if states is None:
                return False
        new_epoch = states[0].tracker.epoch + 1
        clocks = [state.tracker for state in states]
        family_name = clocks[0].family
        if family_name == "version-stamp":
            stamps = reroot_group([clock.stamp for clock in clocks])
            fresh = [VersionStampClock(stamp, epoch=new_epoch) for stamp in stamps]
        else:
            # Everything since the causal past is common knowledge, so a
            # fresh seed carries the same discriminating power; fork it
            # breadth-first into one identity per holder.
            queue = [kernel.make(family_name).with_epoch(new_epoch)]
            while len(queue) < len(states):
                left, right = queue.pop(0).fork()
                queue.extend((left, right))
            fresh = queue
        for node, state, clock in zip(holders, states, fresh):
            state.tracker = clock
            state.independently_created = False
            store = node.store
            if store.journal is not None:
                # Journal the compact post-bump state.  The barrier's one
                # snapshot policy drops the old epoch's records with the
                # rest of the tail; replay skips any it still finds.
                store._record(key)
                store._flush_journal()
        self.compactions += 1
        return True

    # -- convergence checks ------------------------------------------------------

    def converged(self, keys: Optional[Iterable[str]] = None) -> bool:
        """True when every live node holds the same siblings for every key."""
        return replicas_agree(self.nodes, keys)

    def total_conflicts(self) -> int:
        """Total conflicts detected across all rounds so far."""
        return sum(report.merge.conflicts_detected for report in self.rounds)

    def total_metadata_bits(self) -> int:
        """Total causal-metadata footprint across the node population."""
        return sum(node.store.metadata_size_in_bits() for node in self.nodes)
