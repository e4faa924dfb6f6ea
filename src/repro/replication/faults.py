"""Composable fault injection for the anti-entropy wire path.

The paper's target environment -- ad-hoc networks where "partitioned
operation is the common mode of operation" -- does not merely partition:
it loses, duplicates, reorders and damages messages, and whole replicas
crash and come back.  This module makes that environment injectable so the
sync stack can be *proven* to degrade gracefully instead of assuming a
perfect transport:

* :class:`FaultPlan` -- a declarative, seeded description of the fault
  matrix (loss rate, scheduled outage windows, duplication, reordering,
  single/multi-bit corruption);
* :class:`FaultyTransport` -- wraps any
  :class:`~repro.replication.network.SimulatedNetwork` and delivers sync
  payloads through the plan; it also tracks crashed replicas, so a
  crashed node is unreachable exactly like a partitioned one;
* :class:`RetryPolicy` -- the sender-side answer: per-transfer timeout
  expressed as a bounded number of attempts, with exponential backoff and
  seeded jitter, all in *simulated* latency (no real sleeping) so soak
  tests stay fast and deterministic.

The engine/transport contract
-----------------------------
:class:`~repro.replication.synchronizer.WireSyncEngine` hands the
transport one batch of wire blobs per sync leg via
:meth:`FaultyTransport.transfer_batch` and receives back a list of
``(index, payload)`` deliveries: an index can be missing (lost), appear
several times (duplicated), arrive out of order (reordered), and its
payload can differ from what was sent (corrupted).  The engine retries
missing or transport-damaged indices under its :class:`RetryPolicy`; what
still fails after the last attempt is skipped and reported per key
(``FrameRejected`` entries in the ``MergeReport``), never raised -- one
bad frame can cost one key one round, not the whole pairwise sync.

Faults operate on whole sync-leg messages and on frames *within* one
pairwise session.  Cross-session replay is modelled at the session level
(running the identical sync again, which the engine's idempotent merge
absorbs) rather than by re-injecting stale blobs into a later session:
anti-entropy legs are positional (keys travel out of band), so a
datagram-level replay across sessions is a different protocol's failure
mode, not this one's.  The fault matrix in the README spells this out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import FaultInjectionError
from .degradation import DegradationPlan, DegradationState
from .network import NetworkMeter, SimulatedNetwork

__all__ = [
    "FaultPlan",
    "FaultyTransport",
    "RetryPolicy",
]


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{name} must be within [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of what the transport does to messages.

    All rates are per-message probabilities in ``[0, 1]``; everything is
    driven by the transport's seeded RNG, so a plan plus a seed is a fully
    reproducible chaos schedule.

    Attributes
    ----------
    loss:
        Probability that a message is dropped outright.
    duplicate:
        Probability that a delivered message arrives a second time
        (``max_duplicates`` bounds how many extra copies one message can
        spawn).
    reorder:
        Probability that a *batch* of messages is delivered in a shuffled
        order rather than send order.
    corrupt:
        Probability that a delivered copy has ``corrupt_bits`` random bits
        flipped somewhere in its payload.
    corrupt_bits:
        How many bit flips one corruption event applies (1 = the classic
        single-bit error; >1 exercises multi-bit damage).
    outages:
        Scheduled total-loss windows: ``(start, end)`` pairs in transfer
        counts -- while ``start <= transfers_so_far < end`` every message
        is dropped.  This is the scripted analogue of a radio blackout,
        independent of the probabilistic ``loss`` rate.
    degradation:
        Optional grey-failure plan
        (:class:`~repro.replication.degradation.DegradationPlan`): nodes
        that are alive but slow, stuck or flapping.  The transport only
        executes the plan's one state-affecting mode (stuck-session
        hangs, which lose the hung leg's deliveries); the timing-only
        shaping is applied by whoever drives the session's effects, so
        the fault RNG stream stays byte-identical with degradation on or
        off.
    crash_restart:
        Which crash model a restarted replica follows when the caller
        does not choose one explicitly: ``"rejoin-empty"`` (crash-stop,
        the default -- drop state, re-replicate from peers) or
        ``"recover"`` (crash-recover -- rebuild the pre-crash state from
        the node's durable log, possibly returning as an epoch straggler
        for the epoch gossip to upgrade).  The transport itself only
        gates connectivity; this knob rides the plan so one
        ``(plan, seed)`` pair fully describes a chaos schedule,
        recovery semantics included.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    corrupt_bits: int = 1
    max_duplicates: int = 1
    outages: Tuple[Tuple[int, int], ...] = ()
    degradation: Optional[DegradationPlan] = None
    crash_restart: str = "rejoin-empty"

    #: The crash models a restarted replica can follow.
    RESTART_MODES = ("rejoin-empty", "recover")

    def __post_init__(self) -> None:
        _check_rate("loss", self.loss)
        _check_rate("duplicate", self.duplicate)
        _check_rate("reorder", self.reorder)
        _check_rate("corrupt", self.corrupt)
        if self.corrupt_bits < 1:
            raise FaultInjectionError(
                f"corrupt_bits must be at least 1, got {self.corrupt_bits}"
            )
        if self.max_duplicates < 1:
            raise FaultInjectionError(
                f"max_duplicates must be at least 1, got {self.max_duplicates}"
            )
        for window in self.outages:
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise FaultInjectionError(
                    f"outage windows are (start, end) with 0 <= start < end, "
                    f"got {window!r}"
                )
        if self.crash_restart not in self.RESTART_MODES:
            raise FaultInjectionError(
                f"crash_restart must be one of {self.RESTART_MODES}, "
                f"got {self.crash_restart!r}"
            )

    @classmethod
    def perfect(cls) -> "FaultPlan":
        """The no-fault plan (useful as a baseline arm in benchmarks)."""
        return cls()

    @classmethod
    def lossy(cls, loss: float) -> "FaultPlan":
        """A plan with loss only (the classic lossy-datagram model)."""
        return cls(loss=loss)

    @classmethod
    def chaos(
        cls,
        *,
        loss: float = 0.1,
        crash_restart: str = "rejoin-empty",
    ) -> "FaultPlan":
        """A kitchen-sink plan used by the chaos soaks."""
        return cls(
            loss=loss,
            duplicate=0.08,
            reorder=0.25,
            corrupt=0.03,
            corrupt_bits=1,
            max_duplicates=2,
            crash_restart=crash_restart,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter, in simulated time.

    ``attempts`` is the per-transfer timeout expressed as a retry budget:
    the first send plus at most ``attempts - 1`` resends.  The delay
    before resend ``k`` (1-based) is::

        min(max_delay, base * factor**(k-1)) * (1 + jitter * u),  u ~ U[0,1)

    accumulated into :attr:`NetworkMeter.retry_latency` -- no real clock
    is involved, so chaos soaks run at full speed while still reporting
    honest retry-latency totals.
    """

    attempts: int = 4
    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise FaultInjectionError(
                f"a retry policy needs at least 1 attempt, got {self.attempts}"
            )
        if self.base < 0 or self.max_delay < 0 or self.factor < 1 or self.jitter < 0:
            raise FaultInjectionError(
                "retry policy needs base/max_delay/jitter >= 0 and factor >= 1"
            )

    def delay(self, retry_number: int, rng: random.Random) -> float:
        """Simulated backoff before the given resend (1-based)."""
        raw = min(self.max_delay, self.base * self.factor ** (retry_number - 1))
        return raw * (1.0 + self.jitter * rng.random())


class FaultyTransport:
    """A fault-injecting delivery layer over a simulated network.

    Wraps a :class:`~repro.replication.network.SimulatedNetwork` (whose
    connectivity verdicts it honours and augments with crash state) and
    delivers wire blobs through a :class:`FaultPlan`.  All randomness
    comes from one seeded RNG, so a ``(plan, seed)`` pair replays the
    exact same fault schedule.

    Crash/restart: :meth:`crash` freezes a replica out of the network
    (every message to or from it is dropped and counted); :meth:`restart`
    brings it back.  The store-level recovery semantics (rejoin empty and
    re-replicate) live with the node, not here -- the transport only
    answers "can bytes flow".
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        *,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        meter: Optional[NetworkMeter] = None,
    ) -> None:
        self.network = network
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = random.Random(seed)
        #: Retained so :meth:`ensure_degradation` can derive the grey RNG
        #: stream (seed XOR salt) without touching the fault RNG above.
        self.seed = seed
        #: Meter receiving drop/duplicate/corrupt ground truth; the wire
        #: sync engine points this at its own meter when it adopts the
        #: transport, so one object carries the whole fault economy.
        self.meter = meter
        self._crashed: Set[str] = set()
        #: Total transfer attempts seen (the clock outage windows run on).
        self.transfers = 0
        #: The plan's grey modes resolved over a node population (see
        #: :meth:`ensure_degradation`); ``None`` until resolved.
        self.degradation: Optional[DegradationState] = None
        #: Virtual seconds of stuck-session hang charged by the last
        #: transfer, stashed for the effect driver to sleep off.
        self._pending_hang = 0.0

    # -- connectivity (SimulatedNetwork-compatible surface) ---------------

    def can_communicate(self, first: str, second: str) -> bool:
        """Network connectivity, minus crashed endpoints."""
        if first in self._crashed or second in self._crashed:
            return False
        return self.network.can_communicate(first, second)

    def reachable_from(self, node: str, nodes: Iterable[str]) -> Set[str]:
        """The subset of ``nodes`` reachable from ``node`` right now."""
        if node in self._crashed:
            return set()
        return {
            other
            for other in self.network.reachable_from(node, nodes)
            if other not in self._crashed
        }

    def partitions(self, nodes: Iterable[str]) -> List[Set[str]]:
        """Connected components of the uncrashed ``nodes`` on the wrapped network."""
        live = [node for node in nodes if node not in self._crashed]
        return self.network.partitions(live)

    def advance(self, steps: int = 1) -> None:
        """Advance the wrapped network's simulated time."""
        self.network.advance(steps)

    # -- crash / restart ---------------------------------------------------

    def crash(self, node: str) -> None:
        """Freeze ``node`` out of the network (crash-stop)."""
        self._crashed.add(node)

    def restart(self, node: str) -> None:
        """Bring ``node`` back into the network."""
        self._crashed.discard(node)

    def is_crashed(self, node: str) -> bool:
        """Whether ``node`` is currently crashed."""
        return node in self._crashed

    @property
    def crashed(self) -> Set[str]:
        """A copy of the currently crashed node set."""
        return set(self._crashed)

    # -- grey failure ------------------------------------------------------

    def ensure_degradation(
        self, node_ids: Iterable[str]
    ) -> Optional[DegradationState]:
        """Resolve the plan's grey modes over ``node_ids`` (idempotent).

        The resolved state is cached; the grey RNG it owns is seeded from
        this transport's seed XOR a salt, so it is a stream of its own --
        resolving degradation never advances the fault RNG.
        """
        if self.degradation is None and self.plan.degradation is not None:
            self.degradation = self.plan.degradation.resolve(
                node_ids, seed=self.seed
            )
        return self.degradation

    def take_pending_hang(self) -> float:
        """Stuck-hang seconds charged by the last transfer, then cleared.

        The transport decides *whether* a leg hangs (a grey-RNG draw at
        delivery time); the effect driver calls this after each transfer
        to learn how much virtual time the hang costs and sleeps it.
        """
        hang = self._pending_hang
        self._pending_hang = 0.0
        return hang

    # -- fault machinery ---------------------------------------------------

    def _in_outage(self) -> bool:
        now = self.transfers
        return any(start <= now < end for start, end in self.plan.outages)

    def _corrupt(self, blob: bytes) -> bytes:
        if not blob:
            return blob
        damaged = bytearray(blob)
        for _ in range(self.plan.corrupt_bits):
            position = self._rng.randrange(len(damaged) * 8)
            damaged[position // 8] ^= 1 << (position % 8)
        return bytes(damaged)

    def _deliver_copies(self, blob: bytes) -> List[bytes]:
        """The copies of one message that actually arrive (0, 1 or more)."""
        plan = self.plan
        rng = self._rng
        meter = self.meter
        if self._in_outage() or (plan.loss and rng.random() < plan.loss):
            if meter is not None:
                meter.record_drop()
            return []
        copies = 1
        if plan.duplicate and rng.random() < plan.duplicate:
            extra = rng.randint(1, plan.max_duplicates)
            copies += extra
            if meter is not None:
                meter.record_duplicate(extra)
        out: List[bytes] = []
        for _ in range(copies):
            payload = blob
            if plan.corrupt and rng.random() < plan.corrupt:
                payload = self._corrupt(blob)
                if payload != blob and meter is not None:
                    meter.record_corrupt()
            out.append(payload)
        return out

    def transfer_batch(
        self, source: str, destination: str, blobs: Sequence[bytes]
    ) -> List[Tuple[int, bytes]]:
        """Deliver one leg's messages through the fault plan.

        Returns ``(index, payload)`` pairs in delivery order: an index
        from ``blobs`` can be absent (lost), repeated (duplicated) and
        its payload damaged (corrupted); the whole batch can arrive
        shuffled.  A partitioned or crashed endpoint loses everything --
        connectivity can change *mid-session*, which is exactly the
        window the engine's per-key rollback exists for.
        """
        self.transfers += len(blobs)
        if not self.can_communicate(source, destination):
            if self.meter is not None:
                self.meter.record_drop(len(blobs))
            return []
        if self.degradation is not None and blobs:
            hang = self.degradation.stuck_hang(source, destination)
            if hang > 0.0:
                # A stuck session: the leg hangs for `hang` virtual
                # seconds and delivers nothing this attempt.  The hang
                # time is stashed for the effect driver; the engine's
                # retry budget and later rounds heal the lost bytes.
                self._pending_hang += hang
                if self.meter is not None:
                    self.meter.record_drop(len(blobs))
                return []
        deliveries: List[Tuple[int, bytes]] = []
        for index, blob in enumerate(blobs):
            for payload in self._deliver_copies(blob):
                deliveries.append((index, payload))
        if (
            len(deliveries) > 1
            and self.plan.reorder
            and self._rng.random() < self.plan.reorder
        ):
            self._rng.shuffle(deliveries)
        return deliveries
