"""A simulated network for partition-prone, mobile environments.

The paper motivates version stamps with "wireless ad hoc networking setups,
where entities are autonomous and operate in local clusters on a proximity
basis" and where "partitioned operation is the common mode of operation"
(Section 1).  We cannot run on real ad-hoc hardware, so this module provides
the closest synthetic equivalent: a network model whose *connectivity* can be
partitioned arbitrarily and changed over time, plus a mobility model that
derives partitions from node positions (proximity clustering).

The rest of the replication substrate only asks two questions of a network:

* :meth:`SimulatedNetwork.can_communicate` -- can two nodes talk right now?
* :meth:`SimulatedNetwork.reachable_from` -- which nodes are in the same
  partition as a given node?

so any model answering those (static partitions, scripted partition
schedules, random churn, proximity) can be plugged in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReplicationError

__all__ = [
    "SimulatedNetwork",
    "FullyConnectedNetwork",
    "PartitionedNetwork",
    "PartitionSchedule",
    "ScheduledNetwork",
    "ProximityNetwork",
    "NodePosition",
    "NetworkMeter",
    "LatencyPercentiles",
]


class LatencyPercentiles(Dict[float, float]):
    """Typed result of :func:`nearest_rank`.

    A plain ``quantile -> seconds`` mapping (so existing ``[0.5]``
    subscripting keeps working) that additionally carries how many
    samples backed it.  ``samples == 0`` is the typed empty result: every
    requested quantile maps to ``0.0`` and :attr:`empty` is true -- a run
    that priced no transfer leg reports "no data" instead of crashing or
    smuggling zeros that read like measurements.
    """

    __slots__ = ("samples",)

    def __init__(self, values: Dict[float, float], samples: int) -> None:
        super().__init__(values)
        self.samples = samples

    @property
    def empty(self) -> bool:
        """Whether this result was computed from zero samples."""
        return self.samples == 0


def nearest_rank(
    samples: Sequence[float], quantiles: Sequence[float]
) -> LatencyPercentiles:
    """Nearest-rank percentiles of ``samples`` (no interpolation).

    Deterministic and directly comparable across runs and machines: one
    sample answers every quantile, and the p99 of two samples is the
    larger one (``ceil(0.99 * 2) - 1 == 1``).
    """
    ordered = sorted(samples)
    if not ordered:
        return LatencyPercentiles({q: 0.0 for q in quantiles}, 0)
    last = len(ordered) - 1
    return LatencyPercentiles(
        {
            q: ordered[min(last, max(0, math.ceil(q * len(ordered)) - 1))]
            for q in quantiles
        },
        len(ordered),
    )


@dataclass
class NetworkMeter:
    """Message, byte and fault accounting for wire-level synchronization.

    Every sync session of the wire engine tallies its own transfers on a
    meter of its own, and the engine's meter absorbs that tally when the
    session ends, finished or aborted.  A session sends one digest
    message, then one stream per (family, epoch) group and direction for
    the keys the digests left.  A meter holds totals only, so its size
    does not grow with the run.

    Under a fault-injecting transport (:mod:`repro.replication.faults`)
    the meter also holds the fault economy, counted by the receiving
    engine from what each attempt brought back: messages lost,
    duplicated or damaged in flight, the resends the engine's retry
    policy issued, the simulated latency those resends waited, and the
    messages given up on.  ``messages``/``bytes_sent`` count every
    *attempt* (retries included), so ``goodput()`` -- the fraction of
    sent bytes that carried metadata the receiver actually accepted --
    is what chaos benchmarks report instead of raw throughput.
    """

    messages: int = 0
    bytes_sent: int = 0
    #: Messages no copy of came back (loss rate, outages, crashes, hangs).
    dropped: int = 0
    #: Copies delivered beyond the first of one message.
    duplicated: int = 0
    #: Resend attempts issued by the engine's retry policy.
    retried: int = 0
    #: Delivered copies whose bytes differ from what was sent.
    corrupted: int = 0
    #: Total simulated backoff latency spent waiting between retries.
    retry_latency: float = 0.0
    #: Bytes of payloads the receiving engine accepted (first valid copy).
    bytes_delivered: int = 0
    #: Messages given up on after the retry budget's last attempt.
    deliveries_failed: int = 0

    def absorb(self, tally: "NetworkMeter") -> None:
        """Add the counts of ``tally`` (one session's) to this meter."""
        self.messages += tally.messages
        self.bytes_sent += tally.bytes_sent
        self.dropped += tally.dropped
        self.duplicated += tally.duplicated
        self.retried += tally.retried
        self.corrupted += tally.corrupted
        self.retry_latency += tally.retry_latency
        self.bytes_delivered += tally.bytes_delivered
        self.deliveries_failed += tally.deliveries_failed

    def goodput(self) -> float:
        """Accepted payload bytes as a fraction of all bytes sent.

        1.0 on a perfect transport (every byte sent is delivered and
        accepted); drops, retries, duplicates and corrupted frames all
        push it down.  0.0 when nothing was sent.
        """
        if self.bytes_sent <= 0:
            return 0.0
        return self.bytes_delivered / self.bytes_sent

    def snapshot(self) -> Tuple[int, int]:
        """The current ``(messages, bytes)`` totals."""
        return self.messages, self.bytes_sent

    def fault_snapshot(self) -> Tuple[int, int, int, int, float]:
        """The current ``(dropped, duplicated, retried, corrupted, retry_latency)``."""
        return (
            self.dropped,
            self.duplicated,
            self.retried,
            self.corrupted,
            self.retry_latency,
        )

    def reset(self) -> None:
        """Zero all counters (e.g. between benchmark phases)."""
        self.messages = 0
        self.bytes_sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.retried = 0
        self.corrupted = 0
        self.retry_latency = 0.0
        self.bytes_delivered = 0
        self.deliveries_failed = 0


class SimulatedNetwork:
    """Abstract connectivity oracle used by the replication substrate."""

    def can_communicate(self, first: str, second: str) -> bool:
        """Whether ``first`` and ``second`` can exchange messages right now."""
        raise NotImplementedError

    def reachable_from(self, node: str, nodes: Iterable[str]) -> Set[str]:
        """The subset of ``nodes`` currently reachable from ``node``."""
        return {other for other in nodes if self.can_communicate(node, other)}

    def partitions(self, nodes: Iterable[str]) -> List[Set[str]]:
        """Group ``nodes`` into connected components under current connectivity."""
        remaining = list(dict.fromkeys(nodes))
        components: List[Set[str]] = []
        while remaining:
            seed = remaining.pop(0)
            component = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for other in list(remaining):
                    if self.can_communicate(current, other):
                        remaining.remove(other)
                        component.add(other)
                        frontier.append(other)
            components.append(component)
        return components

    def advance(self, steps: int = 1) -> None:
        """Advance simulated time (no-op for static models)."""


class FullyConnectedNetwork(SimulatedNetwork):
    """Every node can always talk to every other node (the classic LAN case)."""

    def can_communicate(self, first: str, second: str) -> bool:
        return True


class PartitionedNetwork(SimulatedNetwork):
    """A network with an explicit, mutable set of partitions.

    Nodes not mentioned in any partition form an implicit shared partition,
    so tests can describe only the interesting splits.
    """

    def __init__(self, partitions: Optional[Iterable[Iterable[str]]] = None) -> None:
        self._partitions: List[Set[str]] = [set(group) for group in (partitions or [])]
        self._validate()

    def _validate(self) -> None:
        seen: Set[str] = set()
        for group in self._partitions:
            overlap = seen & group
            if overlap:
                raise ReplicationError(
                    f"nodes {sorted(overlap)} appear in more than one partition"
                )
            seen |= group

    def set_partitions(self, partitions: Iterable[Iterable[str]]) -> None:
        """Replace the current partitioning."""
        self._partitions = [set(group) for group in partitions]
        self._validate()

    def heal(self) -> None:
        """Remove every partition (full connectivity)."""
        self._partitions = []

    def partition_of(self, node: str) -> Optional[FrozenSet[str]]:
        """The explicit partition containing ``node``, if any."""
        for group in self._partitions:
            if node in group:
                return frozenset(group)
        return None

    def can_communicate(self, first: str, second: str) -> bool:
        if first == second:
            return True
        group_first = self.partition_of(first)
        group_second = self.partition_of(second)
        if group_first is None and group_second is None:
            return True
        return group_first is not None and group_first == group_second


@dataclass
class PartitionSchedule:
    """A scripted sequence of partitionings indexed by simulated time.

    Attributes
    ----------
    phases:
        List of ``(duration, partitions)`` pairs applied in order; after the
        last phase the network stays in that phase's configuration.
    """

    phases: Sequence[Tuple[int, Sequence[Sequence[str]]]]

    def partitions_at(self, time: int) -> Sequence[Sequence[str]]:
        """The partitioning in force at simulated time ``time``."""
        elapsed = 0
        current: Sequence[Sequence[str]] = []
        for duration, partitions in self.phases:
            current = partitions
            elapsed += duration
            if time < elapsed:
                return partitions
        return current


class ScheduledNetwork(PartitionedNetwork):
    """A partitioned network driven by a :class:`PartitionSchedule`."""

    def __init__(self, schedule: PartitionSchedule) -> None:
        super().__init__(schedule.partitions_at(0))
        self._schedule = schedule
        self._time = 0

    @property
    def time(self) -> int:
        """The current simulated time."""
        return self._time

    def advance(self, steps: int = 1) -> None:
        self._time += steps
        self.set_partitions(self._schedule.partitions_at(self._time))


@dataclass
class NodePosition:
    """Position and velocity of a mobile node on a 2-D plane."""

    x: float
    y: float
    dx: float = 0.0
    dy: float = 0.0

    def step(self, bounds: float) -> None:
        """Move one time step, bouncing off the square ``[0, bounds]²``."""
        self.x += self.dx
        self.y += self.dy
        if self.x < 0 or self.x > bounds:
            self.dx = -self.dx
            self.x = min(max(self.x, 0.0), bounds)
        if self.y < 0 or self.y > bounds:
            self.dy = -self.dy
            self.y = min(max(self.y, 0.0), bounds)


class ProximityNetwork(SimulatedNetwork):
    """Connectivity by radio range over mobile nodes (ad-hoc clustering).

    Nodes move with a simple bounce model inside a square arena; two nodes can
    communicate when within ``radio_range`` of each other.  This produces the
    proximity-based local clusters of the paper's motivating scenario.
    """

    def __init__(
        self,
        *,
        arena: float = 100.0,
        radio_range: float = 20.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if arena <= 0 or radio_range <= 0:
            raise ReplicationError("arena size and radio range must be positive")
        self._arena = arena
        self._range = radio_range
        self._rng = rng if rng is not None else random.Random(0)
        self._positions: Dict[str, NodePosition] = {}

    def add_node(self, node: str, position: Optional[NodePosition] = None) -> None:
        """Register a mobile node, optionally at an explicit position."""
        if position is None:
            speed = self._range / 10.0
            position = NodePosition(
                x=self._rng.uniform(0, self._arena),
                y=self._rng.uniform(0, self._arena),
                dx=self._rng.uniform(-speed, speed),
                dy=self._rng.uniform(-speed, speed),
            )
        self._positions[node] = position

    def position_of(self, node: str) -> NodePosition:
        """The current position of ``node``."""
        try:
            return self._positions[node]
        except KeyError:
            raise ReplicationError(f"unknown node {node!r}") from None

    def can_communicate(self, first: str, second: str) -> bool:
        if first == second:
            return True
        if first not in self._positions or second not in self._positions:
            return False
        a = self._positions[first]
        b = self._positions[second]
        return math.hypot(a.x - b.x, a.y - b.y) <= self._range

    def advance(self, steps: int = 1) -> None:
        for _ in range(steps):
            for position in self._positions.values():
                position.step(self._arena)
