"""Dynamic version vectors (Ratner/Reiher/Popek-style baseline).

Classic version vectors assume a fixed replica set.  The *dynamic* variant
lets replicas be created and retired at run time: a new replica obtains a
fresh globally unique identifier and an entry in the vector; a retired
replica's entry lingers until the system can prove every live replica has
seen its updates and garbage-collect it.

This module implements that baseline with the identifier requirement made
explicit: creation goes through an :class:`~repro.vv.id_source.IdSource`,
which can refuse under partition (the precise failure mode version stamps
eliminate).  The :class:`DynamicVVSystem` tracks live replicas so the
benchmarks can measure vector growth with and without retirement compaction.

The element-level API (:class:`DynamicVVElement`) mirrors the fork/join/update
calculus used by the rest of the library so the lockstep runner can drive it
from the same traces as version stamps.  :class:`DynamicVVTracker` puts the
element behind the kernel clock protocol as a store's per-key clock, with a
fork that can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.errors import DurabilityError, ReplicationError
from ..core.order import Ordering
from .id_source import IdAllocationError, IdSource, CentralIdSource
from .version_vector import VersionVector

__all__ = ["DynamicVVElement", "DynamicVVSystem", "DynamicVVTracker"]


@dataclass(frozen=True)
class DynamicVVElement:
    """A replica version in the dynamic version-vector baseline.

    Attributes
    ----------
    replica_id:
        The globally unique identifier of the replica holding this version.
    vector:
        The version vector recording the updates this version reflects.
    """

    replica_id: str
    vector: VersionVector

    def update(self) -> "DynamicVVElement":
        """Record a local update (increment our own entry)."""
        return DynamicVVElement(self.replica_id, self.vector.increment(self.replica_id))

    def event(self) -> "DynamicVVElement":
        """Kernel-protocol alias for :meth:`update` (fork/event/join naming)."""
        return self.update()

    def merge_from(self, other: "DynamicVVElement") -> "DynamicVVElement":
        """Absorb the knowledge of ``other`` without changing identity."""
        return DynamicVVElement(self.replica_id, self.vector.merge(other.vector))

    def compare(self, other: "DynamicVVElement") -> Ordering:
        """Three-way comparison of the two versions' update knowledge."""
        return self.vector.compare(other.vector)

    def size_in_bits(self, *, id_bits: int = 64, counter_bits: int = 32) -> int:
        """Encoded size of the vector plus the replica's own identifier."""
        return id_bits + self.vector.size_in_bits(
            id_bits=id_bits, counter_bits=counter_bits
        )


class DynamicVVTracker:
    """The identifier-authority baseline as a store's per-key clock.

    Speaks the kernel's :class:`~repro.kernel.protocol.CausalityClock`
    operations (``event``, ``fork``, ``join``, ``compare``,
    ``encoded_size_bits``) over a :class:`DynamicVVElement`, but every fork
    draws a fresh replica identifier from the shared :class:`IdSource`.
    With a central source, ``fork(connected=False)`` raises
    :class:`IdAllocationError`: the limitation the paper's mechanism
    removes.  It has no byte form, so a store built on it can neither sync
    over the wire nor journal; SYNC-identity and
    ``examples/mobile_sync.py`` measure its forks failing.
    """

    #: Not a registered kernel family: no envelope can carry it.
    family = "dynamic-vv-baseline"
    #: The baseline is never re-rooted.
    epoch = 0

    __slots__ = ("element", "id_source")

    def __init__(
        self,
        element: Optional[DynamicVVElement] = None,
        *,
        id_source: Optional[IdSource] = None,
    ) -> None:
        self.id_source = id_source if id_source is not None else CentralIdSource()
        if element is None:
            element = DynamicVVElement(self.id_source.allocate(), VersionVector())
        self.element = element

    def event(self) -> "DynamicVVTracker":
        return DynamicVVTracker(self.element.update(), id_source=self.id_source)

    def fork(self, *, connected: bool = True) -> Tuple["DynamicVVTracker", "DynamicVVTracker"]:
        """Keep this identity and allocate a fresh one for the new replica."""
        new_id = self.id_source.allocate(connected=connected)
        left = DynamicVVTracker(self.element, id_source=self.id_source)
        right = DynamicVVElement(new_id, self.element.vector)
        return left, DynamicVVTracker(right, id_source=self.id_source)

    def join(self, other: "DynamicVVTracker") -> "DynamicVVTracker":
        if not isinstance(other, DynamicVVTracker):
            raise TypeError("cannot join trackers of different kinds")
        return DynamicVVTracker(
            self.element.merge_from(other.element), id_source=self.id_source
        )

    def compare(self, other: "DynamicVVTracker") -> Ordering:
        if not isinstance(other, DynamicVVTracker):
            raise TypeError("cannot compare trackers of different kinds")
        return self.element.compare(other.element)

    def encoded_size_bits(self) -> int:
        return self.element.size_in_bits()

    def to_bytes(self) -> bytes:
        """Always raises: the baseline has no canonical byte form."""
        raise DurabilityError(
            "DynamicVVTracker has no canonical byte form; wire sync and "
            "durable stores need a kernel clock (kernel.family(<name>).factory)"
        )

    def __repr__(self) -> str:
        return f"DynamicVVTracker({self.element!r})"


class DynamicVVSystem:
    """A dynamic replication system tracked with dynamic version vectors.

    The system exposes the same ``update`` / ``fork`` / ``join`` vocabulary as
    :class:`~repro.core.frontier.Frontier`, but every fork must obtain a new
    replica identifier from the configured :class:`IdSource` -- under a
    partition with a central source this *fails*, which is exactly the
    limitation motivating version stamps.

    Parameters
    ----------
    id_source:
        Identifier allocator.  Defaults to a central authority.
    prune_on_join:
        When ``True`` the entry of the replica retired by a join is removed
        once no live replica is missing its updates (a simplified form of
        Ratner-style compaction).
    """

    def __init__(
        self,
        id_source: Optional[IdSource] = None,
        *,
        prune_on_join: bool = False,
    ) -> None:
        self._id_source = id_source if id_source is not None else CentralIdSource()
        self._elements: Dict[str, DynamicVVElement] = {}
        self._retired: Set[str] = set()
        self._prune_on_join = prune_on_join
        self._failed_forks = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def initial(
        cls,
        label: str = "a",
        *,
        id_source: Optional[IdSource] = None,
        prune_on_join: bool = False,
        connected: bool = True,
    ) -> "DynamicVVSystem":
        """A system with a single replica holding an all-zero vector."""
        system = cls(id_source, prune_on_join=prune_on_join)
        replica_id = system._id_source.allocate(connected=connected)
        system._elements[label] = DynamicVVElement(replica_id, VersionVector())
        return system

    # -- inspection ------------------------------------------------------

    def labels(self) -> List[str]:
        """Labels of the live elements."""
        return list(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, label: object) -> bool:
        return label in self._elements

    def element(self, label: str) -> DynamicVVElement:
        """The element registered under ``label``."""
        try:
            return self._elements[label]
        except KeyError:
            raise ReplicationError(
                f"element {label!r} is not part of the system "
                f"(elements: {sorted(self._elements)})"
            ) from None

    def vector_of(self, label: str) -> VersionVector:
        """The version vector of ``label``."""
        return self.element(label).vector

    @property
    def failed_forks(self) -> int:
        """Forks refused because no identifier could be allocated."""
        return self._failed_forks

    @property
    def retired_ids(self) -> Set[str]:
        """Identifiers of replicas retired by joins so far."""
        return set(self._retired)

    def identifier_count(self) -> int:
        """Distinct replica identifiers mentioned by any live vector."""
        mentioned: Set[str] = set()
        for element in self._elements.values():
            mentioned.add(element.replica_id)
            mentioned.update(element.vector.counters)
        return len(mentioned)

    def total_size_in_bits(self, *, id_bits: int = 64, counter_bits: int = 32) -> int:
        """Sum of the encoded sizes of every live element."""
        return sum(
            element.size_in_bits(id_bits=id_bits, counter_bits=counter_bits)
            for element in self._elements.values()
        )

    # -- transformations ----------------------------------------------------

    def _fresh_label(self, base: str) -> str:
        candidate = base
        while candidate in self._elements:
            candidate += "'"
        return candidate

    def update(self, label: str, new_label: Optional[str] = None) -> str:
        """Record an update on ``label``."""
        element = self.element(label)
        target = new_label if new_label is not None else self._fresh_label(label + "'")
        if target != label and target in self._elements:
            raise ReplicationError(f"element {target!r} already exists")
        del self._elements[label]
        self._elements[target] = element.update()
        return target

    def fork(
        self,
        label: str,
        left_label: Optional[str] = None,
        right_label: Optional[str] = None,
        *,
        connected: bool = True,
    ) -> Tuple[str, str]:
        """Create a new replica from ``label``.

        The original keeps its identifier; the new replica needs a fresh one
        from the identifier source.  Raises :class:`IdAllocationError` when
        the source is unreachable (``connected=False`` with a central source).
        """
        element = self.element(label)
        left = left_label if left_label is not None else label
        right = (
            right_label if right_label is not None else self._fresh_label(label + "+")
        )
        if left == right:
            raise ReplicationError("fork children must have distinct labels")
        try:
            new_id = self._id_source.allocate(connected=connected)
        except IdAllocationError:
            self._failed_forks += 1
            raise
        del self._elements[label]
        for target in (left, right):
            if target in self._elements:
                raise ReplicationError(f"element {target!r} already exists")
        self._elements[left] = element
        self._elements[right] = DynamicVVElement(new_id, element.vector)
        return left, right

    def join(self, first: str, second: str, new_label: Optional[str] = None) -> str:
        """Merge two replicas; the second replica's identity retires."""
        if first == second:
            raise ReplicationError("cannot join an element with itself")
        first_element = self.element(first)
        second_element = self.element(second)
        target = (
            new_label
            if new_label is not None
            else self._fresh_label(f"{first}{second}")
        )
        del self._elements[first]
        del self._elements[second]
        if target in self._elements:
            raise ReplicationError(f"element {target!r} already exists")
        merged = first_element.merge_from(second_element)
        self._elements[target] = merged
        self._retired.add(second_element.replica_id)
        self._id_source.release(second_element.replica_id)
        if self._prune_on_join:
            self._prune_retired()
        return target

    def sync(
        self,
        first: str,
        second: str,
        *,
        connected: bool = True,
    ) -> Tuple[str, str]:
        """Pairwise synchronization: both replicas end with merged knowledge.

        Unlike stamps (join followed by fork) the dynamic-VV baseline keeps
        both replica identities, so no allocation is needed here.
        """
        first_element = self.element(first)
        second_element = self.element(second)
        self._elements[first] = first_element.merge_from(second_element)
        self._elements[second] = second_element.merge_from(first_element)
        return first, second

    def _prune_retired(self) -> None:
        """Drop retired entries that every live replica already dominates."""
        if not self._retired:
            return
        live = list(self._elements.values())
        for retired_id in list(self._retired):
            counters = [element.vector.get(retired_id) for element in live]
            if not counters:
                continue
            maximum = max(counters)
            if all(counter == maximum for counter in counters):
                self._elements = {
                    label: DynamicVVElement(
                        element.replica_id, element.vector.without(retired_id)
                    )
                    for label, element in self._elements.items()
                }
                self._retired.discard(retired_id)

    # -- queries -----------------------------------------------------------------

    def compare(self, first: str, second: str) -> Ordering:
        """Three-way comparison of two live elements."""
        return self.element(first).compare(self.element(second))

    def ordering_matrix(self) -> Dict[Tuple[str, str], Ordering]:
        """All pairwise comparisons of the live elements."""
        labels = self.labels()
        matrix: Dict[Tuple[str, str], Ordering] = {}
        for x in labels:
            for y in labels:
                if x != y:
                    matrix[(x, y)] = self.compare(x, y)
        return matrix
