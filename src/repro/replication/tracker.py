"""Pluggable causality trackers for the replication substrate.

The replication layer (stores, mobile nodes, synchronizers) only needs four
capabilities from whatever mechanism tracks update causality:

* record a local update,
* fork when a new replica is created from an existing one,
* join when two replicas reconcile,
* compare two versions (:class:`~repro.core.order.Ordering`).

:class:`CausalityTracker` captures that contract, with two
implementations:

* :class:`KernelTracker` wraps any registered :mod:`repro.kernel` clock
  family -- version stamps (the paper's mechanism and the stores'
  default), Interval Tree Clocks, dynamic version vectors with lineage
  identifiers, causal histories -- speaking only the
  :class:`~repro.kernel.protocol.CausalityClock` protocol.  Every
  replication scenario (stores, mobile nodes, anti-entropy) runs over any
  family via ``KernelTracker.factory("itc")`` etc., and the causal
  metadata it ships serializes through the epoch-tagged wire envelope.
* :class:`DynamicVVTracker` is the identifier-authority baseline: its
  forks draw replica identifiers from a shared
  :class:`~repro.vv.id_source.IdSource` and fail when a central source is
  unreachable.  It has no byte form, so nothing syncs it: the wire sync
  engine, which every pairwise sync runs, rejects it with a typed
  :class:`~repro.core.errors.ReplicationError`.  It stays as the
  fork-only baseline: SYNC-identity and ``examples/mobile_sync.py``
  measure its forks failing without the authority.

Having the baseline behind the same interface is what lets the end-to-end
replication benchmarks swap the mechanism without touching the scenario.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .. import kernel
from ..core.order import Ordering
from ..vv.dynamic_vv import DynamicVVElement
from ..vv.id_source import IdSource, CentralIdSource
from ..vv.version_vector import VersionVector

__all__ = [
    "CausalityTracker",
    "DynamicVVTracker",
    "KernelTracker",
]


class CausalityTracker:
    """Abstract interface of a causality tracking mechanism.

    Implementations are immutable: every operation returns new tracker
    instances, matching the value semantics of the underlying mechanisms.
    Every operation allocating a new tracker sits on the per-key merge
    path of a store synchronization, so the concrete classes declare
    ``__slots__`` -- a tracker is one pointer-sized wrapper, never a
    dict-carrying object.
    """

    __slots__ = ()

    def updated(self) -> "CausalityTracker":
        """Return the tracker after recording one local update."""
        raise NotImplementedError

    def forked(self, *, connected: bool = True) -> Tuple["CausalityTracker", "CausalityTracker"]:
        """Return two trackers for the two sides of a replica creation."""
        raise NotImplementedError

    def joined(self, other: "CausalityTracker") -> "CausalityTracker":
        """Return the tracker holding the combined knowledge of both."""
        raise NotImplementedError

    def compare(self, other: "CausalityTracker") -> Ordering:
        """Compare update knowledge with another tracker of the same kind."""
        raise NotImplementedError

    def dominates(self, other: "CausalityTracker") -> bool:
        """True when this tracker has seen everything ``other`` has.

        ``EQUAL`` and ``AFTER`` both dominate -- this is the check a
        consumer wants for "have I observed that state?", without
        pattern-matching :class:`~repro.core.order.Ordering` by hand.
        """
        return self.compare(other).dominates

    def stale_or_concurrent(self, other: "CausalityTracker") -> Optional[str]:
        """How this tracker fails to dominate ``other``, if it does.

        Returns ``None`` when this tracker dominates ``other``,
        ``"stale"`` when it is strictly dominated (it has seen only a
        causal prefix of ``other``'s knowledge), and ``"concurrent"``
        when the two trackers have each seen updates the other missed.
        The contract checker uses the distinction to report *why* an
        ordering contract failed, not merely that it did.
        """
        relation = self.compare(other)
        if relation.dominates:
            return None
        return "stale" if relation is Ordering.BEFORE else "concurrent"

    def size_in_bits(self) -> int:
        """Approximate encoded size, for the space benchmarks."""
        raise NotImplementedError

    @property
    def requires_identifier_authority(self) -> bool:
        """Whether forking may fail without connectivity to an id authority."""
        return False

    def to_bytes(self) -> bytes:
        """The tracker's canonical wire envelope.

        Only :class:`KernelTracker` has one; the dynamic-VV baseline
        raises a typed error so the wire sync engine and the durable store
        layer reject it up front instead of inventing a private pickle
        (which would break the canonical-bytes property both rely on).
        """
        from ..core.errors import DurabilityError

        raise DurabilityError(
            f"{type(self).__name__} has no canonical byte form; wire sync "
            f"and durable stores need KernelTracker "
            f"(KernelTracker.factory(<family>))"
        )


class DynamicVVTracker(CausalityTracker):
    """Causality tracking with dynamic version vectors (the baseline).

    Forking needs a fresh replica identifier from the shared
    :class:`IdSource`; with a central source this fails when the requesting
    node is partitioned away from the authority -- the precise limitation the
    paper's mechanism removes.
    """

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

    def updated(self) -> "DynamicVVTracker":
        return DynamicVVTracker(self.element.update(), id_source=self.id_source)

    def forked(self, *, connected: bool = True) -> Tuple["DynamicVVTracker", "DynamicVVTracker"]:
        new_id = self.id_source.allocate(connected=connected)
        left = DynamicVVTracker(self.element, id_source=self.id_source)
        right = DynamicVVTracker(
            DynamicVVElement(new_id, self.element.vector), id_source=self.id_source
        )
        return left, right

    def joined(self, other: "CausalityTracker") -> "DynamicVVTracker":
        if not isinstance(other, DynamicVVTracker):
            raise TypeError("cannot join trackers of different kinds")
        return DynamicVVTracker(
            self.element.merge_from(other.element), id_source=self.id_source
        )

    def compare(self, other: "CausalityTracker") -> Ordering:
        if not isinstance(other, DynamicVVTracker):
            raise TypeError("cannot compare trackers of different kinds")
        return self.element.compare(other.element)

    def size_in_bits(self) -> int:
        return self.element.size_in_bits()

    @property
    def requires_identifier_authority(self) -> bool:
        return self.id_source.requires_connectivity

    def __repr__(self) -> str:
        return f"DynamicVVTracker({self.element!r})"


class KernelTracker(CausalityTracker):
    """Causality tracking through any registered kernel clock family.

    The tracker holds one :class:`~repro.kernel.clocks.KernelClock` and
    translates the tracker vocabulary to the protocol's
    (``updated``/``forked``/``joined`` to ``event``/``fork``/``join``);
    sizes come from ``encoded_size_bits()`` and :meth:`to_bytes` ships the
    clock in the epoch-tagged wire envelope, so replicated metadata is
    self-describing on the wire.

    Use :meth:`factory` to get a zero-argument constructor for
    :class:`~repro.replication.store.StoreReplica`-style
    ``tracker_factory`` parameters.
    """

    __slots__ = ("clock",)

    def __init__(self, clock=None, *, family: str = "version-stamp", **make_kwargs):
        self.clock = clock if clock is not None else kernel.make(family, **make_kwargs)

    @classmethod
    def factory(cls, family: str, **make_kwargs) -> Callable[[], "KernelTracker"]:
        """A no-argument tracker factory for the given clock family."""

        def build() -> "KernelTracker":
            return cls(family=family, **make_kwargs)

        build.__name__ = f"kernel_tracker_{family.replace('-', '_')}"
        return build

    @property
    def family(self) -> str:
        """The registry name of the wrapped clock's family."""
        return self.clock.family

    @property
    def epoch(self) -> int:
        """The re-rooting epoch of the wrapped clock."""
        return self.clock.epoch

    def updated(self) -> "KernelTracker":
        return KernelTracker(self.clock.event())

    def forked(self, *, connected: bool = True) -> Tuple["KernelTracker", "KernelTracker"]:
        left, right = self.clock.fork()
        return KernelTracker(left), KernelTracker(right)

    def joined(self, other: "CausalityTracker") -> "KernelTracker":
        if not isinstance(other, KernelTracker):
            raise TypeError("cannot join trackers of different kinds")
        return KernelTracker(self.clock.join(other.clock))

    def compare(self, other: "CausalityTracker") -> Ordering:
        if not isinstance(other, KernelTracker):
            raise TypeError("cannot compare trackers of different kinds")
        return self.clock.compare(other.clock)

    def size_in_bits(self) -> int:
        return self.clock.encoded_size_bits()

    def with_epoch(self, epoch: int) -> "KernelTracker":
        """The same knowledge re-tagged with another re-rooting epoch."""
        return KernelTracker(self.clock.with_epoch(epoch))

    def to_bytes(self) -> bytes:
        """The clock's epoch-tagged wire envelope."""
        return self.clock.to_bytes()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "KernelTracker":
        """Rebuild a tracker from an envelope produced by :meth:`to_bytes`."""
        return cls(kernel.from_bytes(payload))

    def __repr__(self) -> str:
        return f"KernelTracker({self.clock!r})"
