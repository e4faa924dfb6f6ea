"""Mechanism adapters: one uniform driver interface over every clock family.

Historically each causality mechanism needed a hand-written adapter wiring
its private API (``Frontier``, ``DynamicVVSystem``, raw ``ITCStamp`` dicts,
...) to the lockstep runner.  With the :mod:`repro.kernel` protocol in place
a single generic :class:`KernelClockAdapter` drives *any* registered clock
family through ``fork``/``event``/``join``/``compare`` alone -- pass a
family name and every replication scenario, lockstep trace and size curve
runs over it (that is the CLI's ``simulate --clock`` flag).

The specialised adapters are retained where they measure something the
protocol deliberately does not expose:

* :class:`CausalAdapter` / :class:`RefCausalAdapter` -- the oracle, with its
  bulk ``comparison_table`` fast path;
* :class:`StampAdapter` / :class:`RerootingStampAdapter` -- version stamps
  driven through :class:`~repro.core.frontier.Frontier`, including the
  Section 7 re-rooting GC and the I1-I3 invariant self-check;
* :class:`DynamicVVAdapter` -- the identifier-*authority* baseline, whose
  forks can fail under partition (the kernel's ``vv-dynamic`` family
  allocates identifiers locally and never fails);
* :class:`ITCAdapter` -- ITC sized by ``ITCStamp.size_in_bits()``'s
  per-node model, the yardstick the other default adapters use
  (``KernelClockAdapter("itc")`` reports encoded bits instead);
* :class:`PlausibleAdapter` / :class:`LamportAdapter` -- the lossy
  contrast baselines.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..causal.configuration import CausalConfiguration
from ..causal.refhistory import RefCausalConfiguration
from ..core.errors import SimulationError
from ..core.frontier import Frontier
from ..core.invariants import check_all
from ..core.order import Ordering
from ..itc.stamp import ITCStamp
from ..vv.dynamic_vv import DynamicVVSystem
from ..vv.id_source import CentralIdSource, IdSource
from ..vv.lamport import LamportClock
from ..vv.plausible import PlausibleClock
from .clocks import KernelClock
from .registry import make

__all__ = [
    "MechanismAdapter",
    "CausalAdapter",
    "RefCausalAdapter",
    "StampAdapter",
    "RerootingStampAdapter",
    "DynamicVVAdapter",
    "ITCAdapter",
    "PlausibleAdapter",
    "LamportAdapter",
    "KernelClockAdapter",
    "default_adapters",
    "kernel_adapters",
]


class MechanismAdapter:
    """Uniform driver interface: replay trace operations, answer comparisons."""

    #: Short name used in reports and benchmark tables.
    name = "mechanism"

    def start(self, seed: str) -> None:
        """Initialize with a single element labelled ``seed``."""
        raise NotImplementedError

    def apply(self, operation) -> None:
        """Apply one trace operation."""
        raise NotImplementedError

    def labels(self) -> List[str]:
        """Labels of the currently coexisting elements."""
        raise NotImplementedError

    def compare(self, first: str, second: str) -> Ordering:
        """Pairwise comparison of two live elements."""
        raise NotImplementedError

    def comparison_table(self) -> Optional[Mapping[str, object]]:
        """Optional label -> comparable mapping for bulk comparisons.

        When an adapter can expose its live elements as objects with a
        ``compare`` method, the lockstep runner compares through this table
        directly, skipping the per-call label resolution of :meth:`compare`.
        Returning ``None`` (the default) keeps the label-based path.
        """
        return None

    def size_in_bits(self, label: str) -> int:
        """Metadata size of one live element (0 when not meaningful)."""
        return 0

    def check_invariants(self) -> bool:
        """Mechanism-specific self-check (True when nothing is violated)."""
        return True


class KernelClockAdapter(MechanismAdapter):
    """Drive any registered clock family through the kernel protocol alone.

    The adapter holds one :class:`~repro.kernel.clocks.KernelClock` per live
    label and replays trace operations with nothing but the protocol's
    ``fork``/``event``/``join``; sizes come from ``encoded_size_bits()``,
    the exact wire-payload bit count, so every family is measured by the
    same yardstick.

    Parameters
    ----------
    family:
        Registry name passed to :func:`repro.kernel.make`.
    name:
        Report name; defaults to the family name.
    **make_kwargs:
        Extra arguments for the family factory (e.g. ``reducing=False``).
    """

    def __init__(self, family: str, *, name: Optional[str] = None, **make_kwargs):
        self.family = family
        if name is None:
            # The lockstep runner keys its report/cache tables by adapter
            # name, so the mechanism under test must not collide with the
            # oracle (whose name is "causal-history").
            name = family if family != "causal-history" else "causal-history-kernel"
        self.name = name
        self._make_kwargs = dict(make_kwargs)
        self._clocks: Dict[str, KernelClock] = {}

    def clock_of(self, label: str) -> KernelClock:
        """The live clock registered under ``label``."""
        try:
            return self._clocks[label]
        except KeyError:
            raise SimulationError(
                f"{self.name} adapter has no element {label!r}"
            ) from None

    def start(self, seed: str) -> None:
        self._clocks = {seed: make(self.family, **self._make_kwargs)}

    def _take(self, label: str) -> KernelClock:
        try:
            return self._clocks.pop(label)
        except KeyError:
            raise SimulationError(
                f"{self.name} adapter has no element {label!r}"
            ) from None

    def apply(self, operation) -> None:
        from ..sim.trace import OpKind

        if operation.kind == OpKind.UPDATE:
            self._clocks[operation.results[0]] = self._take(operation.source).event()
        elif operation.kind == OpKind.FORK:
            left, right = self._take(operation.source).fork()
            self._clocks[operation.results[0]] = left
            self._clocks[operation.results[1]] = right
        elif operation.kind == OpKind.JOIN:
            first = self._take(operation.source)
            second = self._take(operation.other)
            self._clocks[operation.results[0]] = first.join(second)
        else:
            first = self._take(operation.source)
            second = self._take(operation.other)
            left, right = first.join(second).fork()
            self._clocks[operation.results[0]] = left
            self._clocks[operation.results[1]] = right

    def labels(self) -> List[str]:
        return list(self._clocks)

    def compare(self, first: str, second: str) -> Ordering:
        return self.clock_of(first).compare(self.clock_of(second))

    def comparison_table(self) -> Mapping[str, KernelClock]:
        return self._clocks

    def size_in_bits(self, label: str) -> int:
        return self.clock_of(label).encoded_size_bits()


class CausalAdapter(MechanismAdapter):
    """The causal-history oracle (global view), bitset-backed."""

    name = "causal-history"

    #: The configuration implementation this adapter drives.
    configuration_class = CausalConfiguration

    def __init__(self) -> None:
        self._configuration = None

    @property
    def configuration(self):
        if self._configuration is None:
            raise SimulationError("adapter not started")
        return self._configuration

    def start(self, seed: str) -> None:
        self._configuration = self.configuration_class.initial(seed)

    def apply(self, operation) -> None:
        from ..sim.trace import apply_operation

        apply_operation(self.configuration, operation)

    def labels(self) -> List[str]:
        return self.configuration.labels()

    def compare(self, first: str, second: str) -> Ordering:
        return self.configuration.compare(first, second)

    def comparison_table(self) -> Mapping[str, object]:
        return self.configuration.histories_view()

    def size_in_bits(self, label: str) -> int:
        # One event identifier is modelled as a 64-bit value; ``event_count``
        # is a cached popcount, so no event set is ever materialized here.
        # This matches the causal-history kernel family's wire format (one
        # 64-bit identity per event) up to the count varint.
        return 64 * self.configuration.history_of(label).event_count


class RefCausalAdapter(CausalAdapter):
    """The seed frozenset oracle, kept as a differential/perf baseline."""

    name = "causal-history-ref"

    configuration_class = RefCausalConfiguration

    def size_in_bits(self, label: str) -> int:
        return 64 * len(self.configuration.history_of(label).events)


class StampAdapter(MechanismAdapter):
    """Version stamps, in either the reducing or the non-reducing flavour."""

    def __init__(self, *, reducing: bool = True) -> None:
        self._reducing = reducing
        self.name = "version-stamps" if reducing else "version-stamps-nonreducing"
        self._frontier: Optional[Frontier] = None

    @property
    def frontier(self) -> Frontier:
        if self._frontier is None:
            raise SimulationError("adapter not started")
        return self._frontier

    def start(self, seed: str) -> None:
        self._frontier = Frontier.initial(seed, reducing=self._reducing)

    def apply(self, operation) -> None:
        from ..sim.trace import apply_operation

        apply_operation(self.frontier, operation)

    def labels(self) -> List[str]:
        return self.frontier.labels()

    def compare(self, first: str, second: str) -> Ordering:
        return self.frontier.compare(first, second)

    def size_in_bits(self, label: str) -> int:
        return self.frontier.stamp_of(label).size_in_bits()

    def check_invariants(self) -> bool:
        return check_all(self.frontier.stamps()).ok


class RerootingStampAdapter(StampAdapter):
    """Reducing version stamps with the Section 7 re-rooting GC enabled.

    Drives a :class:`~repro.core.frontier.Frontier` whose automatic re-root
    fires whenever any live stamp's encoded size exceeds ``threshold``
    bits.  Run
    alongside a plain :class:`StampAdapter` in one lockstep replay this
    measures GC'd and raw stamps side by side on the same trace -- and
    because the runner cross-checks every mechanism against the causal
    oracle after every step, it *proves* on that trace that re-rooting
    preserved the frontier ordering (the re-rooted stamps must keep a 100%
    agreement rate with ground truth for the whole run).
    """

    def __init__(self, *, threshold: int = 256) -> None:
        super().__init__(reducing=True)
        self.name = f"version-stamps-rerooting-{threshold}"
        self._threshold = threshold

    @property
    def threshold(self) -> int:
        """The re-root trigger: largest allowed stamp, in encoded bits."""
        return self._threshold

    @property
    def reroots_performed(self) -> int:
        """How many re-roots the replay has triggered so far."""
        return self.frontier.reroots_performed

    def start(self, seed: str) -> None:
        self._frontier = Frontier.initial(
            seed, reducing=True, reroot_threshold=self._threshold
        )


class DynamicVVAdapter(MechanismAdapter):
    """Dynamic version vectors driven by an identifier source.

    This baseline keeps the identifier-*authority* model (forks must obtain
    an id from an :class:`IdSource` and can fail under partition); the
    kernel's ``vv-dynamic`` family is the same mechanism with local
    UUID-sized allocation instead.
    """

    name = "dynamic-version-vectors"

    def __init__(self, id_source: Optional[IdSource] = None) -> None:
        self._id_source = id_source
        self._system: Optional[DynamicVVSystem] = None

    @property
    def system(self) -> DynamicVVSystem:
        if self._system is None:
            raise SimulationError("adapter not started")
        return self._system

    def start(self, seed: str) -> None:
        source = self._id_source if self._id_source is not None else CentralIdSource()
        self._system = DynamicVVSystem.initial(seed, id_source=source)

    def apply(self, operation) -> None:
        from ..sim.trace import OpKind

        system = self.system
        if operation.kind == OpKind.UPDATE:
            system.update(operation.source, operation.results[0])
        elif operation.kind == OpKind.FORK:
            system.fork(operation.source, *operation.results)
        elif operation.kind == OpKind.JOIN:
            system.join(operation.source, operation.other, operation.results[0])
        else:
            joined = system.join(operation.source, operation.other)
            system.fork(joined, *operation.results)

    def labels(self) -> List[str]:
        return self.system.labels()

    def compare(self, first: str, second: str) -> Ordering:
        return self.system.compare(first, second)

    def size_in_bits(self, label: str) -> int:
        return self.system.element(label).size_in_bits()


class ITCAdapter(MechanismAdapter):
    """Interval Tree Clocks (the extension mechanism)."""

    name = "interval-tree-clocks"

    def __init__(self) -> None:
        self._stamps: Dict[str, ITCStamp] = {}

    def start(self, seed: str) -> None:
        self._stamps = {seed: ITCStamp.seed()}

    def _take(self, label: str) -> ITCStamp:
        try:
            return self._stamps.pop(label)
        except KeyError:
            raise SimulationError(f"ITC adapter has no element {label!r}") from None

    def apply(self, operation) -> None:
        from ..sim.trace import OpKind

        if operation.kind == OpKind.UPDATE:
            stamp = self._take(operation.source)
            self._stamps[operation.results[0]] = stamp.event()
        elif operation.kind == OpKind.FORK:
            stamp = self._take(operation.source)
            left, right = stamp.fork()
            self._stamps[operation.results[0]] = left
            self._stamps[operation.results[1]] = right
        elif operation.kind == OpKind.JOIN:
            first = self._take(operation.source)
            second = self._take(operation.other)
            self._stamps[operation.results[0]] = first.join(second)
        else:
            first = self._take(operation.source)
            second = self._take(operation.other)
            left, right = first.join(second).fork()
            self._stamps[operation.results[0]] = left
            self._stamps[operation.results[1]] = right

    def labels(self) -> List[str]:
        return list(self._stamps)

    def compare(self, first: str, second: str) -> Ordering:
        return self._stamps[first].compare(self._stamps[second])

    def size_in_bits(self, label: str) -> int:
        return self._stamps[label].size_in_bits()


class PlausibleAdapter(MechanismAdapter):
    """Plausible clocks: constant size, approximate ordering."""

    def __init__(self, entries: int = 4) -> None:
        self.name = f"plausible-clocks-{entries}"
        self._entries = entries
        self._clocks: Dict[str, PlausibleClock] = {}
        self._next_replica = 0

    def _fresh_replica_id(self) -> str:
        identifier = f"p{self._next_replica}"
        self._next_replica += 1
        return identifier

    def start(self, seed: str) -> None:
        self._clocks = {seed: PlausibleClock(self._entries, self._fresh_replica_id())}

    def _take(self, label: str) -> PlausibleClock:
        try:
            return self._clocks.pop(label)
        except KeyError:
            raise SimulationError(f"plausible adapter has no element {label!r}") from None

    def apply(self, operation) -> None:
        from ..sim.trace import OpKind

        if operation.kind == OpKind.UPDATE:
            clock = self._take(operation.source)
            self._clocks[operation.results[0]] = clock.update()
        elif operation.kind == OpKind.FORK:
            clock = self._take(operation.source)
            self._clocks[operation.results[0]] = clock
            self._clocks[operation.results[1]] = clock.for_replica(self._fresh_replica_id())
        elif operation.kind == OpKind.JOIN:
            first = self._take(operation.source)
            second = self._take(operation.other)
            self._clocks[operation.results[0]] = first.merge(second)
        else:
            first = self._take(operation.source)
            second = self._take(operation.other)
            merged = first.merge(second)
            self._clocks[operation.results[0]] = merged
            self._clocks[operation.results[1]] = merged.for_replica(
                self._fresh_replica_id()
            )

    def labels(self) -> List[str]:
        return list(self._clocks)

    def compare(self, first: str, second: str) -> Ordering:
        return self._clocks[first].compare(self._clocks[second])

    def size_in_bits(self, label: str) -> int:
        return self._clocks[label].size_in_bits()


class LamportAdapter(MechanismAdapter):
    """Scalar Lamport clocks: causality-consistent but blind to concurrency.

    Included purely as a contrast baseline -- every pair the oracle reports
    as concurrent is (arbitrarily) ordered by a scalar clock, so the
    agreement rate quantifies how much information the single integer loses.
    """

    name = "lamport-clocks"

    def __init__(self) -> None:
        self._clocks: Dict[str, LamportClock] = {}
        self._next_process = 0

    def _fresh_process(self) -> str:
        identifier = f"l{self._next_process}"
        self._next_process += 1
        return identifier

    def start(self, seed: str) -> None:
        self._clocks = {seed: LamportClock(0, self._fresh_process())}

    def _take(self, label: str) -> LamportClock:
        try:
            return self._clocks.pop(label)
        except KeyError:
            raise SimulationError(f"lamport adapter has no element {label!r}") from None

    def apply(self, operation) -> None:
        from ..sim.trace import OpKind

        if operation.kind == OpKind.UPDATE:
            clock = self._take(operation.source)
            self._clocks[operation.results[0]] = clock.tick()
        elif operation.kind == OpKind.FORK:
            clock = self._take(operation.source)
            self._clocks[operation.results[0]] = clock
            self._clocks[operation.results[1]] = LamportClock(
                clock.counter, self._fresh_process()
            )
        elif operation.kind == OpKind.JOIN:
            first = self._take(operation.source)
            second = self._take(operation.other)
            self._clocks[operation.results[0]] = LamportClock(
                max(first.counter, second.counter), first.process
            )
        else:
            first = self._take(operation.source)
            second = self._take(operation.other)
            merged = max(first.counter, second.counter)
            self._clocks[operation.results[0]] = LamportClock(merged, first.process)
            self._clocks[operation.results[1]] = LamportClock(merged, second.process)

    def labels(self) -> List[str]:
        return list(self._clocks)

    def compare(self, first: str, second: str) -> Ordering:
        mine = self._clocks[first]
        theirs = self._clocks[second]
        if mine.counter == theirs.counter:
            return Ordering.EQUAL
        return Ordering.BEFORE if mine.counter < theirs.counter else Ordering.AFTER

    def size_in_bits(self, label: str) -> int:
        return self._clocks[label].size_in_bits()


def default_adapters(*, include_plausible: bool = False) -> List[MechanismAdapter]:
    """The standard set of non-oracle mechanisms used by the experiments."""
    adapters: List[MechanismAdapter] = [
        StampAdapter(reducing=True),
        StampAdapter(reducing=False),
        DynamicVVAdapter(),
        ITCAdapter(),
    ]
    if include_plausible:
        adapters.append(PlausibleAdapter())
    return adapters


def kernel_adapters(
    families: Optional[List[str]] = None,
) -> List[KernelClockAdapter]:
    """One :class:`KernelClockAdapter` per registered (or named) family."""
    from .registry import families as registered_families

    names = families if families is not None else registered_families()
    return [KernelClockAdapter(name) for name in names]
