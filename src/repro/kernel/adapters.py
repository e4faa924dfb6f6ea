"""Mechanism adapters: one uniform driver interface over every clock family.

Every adapter replays a trace through :func:`repro.sim.trace.apply_operation`:
:meth:`MechanismAdapter.start` builds a replay target with the label-based
``update``/``fork``/``join``/``sync`` of :class:`~repro.core.frontier.Frontier`,
and ``apply``, ``labels`` and ``compare`` go through it.

:class:`ClockAdapter` is its own target for immutable clock values, one per
live label.  Its subclasses override only the clock vocabulary where theirs
differs:

* :class:`KernelClockAdapter` drives *any* registered clock family through
  the kernel protocol alone -- pass a family name and every replication
  scenario, lockstep trace and size curve runs over it (that is the CLI's
  ``simulate --clock`` flag);
* :class:`ITCAdapter` -- ITC sized by ``ITCStamp.size_in_bits()``'s
  per-node model, the yardstick the other default adapters use
  (``KernelClockAdapter("itc")`` reports encoded bits instead);
* :class:`PlausibleAdapter` / :class:`LamportAdapter` -- the lossy
  contrast baselines.

The other adapters replay onto their own configurations, for what the
protocol deliberately does not expose:

* :class:`CausalAdapter` / :class:`RefCausalAdapter` -- the oracle, with its
  bulk ``comparison_table`` fast path;
* :class:`StampAdapter` / :class:`RerootingStampAdapter` -- version stamps
  driven through :class:`~repro.core.frontier.Frontier`, including the
  Section 7 re-rooting GC and the I1-I3 invariant self-check;
* :class:`DynamicVVAdapter` -- the identifier-*authority* baseline, whose
  forks can fail under partition (the kernel's ``vv-dynamic`` family
  allocates identifiers locally and never fails).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

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
    "ClockAdapter",
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
    """Uniform driver interface: replay trace operations, answer comparisons.

    :meth:`start` builds the replay target with :meth:`_initial`: an object
    with the label-based ``update``/``fork``/``join``/``sync`` that
    :func:`~repro.sim.trace.apply_operation` calls, plus ``labels`` and
    ``compare``.  :meth:`apply`, :meth:`labels` and :meth:`compare` go
    through it.
    """

    #: Short name used in reports and benchmark tables.
    name = "mechanism"

    _target: Any = None

    def _initial(self, seed: str) -> Any:
        """The replay target holding the single element ``seed``."""
        raise NotImplementedError

    @property
    def _replay_target(self) -> Any:
        if self._target is None:
            raise SimulationError("adapter not started")
        return self._target

    def start(self, seed: str) -> None:
        """Initialize with a single element labelled ``seed``."""
        self._target = self._initial(seed)

    def apply(self, operation) -> None:
        """Apply one trace operation."""
        from ..sim.trace import apply_operation

        apply_operation(self._replay_target, operation)

    def labels(self) -> List[str]:
        """Labels of the currently coexisting elements."""
        return self._replay_target.labels()

    def compare(self, first: str, second: str) -> Ordering:
        """Pairwise comparison of two live elements."""
        return self._replay_target.compare(first, second)

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


class ClockAdapter(MechanismAdapter):
    """Immutable clock values, one per live label, replayed by label.

    The adapter is its own replay target: ``update``, ``fork`` and ``join``
    replace the consumed labels' values with the clock vocabulary's
    :meth:`_event`, :meth:`_fork` and :meth:`_join` of them, and a ``sync``
    is a join then a fork.  The vocabulary defaults to the kernel
    protocol's ``event``/``fork``/``join``/``compare`` methods on the value;
    subclasses override only the hooks where their clock differs.

    Parameters
    ----------
    name:
        Report name.
    seed:
        Builds the seed element's clock on every :meth:`start`.
    size:
        Metadata size of one clock value, in bits.
    """

    def __init__(
        self, name: str, seed: Callable[[], Any], size: Callable[[Any], int]
    ) -> None:
        self.name = name
        self._seed = seed
        self._size = size
        self._clocks: Dict[str, Any] = {}
        self._minted = 0

    def _initial(self, seed: str) -> "ClockAdapter":
        # Fresh ids restart with every replay: plausible clocks hash them
        # into slots, so a reused adapter must replay a trace identically.
        self._minted = 0
        self._clocks = {seed: self._seed()}
        return self

    def _fresh_id(self, prefix: str) -> str:
        """A replica id unique within this replay: ``prefix`` plus a counter."""
        identifier = f"{prefix}{self._minted}"
        self._minted += 1
        return identifier

    def clock_of(self, label: str) -> Any:
        """The live clock registered under ``label``."""
        try:
            return self._clocks[label]
        except KeyError:
            raise SimulationError(
                f"{self.name} adapter has no element {label!r}"
            ) from None

    def _take(self, label: str) -> Any:
        clock = self.clock_of(label)
        del self._clocks[label]
        return clock

    # -- the label-based replay target ------------------------------------

    def update(self, source: str, result: str) -> None:
        self._clocks[result] = self._event(self._take(source))

    def fork(self, source: str, left: str, right: str) -> None:
        self._clocks[left], self._clocks[right] = self._fork(self._take(source))

    def join(self, first: str, second: str, result: str) -> None:
        self._clocks[result] = self._join(self._take(first), self._take(second))

    def sync(self, first: str, second: str, left: str, right: str) -> None:
        self.join(first, second, left)
        self.fork(left, left, right)

    def labels(self) -> List[str]:
        return list(self._clocks)

    def compare(self, first: str, second: str) -> Ordering:
        return self._compare(self.clock_of(first), self.clock_of(second))

    def size_in_bits(self, label: str) -> int:
        return self._size(self.clock_of(label))

    # -- the clock vocabulary ---------------------------------------------

    def _event(self, clock: Any) -> Any:
        return clock.event()

    def _fork(self, clock: Any) -> Any:
        return clock.fork()

    def _join(self, first: Any, second: Any) -> Any:
        return first.join(second)

    def _compare(self, first: Any, second: Any) -> Ordering:
        return first.compare(second)


class KernelClockAdapter(ClockAdapter):
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
        super().__init__(
            name, lambda: make(family, **make_kwargs), KernelClock.encoded_size_bits
        )

    def comparison_table(self) -> Mapping[str, KernelClock]:
        return self._clocks


class CausalAdapter(MechanismAdapter):
    """The causal-history oracle (global view), bitset-backed."""

    name = "causal-history"

    #: The configuration implementation this adapter drives.
    configuration_class = CausalConfiguration

    @property
    def configuration(self):
        return self._replay_target

    def _initial(self, seed: str):
        return self.configuration_class.initial(seed)

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

    @property
    def frontier(self) -> Frontier:
        return self._replay_target

    def _initial(self, seed: str) -> Frontier:
        return Frontier.initial(seed, reducing=self._reducing)

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

    def _initial(self, seed: str) -> Frontier:
        return Frontier.initial(seed, reducing=True, reroot_threshold=self._threshold)


class _TraceSyncVVSystem(DynamicVVSystem):
    """A :class:`DynamicVVSystem` whose ``sync`` replays a trace sync.

    The system's own ``sync`` keeps both replica identities in place; a
    trace sync produces two labels, so the baseline replays it as a join
    (the second identity retires) then a fork (a fresh identifier).
    """

    def sync(self, first, second, left, right):  # type: ignore[override]
        self.fork(self.join(first, second), left, right)


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

    @property
    def system(self) -> DynamicVVSystem:
        return self._replay_target

    def _initial(self, seed: str) -> DynamicVVSystem:
        source = self._id_source if self._id_source is not None else CentralIdSource()
        return _TraceSyncVVSystem.initial(seed, id_source=source)

    def size_in_bits(self, label: str) -> int:
        return self.system.element(label).size_in_bits()


class ITCAdapter(ClockAdapter):
    """Interval Tree Clocks, sized by ``ITCStamp.size_in_bits()``'s node model."""

    name = "interval-tree-clocks"

    def __init__(self) -> None:
        super().__init__(self.name, ITCStamp.seed, ITCStamp.size_in_bits)


class PlausibleAdapter(ClockAdapter):
    """Plausible clocks: constant size, approximate ordering."""

    def __init__(self, entries: int = 4) -> None:
        super().__init__(
            f"plausible-clocks-{entries}",
            lambda: PlausibleClock(entries, self._fresh_id("p")),
            PlausibleClock.size_in_bits,
        )

    def _fork(self, clock: PlausibleClock):
        return clock, clock.for_replica(self._fresh_id("p"))

    def _join(self, first: PlausibleClock, second: PlausibleClock) -> PlausibleClock:
        return first.merge(second)


class LamportAdapter(ClockAdapter):
    """Scalar Lamport clocks: causality-consistent but blind to concurrency.

    Included purely as a contrast baseline -- every pair the oracle reports
    as concurrent is (arbitrarily) ordered by a scalar clock, so the
    agreement rate quantifies how much information the single integer loses.
    """

    name = "lamport-clocks"

    def __init__(self) -> None:
        super().__init__(
            self.name,
            lambda: LamportClock(0, self._fresh_id("l")),
            LamportClock.size_in_bits,
        )

    def _event(self, clock: LamportClock) -> LamportClock:
        return clock.tick()

    def _fork(self, clock: LamportClock):
        return clock, LamportClock(clock.counter, self._fresh_id("l"))

    def _join(self, first: LamportClock, second: LamportClock) -> LamportClock:
        # A join merges knowledge, not a message receipt: the maximum
        # counter, without the tick of LamportClock.merge.
        return LamportClock(max(first.counter, second.counter), first.process)

    def _compare(self, first: LamportClock, second: LamportClock) -> Ordering:
        # Counters only; LamportClock.compare breaks ties by process id.
        if first.counter == second.counter:
            return Ordering.EQUAL
        return Ordering.BEFORE if first.counter < second.counter else Ordering.AFTER


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
