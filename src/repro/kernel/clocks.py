"""Concrete :class:`~repro.kernel.protocol.CausalityClock` implementations.

One class per registered clock family, each an immutable value carrying the
family's native mechanism plus the re-rooting **epoch tag**:

* :class:`VersionStampClock`  -- the paper's version stamps (``core``);
* :class:`ITCClock`           -- Interval Tree Clocks (``itc``);
* :class:`DynamicVVClock`     -- dynamic version vectors (``vv``);
* :class:`CausalHistoryClock` -- the causal-history oracle (``causal``).

All four speak the same fork/event/join/compare calculus, serialize through
the versioned wire envelope (:mod:`repro.kernel.envelope`) and report their
size through ``encoded_size_bits()`` -- the exact bit length of the family's
compact binary payload, which is the one yardstick the space experiments
measure every family by.

Epoch semantics are uniform: ``fork``/``event``/``join`` preserve the epoch,
``compare``/``join`` across *different* epochs raise
:class:`~repro.core.errors.EpochMismatch`, and ``with_epoch`` re-tags a clock
(the hook re-rooting uses to bump a whole frontier at once).

Identity notes for the families the paper calls *identifier-dependent*:

* ``DynamicVVClock`` carries opaque 128-bit (UUID-sized) replica
  identifiers, the cost the paper's size argument charges dynamic version
  vectors for.  Identifiers are allocated *locally* by extending the
  parent's lineage path on each fork -- forks therefore never fail, unlike
  the :class:`~repro.vv.dynamic_vv.DynamicVVSystem` baseline that models a
  central allocation authority -- but each identifier still occupies a full
  fixed-width wire slot.  A lineage that forks more than 127 times in one
  unbroken line exhausts its identifier space and raises ``EncodingError``.
* ``CausalHistoryClock`` shares one process-global event arena (the
  "global view" the oracle is allowed and version stamps eliminate); events
  cost a 64-bit identity each on the wire.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Tuple

from ..causal.events import EventSource
from ..causal.history import CausalHistory
from ..core.encoding import name_to_packed, stamp_from_bytes
from ..core.errors import (
    EncodingError,
    EnvelopeTruncatedError,
    EpochMismatch,
    StampError,
)
from ..core.order import Ordering
from ..core.stamp import VersionStamp
from ..itc.encoding import _event_packed, itc_from_bytes
from ..itc.stamp import ITCStamp
from .wire import ByteReader, append_uvarint, packed_to_length_prefixed

__all__ = [
    "KernelClock",
    "VersionStampClock",
    "ITCClock",
    "DynamicVVClock",
    "CausalHistoryClock",
]

#: Width of one replica identifier slot in the dynamic-VV wire format.
VV_ID_BYTES = 16
#: Width of one update counter slot in the dynamic-VV wire format.
VV_COUNTER_BYTES = 4
#: Width of one event identity in the causal-history wire format.
EVENT_ID_BYTES = 8

#: Densest event index the causal-history codec will move over the wire.
#: The arena issues dense indices, so anything near the 64-bit slot ceiling
#: is corruption -- and histories are packed bitsets, so naively admitting a
#: huge index would allocate a multi-megabyte integer.  Enforced
#: symmetrically on encode and decode, so every envelope this library
#: produces is one it can read back; an arena that has genuinely issued
#: more than this many events is outside the oracle codec's domain and is
#: reported as such (with an honest message) at encode time.
MAX_EVENT_INDEX = 1 << 24

#: The process-global event arena shared by every causal-history clock --
#: the oracle's deliberate "global view" (see :mod:`repro.causal.events`).
_GLOBAL_EVENTS = EventSource()

# Bound lazily on first use: :mod:`.envelope` imports this module, and a
# per-call ``import`` statement costs more than the envelope framing it
# serves on every freshly minted clock's first ``to_bytes``.
_envelope = None


def _bind_envelope() -> None:
    global _envelope
    from . import envelope

    _envelope = envelope


def _uvarint_len(value: int) -> int:
    """Byte length of the LEB128 encoding of ``value``."""
    return max(1, (value.bit_length() + 6) // 7)


class KernelClock:
    """Common machinery of the kernel clock families (epoch + envelope).

    Instances are immutable values, which makes them **encode-once**: the
    compact payload, the full envelope frame, the knowledge bytes, the
    exact payload bit size and the hash are each computed on first use
    and cached in dedicated slots (no instance ever grows a
    ``__dict__``).  A clock that is serialized repeatedly -- the common
    case in anti-entropy, where the same stamp is re-shipped every round
    until it changes -- pays for encoding exactly once.
    """

    #: Registry name; doubles as the envelope family tag (via the registry).
    family: ClassVar[str] = "abstract"

    __slots__ = (
        "_epoch", "_hash", "_wire", "_payload", "_knowledge", "_payload_bits"
    )

    def __init__(self, *, epoch: int = 0) -> None:
        if epoch < 0:
            raise StampError(f"epochs are non-negative, got {epoch}")
        object.__setattr__(self, "_epoch", epoch)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_wire", None)
        object.__setattr__(self, "_payload", None)
        object.__setattr__(self, "_knowledge", None)
        object.__setattr__(self, "_payload_bits", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    @property
    def epoch(self) -> int:
        """The re-rooting epoch this clock belongs to."""
        return self._epoch

    def _require_peer(self, other: "KernelClock", operation: str) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot {operation} a {self.family!r} clock with "
                f"{type(other).__name__}"
            )
        if other._epoch != self._epoch:
            raise EpochMismatch(self._epoch, other._epoch, operation)

    # -- envelope glue ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as the versioned, epoch-tagged wire envelope.

        Encode-once: the frame is built on first call and cached (the
        clock is immutable, so the bytes can never go stale).
        """
        cached = self._wire
        if cached is None:
            if _envelope is None:
                _bind_envelope()
            cached = _envelope.encode_envelope(self)
            object.__setattr__(self, "_wire", cached)
        return cached

    @classmethod
    def from_bytes(cls, data: bytes) -> "KernelClock":
        """Decode an envelope; on a subclass, the family must match."""
        if _envelope is None:
            _bind_envelope()
        clock = _envelope.decode_envelope(data)
        if cls is not KernelClock and not isinstance(clock, cls):
            raise EncodingError(
                f"envelope carries a {clock.family!r} clock, "
                f"not {cls.family!r}"
            )
        return clock

    # -- family payload hooks (implemented per subclass) ------------------

    def payload_bytes(self) -> bytes:
        """The family's compact binary payload (without envelope framing).

        Cached on first call; subclasses implement :meth:`_payload_bytes`.
        """
        cached = self._payload
        if cached is None:
            cached = self._payload_bytes()
            object.__setattr__(self, "_payload", cached)
        return cached

    def knowledge_bytes(self) -> bytes:
        """Canonical bytes of exactly what :meth:`compare` reads (cached).

        Two clocks of one family and epoch with equal knowledge bytes
        compare EQUAL, whatever their identities: the version-stamp update
        component, ITC's event tree, the dynamic-VV vector, the whole
        causal history.  A wire session's digest leg hashes these to
        settle keys with nothing to sync before any stamp ships.
        """
        cached = self._knowledge
        if cached is None:
            cached = self._knowledge_bytes()
            object.__setattr__(self, "_knowledge", cached)
        return cached

    def encoded_size_bits(self) -> int:
        """Exact bit length of the compact binary payload (cached)."""
        cached = self._payload_bits
        if cached is None:
            cached = self._encoded_size_bits()
            object.__setattr__(self, "_payload_bits", cached)
        return cached

    def _payload_bytes(self) -> bytes:
        raise NotImplementedError

    def _knowledge_bytes(self) -> bytes:
        raise NotImplementedError

    def _encoded_size_bits(self) -> int:
        raise NotImplementedError

    @classmethod
    def _blank(cls, epoch: int) -> "KernelClock":
        """Fast partial constructor for the decode hot path.

        Skips ``__init__`` (the epoch arrives from an unsigned wire field,
        so the non-negativity check is already discharged) and leaves the
        family slots for the caller to fill with ``object.__setattr__``.
        """
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "_epoch", epoch)
        _set(self, "_hash", None)
        _set(self, "_wire", None)
        _set(self, "_payload", None)
        _set(self, "_knowledge", None)
        _set(self, "_payload_bits", None)
        return self

    @classmethod
    def _decode_payload(cls, payload: bytes, epoch: int) -> "KernelClock":
        raise NotImplementedError

    def _state(self) -> Tuple:
        """Hashable family state, used for equality and hashing."""
        raise NotImplementedError

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._epoch == other._epoch and self._state() == other._state()
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((type(self).__name__, self._epoch, self._state()))
            object.__setattr__(self, "_hash", cached)
        return cached


class VersionStampClock(KernelClock):
    """The paper's version stamps behind the kernel protocol."""

    family = "version-stamp"

    __slots__ = ("_stamp",)

    def __init__(
        self,
        stamp: VersionStamp = None,
        *,
        epoch: int = 0,
        reducing: bool = True,
    ) -> None:
        super().__init__(epoch=epoch)
        if stamp is None:
            stamp = VersionStamp.seed(reducing=reducing)
        object.__setattr__(self, "_stamp", stamp)

    @property
    def stamp(self) -> VersionStamp:
        """The underlying :class:`~repro.core.stamp.VersionStamp`."""
        return self._stamp

    def __repr__(self) -> str:
        return f"VersionStampClock({self._stamp}, epoch={self._epoch})"

    def with_epoch(self, epoch: int) -> "VersionStampClock":
        return VersionStampClock(self._stamp, epoch=epoch)

    def fork(self) -> Tuple["VersionStampClock", "VersionStampClock"]:
        left, right = self._stamp.fork()
        return (
            VersionStampClock(left, epoch=self._epoch),
            VersionStampClock(right, epoch=self._epoch),
        )

    def event(self) -> "VersionStampClock":
        return VersionStampClock(self._stamp.update(), epoch=self._epoch)

    def join(self, other: "VersionStampClock") -> "VersionStampClock":
        self._require_peer(other, "join")
        return VersionStampClock(self._stamp.join(other._stamp), epoch=self._epoch)

    def compare(self, other: "VersionStampClock") -> Ordering:
        self._require_peer(other, "compare")
        return self._stamp.compare(other._stamp)

    def _encoded_size_bits(self) -> int:
        return self._stamp.encoded_size_bits()

    def _payload_bytes(self) -> bytes:
        flags = 0x01 if self._stamp.reducing else 0x00
        return bytes((flags,)) + self._stamp.to_bytes()

    def _knowledge_bytes(self) -> bytes:
        value, count = name_to_packed(self._stamp.update_component)
        return packed_to_length_prefixed(value, count, count_bytes=4)

    @classmethod
    def _decode_payload(cls, payload: bytes, epoch: int) -> "VersionStampClock":
        if not len(payload):
            raise EnvelopeTruncatedError(
                "version-stamp payload truncated: missing the flags byte"
            )
        flags = payload[0]
        if flags & ~0x01:
            raise EncodingError(f"unknown version-stamp flags 0x{flags:02x}")
        stamp = stamp_from_bytes(payload[1:], reducing=bool(flags & 0x01))
        clock = cls._blank(epoch)
        object.__setattr__(clock, "_stamp", stamp)
        return clock

    def _state(self) -> Tuple:
        return (self._stamp, self._stamp.reducing)


class ITCClock(KernelClock):
    """Interval Tree Clocks behind the kernel protocol."""

    family = "itc"

    __slots__ = ("_stamp",)

    def __init__(self, stamp: ITCStamp = None, *, epoch: int = 0) -> None:
        super().__init__(epoch=epoch)
        if stamp is None:
            stamp = ITCStamp.seed()
        object.__setattr__(self, "_stamp", stamp)

    @property
    def stamp(self) -> ITCStamp:
        """The underlying :class:`~repro.itc.stamp.ITCStamp`."""
        return self._stamp

    def __repr__(self) -> str:
        return f"ITCClock({self._stamp!r}, epoch={self._epoch})"

    def with_epoch(self, epoch: int) -> "ITCClock":
        return ITCClock(self._stamp, epoch=epoch)

    def fork(self) -> Tuple["ITCClock", "ITCClock"]:
        left, right = self._stamp.fork()
        return ITCClock(left, epoch=self._epoch), ITCClock(right, epoch=self._epoch)

    def event(self) -> "ITCClock":
        return ITCClock(self._stamp.event(), epoch=self._epoch)

    def join(self, other: "ITCClock") -> "ITCClock":
        self._require_peer(other, "join")
        return ITCClock(self._stamp.join(other._stamp), epoch=self._epoch)

    def compare(self, other: "ITCClock") -> Ordering:
        self._require_peer(other, "compare")
        return self._stamp.compare(other._stamp)

    def _encoded_size_bits(self) -> int:
        return self._stamp.encoded_size_bits()

    def _payload_bytes(self) -> bytes:
        return self._stamp.to_bytes()

    def _knowledge_bytes(self) -> bytes:
        value, count = _event_packed(self._stamp.events, 0, 0)
        return packed_to_length_prefixed(value, count, count_bytes=4)

    @classmethod
    def _decode_payload(cls, payload: bytes, epoch: int) -> "ITCClock":
        clock = cls._blank(epoch)
        object.__setattr__(clock, "_stamp", itc_from_bytes(payload))
        return clock

    def _state(self) -> Tuple:
        return (repr(self._stamp.identity), repr(self._stamp.events))


class DynamicVVClock(KernelClock):
    """Dynamic version vectors behind the kernel protocol.

    The clock is a triple ``(replica id, fork count, vector)``:

    * the replica identifier is an opaque UUID-sized (128-bit) value,
      allocated locally by extending the parent's lineage path on each fork
      (the ``k``-th fork of a replica appends ``1``\\ :sup:`k` ``0`` to its
      path, which keeps every identifier ever issued unique without any
      central authority);
    * the fork count makes the *next* allocation unique and therefore
      travels with the clock on the wire;
    * the vector maps identifiers to update counters, exactly the classic
      mechanism (increment own entry on ``event``, entry-wise max on
      ``join``, entry-wise comparison for the pre-order).

    Identifiers are stored internally as sentinel-prefixed path codes (the
    :class:`~repro.core.bitstring.BitString` trick), but the wire format --
    and therefore ``encoded_size_bits()`` -- charges the full fixed slot the
    paper's size argument assigns to globally unique replica identifiers.
    """

    family = "vv-dynamic"

    __slots__ = ("_replica", "_forks", "_counters")

    #: Sentinel-prefixed path code of the seed replica (the empty path).
    _SEED_REPLICA = 1

    def __init__(
        self,
        replica: int = _SEED_REPLICA,
        forks: int = 0,
        counters: Dict[int, int] = None,
        *,
        epoch: int = 0,
    ) -> None:
        super().__init__(epoch=epoch)
        object.__setattr__(self, "_replica", replica)
        object.__setattr__(self, "_forks", forks)
        object.__setattr__(self, "_counters", dict(counters or {}))

    @property
    def replica_id(self) -> int:
        """This replica's identifier (a sentinel-prefixed lineage path code)."""
        return self._replica

    @property
    def counters(self) -> Dict[int, int]:
        """A copy of the identifier -> update-counter vector."""
        return dict(self._counters)

    def __repr__(self) -> str:
        return (
            f"DynamicVVClock(replica={self._replica:#x}, forks={self._forks}, "
            f"entries={len(self._counters)}, epoch={self._epoch})"
        )

    def with_epoch(self, epoch: int) -> "DynamicVVClock":
        return DynamicVVClock(
            self._replica, self._forks, self._counters, epoch=epoch
        )

    def fork(self) -> Tuple["DynamicVVClock", "DynamicVVClock"]:
        # The k-th fork of path p issues the fresh path p·1^k·0; p itself
        # lives on in the left child.  Fresh paths are never reissued: a
        # replica's fork counter only grows, and only live replicas fork.
        # Check the identifier-space bound *before* building the child code
        # bit by bit -- the fork counter travels on the wire, and looping
        # over an unvalidated huge value would hang here.
        if self._replica.bit_length() + self._forks + 1 > VV_ID_BYTES * 8:
            raise EncodingError(
                f"replica lineage exhausted its {VV_ID_BYTES * 8}-bit "
                f"identifier space after {self._forks + 1} forks"
            )
        child = self._replica
        for _ in range(self._forks):
            child = (child << 1) | 1
        child <<= 1
        left = DynamicVVClock(
            self._replica, self._forks + 1, self._counters, epoch=self._epoch
        )
        right = DynamicVVClock(child, 0, self._counters, epoch=self._epoch)
        return left, right

    def event(self) -> "DynamicVVClock":
        counters = dict(self._counters)
        counters[self._replica] = counters.get(self._replica, 0) + 1
        return DynamicVVClock(
            self._replica, self._forks, counters, epoch=self._epoch
        )

    def join(self, other: "DynamicVVClock") -> "DynamicVVClock":
        self._require_peer(other, "join")
        counters = dict(self._counters)
        for replica, counter in other._counters.items():
            if counter > counters.get(replica, 0):
                counters[replica] = counter
        # The join result continues the left identity; the right identity
        # retires (exactly Ratner-style retirement -- its entry lingers).
        return DynamicVVClock(
            self._replica,
            max(self._forks, other._forks if other._replica == self._replica else 0),
            counters,
            epoch=self._epoch,
        )

    def leq(self, other: "DynamicVVClock") -> bool:
        return all(
            counter <= other._counters.get(replica, 0)
            for replica, counter in self._counters.items()
        )

    def compare(self, other: "DynamicVVClock") -> Ordering:
        self._require_peer(other, "compare")
        forward = self.leq(other)
        backward = other.leq(self)
        if forward and backward:
            return Ordering.EQUAL
        if forward:
            return Ordering.BEFORE
        if backward:
            return Ordering.AFTER
        return Ordering.CONCURRENT

    def _encoded_size_bits(self) -> int:
        # Closed form of len(payload_bytes()) * 8 -- this sits on the
        # per-step size-sampling hot path, so don't build the payload.
        entries = len(self._counters)
        return 8 * (
            VV_ID_BYTES
            + _uvarint_len(self._forks)
            + _uvarint_len(entries)
            + entries * (VV_ID_BYTES + VV_COUNTER_BYTES)
        )

    def _payload_bytes(self) -> bytes:
        out = bytearray()
        out += self._id_slot(self._replica)
        append_uvarint(out, self._forks)
        append_uvarint(out, len(self._counters))
        for replica in sorted(self._counters):
            counter = self._counters[replica]
            if counter.bit_length() > VV_COUNTER_BYTES * 8:
                raise EncodingError(
                    f"update counter {counter} exceeds the "
                    f"{VV_COUNTER_BYTES * 8}-bit wire slot"
                )
            out += self._id_slot(replica)
            out += counter.to_bytes(VV_COUNTER_BYTES, "big")
        return bytes(out)

    def _knowledge_bytes(self) -> bytes:
        # The vector alone: own identifier and fork count never reach
        # compare(), and a zero counter compares like an absent entry.
        out = bytearray()
        for replica, counter in sorted(self._counters.items()):
            if counter:
                out += replica.to_bytes(VV_ID_BYTES, "big")
                append_uvarint(out, counter)
        return bytes(out)

    @staticmethod
    def _id_slot(replica: int) -> bytes:
        if replica <= 0 or replica.bit_length() > VV_ID_BYTES * 8:
            raise EncodingError(
                f"replica identifier {replica:#x} does not fit the "
                f"{VV_ID_BYTES * 8}-bit wire slot"
            )
        return replica.to_bytes(VV_ID_BYTES, "big")

    @classmethod
    def _decode_payload(cls, payload: bytes, epoch: int) -> "DynamicVVClock":
        reader = ByteReader(payload)
        replica = reader.fixed_uint(VV_ID_BYTES)
        if replica == 0:
            raise EncodingError("replica identifier slot may not be zero")
        forks = reader.uvarint()
        # Any clock this library can produce satisfies the lineage bound
        # with at most one pending fork; anything larger is corruption (and
        # would make the next fork() loop over a huge counter).
        if replica.bit_length() + forks > VV_ID_BYTES * 8:
            raise EncodingError(
                f"fork counter {forks} is inconsistent with the "
                f"{VV_ID_BYTES * 8}-bit identifier space"
            )
        entries = reader.uvarint()
        counters: Dict[int, int] = {}
        previous = 0
        for _ in range(entries):
            entry_id = reader.fixed_uint(VV_ID_BYTES)
            if entry_id <= previous:
                # Encode emits entries sorted by identifier; demanding the
                # same on decode keeps the encoding canonical and subsumes
                # the zero-identifier and duplicate checks.
                raise EncodingError(
                    f"vector entries out of canonical order "
                    f"({entry_id:#x} after {previous:#x})"
                )
            previous = entry_id
            counter = reader.fixed_uint(VV_COUNTER_BYTES)
            if counter == 0:
                raise EncodingError("vector entries carry positive counters")
            counters[entry_id] = counter
        reader.expect_exhausted("a dynamic-VV clock")
        return cls(replica, forks, counters, epoch=epoch)

    def _state(self) -> Tuple:
        return (
            self._replica,
            self._forks,
            tuple(sorted(self._counters.items())),
        )


class CausalHistoryClock(KernelClock):
    """The causal-history oracle behind the kernel protocol.

    Histories are packed event bitsets (:mod:`repro.causal.history`); fresh
    events come from one process-global arena -- the "global view" the
    oracle is explicitly allowed (and version stamps exist to eliminate).
    On the wire every event costs its full 64-bit identity, which is the
    oracle's honest, unbounded cost in the space experiments.

    Because the family *is* the global view, its wire form is only
    meaningful within the domain of one event arena: both encode and decode
    reject identities the process's arena has not issued.  (An envelope
    minted under a different arena is outside the oracle's model -- and
    accepting arbitrary identities would let one crafted envelope poison
    the arena or balloon every later bitset.)

    Known cost of the single shared arena: indices grow monotonically for
    the life of the process, so in a process running many independent
    replays a late-created history's packed bitset is as wide as the
    all-time event count (bounded by the codec's ``MAX_EVENT_INDEX``, i.e.
    ~2 MB worst case).  The per-run oracle adapter
    (:class:`~repro.kernel.adapters.CausalAdapter`) avoids this by giving
    each run a fresh :class:`~repro.causal.events.EventSource`; the kernel
    family deliberately keeps one arena because its envelopes must stay
    decodable across clock lineages within the process.
    """

    family = "causal-history"

    __slots__ = ("_history",)

    def __init__(self, history: CausalHistory = None, *, epoch: int = 0) -> None:
        super().__init__(epoch=epoch)
        if history is None:
            history = CausalHistory.empty()
        object.__setattr__(self, "_history", history)

    @property
    def history(self) -> CausalHistory:
        """The underlying packed event set."""
        return self._history

    def __repr__(self) -> str:
        return f"CausalHistoryClock({self._history!r}, epoch={self._epoch})"

    def with_epoch(self, epoch: int) -> "CausalHistoryClock":
        return CausalHistoryClock(self._history, epoch=epoch)

    def fork(self) -> Tuple["CausalHistoryClock", "CausalHistoryClock"]:
        return (
            CausalHistoryClock(self._history, epoch=self._epoch),
            CausalHistoryClock(self._history, epoch=self._epoch),
        )

    def event(self) -> "CausalHistoryClock":
        index = _GLOBAL_EVENTS.fresh_index()
        return CausalHistoryClock(
            self._history.with_event(index), epoch=self._epoch
        )

    def join(self, other: "CausalHistoryClock") -> "CausalHistoryClock":
        self._require_peer(other, "join")
        return CausalHistoryClock(
            self._history.union(other._history), epoch=self._epoch
        )

    def compare(self, other: "CausalHistoryClock") -> Ordering:
        self._require_peer(other, "compare")
        return self._history.compare(other._history)

    def _encoded_size_bits(self) -> int:
        # Closed form of len(payload_bytes()) * 8: event_count is a cached
        # popcount, so no event views or payload bytes are materialized on
        # the per-step size-sampling hot path.
        count = self._history.event_count
        return 8 * (_uvarint_len(count) + count * EVENT_ID_BYTES)

    @staticmethod
    def _require_issued(index: int) -> None:
        if index >= _GLOBAL_EVENTS.next_index:
            raise EncodingError(
                f"event identity {index} was never issued by this process's "
                f"global view (next fresh index: {_GLOBAL_EVENTS.next_index}); "
                f"causal-history envelopes only travel within one arena"
            )
        if index >= MAX_EVENT_INDEX:
            # A genuinely issued identity can still exceed the wire bound in
            # an extremely long-lived arena (> 16.7M events); report that
            # honestly rather than claiming the identity is foreign.
            raise EncodingError(
                f"event identity {index} exceeds the causal-history wire "
                f"bound {MAX_EVENT_INDEX}; the oracle's envelope format "
                f"does not cover arenas this old"
            )

    def _payload_bytes(self) -> bytes:
        out = bytearray()
        events = list(self._history)
        append_uvarint(out, len(events))
        for event in events:
            self._require_issued(event.sequence)
            out += event.sequence.to_bytes(EVENT_ID_BYTES, "big")
        return bytes(out)

    def _knowledge_bytes(self) -> bytes:
        return self.payload_bytes()

    @classmethod
    def _decode_payload(cls, payload: bytes, epoch: int) -> "CausalHistoryClock":
        reader = ByteReader(payload)
        count = reader.uvarint()
        bits = 0
        previous = -1
        for _ in range(count):
            index = reader.fixed_uint(EVENT_ID_BYTES)
            cls._require_issued(index)
            if index <= previous:
                # Encode emits identities in ascending order; demanding the
                # same on decode keeps the encoding canonical (no two byte
                # strings decode equal) and subsumes the duplicate check.
                raise EncodingError(
                    f"event identities out of canonical order ({index} after "
                    f"{previous})"
                )
            previous = index
            bits |= 1 << index
        reader.expect_exhausted("a causal-history clock")
        return cls(CausalHistory.from_bits(bits), epoch=epoch)

    def _state(self) -> Tuple:
        return (self._history.bits,)
