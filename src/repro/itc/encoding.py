"""Compact binary serialization of Interval Tree Clock stamps.

Mirrors the trie codec of :mod:`repro.core.encoding` for the ITC family: a
stamp is encoded as a self-delimiting bit stream -- the identity tree first,
then the event tree -- and the byte form carries an explicit bit count so
the zero padding of the final byte is unambiguous.

Bit grammar::

    id    := 0 v          -- leaf owning nothing (v=0) or everything (v=1)
           | 1 id id      -- interior node (left half, right half)
    event := 0 gamma(n)   -- leaf: n events everywhere in the subinterval
           | 1 gamma(n) event event
    gamma(n)              -- Elias gamma code of n+1 (so n = 0 is encodable)

The counters use Elias gamma rather than fixed-width fields, so the encoded
size reflects the actual information content -- this is the family's
``encoded_size_bits()`` yardstick in the space experiments.

All decoding failures raise :class:`~repro.core.errors.EncodingError` (or a
subclass), never a raw struct/index error.

The codec is **canonical both ways**: stamps normalize their trees at
construction, so an honest encoding is always the unique normal-form bit
string, and the decoders *reject* non-normal trees (a collapsible id pair,
mergeable event leaves, an unsunk child minimum) instead of quietly
normalizing them.  Distinct byte strings therefore never decode equal --
the property the decode interns key on, and what confines a
corrupted-but-parseable payload to "typed rejection" rather than silently
admitted damage.

Byte form
---------
:func:`itc_to_bytes` accumulates the bit stream in a single
arbitrary-precision integer (a gamma code is one shift-and-or, since its
leading zeros are implied by the coded value's width) that one bulk
``int.to_bytes`` converts.  :func:`itc_from_bytes` renders the payload
once as a string of ``"0"``/``"1"`` characters and runs the grammar over
it, finding each gamma code's leading one with ``str.find`` and parsing
its payload with a single ``int(..., 2)``.
"""

from __future__ import annotations

from typing import Tuple

from ..core.errors import EncodingError, EnvelopeTruncatedError
from .event_tree import EventTree
from .id_tree import IdTree

__all__ = [
    "stamp_components_to_packed",
    "itc_to_bytes",
    "itc_from_bytes",
    "itc_encoded_size_bits",
]


#: Deepest tree nesting the decoder will follow.  Honest ITC trees are
#: shallow (depth tracks the number of live interval splits); a crafted
#: all-ones payload would otherwise recurse until the interpreter dies with
#: a raw RecursionError instead of a typed rejection.
_MAX_TREE_DEPTH = 512


def _gamma_packed(counter: int, value: int, count: int) -> Tuple[int, int]:
    # gamma(n) = (width-1) zeros then the width bits of n+1, whose top bit
    # is 1 -- so the whole code is one shift by 2*width-1 and an or.
    shifted = counter + 1
    width = shifted.bit_length()
    return (value << (2 * width - 1)) | shifted, count + 2 * width - 1


def _id_packed(tree: IdTree, value: int, count: int) -> Tuple[int, int]:
    if isinstance(tree, tuple):
        value, count = _id_packed(tree[0], (value << 1) | 1, count + 1)
        return _id_packed(tree[1], value, count)
    return (value << 2) | (1 if tree else 0), count + 2


def _event_packed(tree: EventTree, value: int, count: int) -> Tuple[int, int]:
    if isinstance(tree, tuple):
        value, count = _gamma_packed(tree[0], (value << 1) | 1, count + 1)
        value, count = _event_packed(tree[1], value, count)
        return _event_packed(tree[2], value, count)
    return _gamma_packed(tree, value << 1, count + 1)


def stamp_components_to_packed(
    identity: IdTree, events: EventTree
) -> Tuple[int, int]:
    """The stamp bit stream as one packed ``(value, count)`` pair."""
    value, count = _id_packed(identity, 0, 0)
    return _event_packed(events, value, count)


def _read_gamma_str(bits: str, pos: int) -> Tuple[int, int]:
    # gamma = zeros(width-1) then the width bits of n+1 (top bit 1): find
    # the first 1 at C speed, then parse the payload with one int() call.
    one = bits.find("1", pos)
    if one < 0:
        raise EnvelopeTruncatedError("truncated ITC bit stream")
    zeros = one - pos
    if zeros > 128:
        raise EncodingError("ITC counter gamma code wider than 128 bits")
    end = one + zeros + 1
    if end > len(bits):
        raise EnvelopeTruncatedError("truncated ITC bit stream")
    return int(bits[one:end], 2) - 1, end


#: Marks an interior id node whose left child is still being parsed.
_OPEN = object()


def _read_id_str(bits: str, pos: int):
    """Decode an id tree, rejecting non-normal-form encodings on the way up.

    Honest encoders only ever serialize normalized trees (stamps normalize
    at construction), so a ``(0,0)``/``(1,1)`` subtree on the wire is
    damage or forgery -- accepting and silently re-normalizing it would
    let two distinct byte strings decode equal, breaking the canonicity
    the decode interns rely on.  Iterative: the explicit stack holds, per
    open interior node, either the :data:`_OPEN` marker (left child still
    parsing) or the finished left subtree -- one loop iteration per
    grammar token instead of one Python frame per node.  Truncation
    surfaces as ``IndexError`` for the caller to remap.
    """
    stack = []
    while True:
        if bits[pos] == "1":  # interior: open it, parse the left child
            pos += 1
            if len(stack) > _MAX_TREE_DEPTH:
                raise EncodingError(
                    f"ITC id tree deeper than {_MAX_TREE_DEPTH}"
                )
            stack.append(_OPEN)
            continue
        value = 1 if bits[pos + 1] == "1" else 0
        pos += 2
        while True:  # a subtree just finished: close completed interiors
            if not stack:
                return value, pos
            top = stack[-1]
            if top is _OPEN:
                stack[-1] = value  # left done; go parse the right child
                break
            stack.pop()
            if type(top) is int and top == value:
                raise EncodingError(
                    "non-canonical ITC id tree: "
                    f"({top}, {value}) must be collapsed to {value}"
                )
            value = (top, value)


def _read_event_str(bits: str, pos: int, depth: int):
    """Decode an event tree, rejecting non-normal-form encodings.

    Children are verified normal before their parent is assembled, so the
    minimum of a child is O(1) to read (its base / leaf value) and the
    parent checks are exactly the two ``normalize_event`` rewrite
    conditions -- equal leaf children, nonzero shared minimum -- raised as
    typed errors instead of applied, because an honest encoder never emits
    either (stamps normalize at construction).  Leaf children (a
    gamma-coded counter) are consumed in the parent's frame, so only
    interior nodes pay for a call.
    """
    if depth > _MAX_TREE_DEPTH:
        raise EncodingError(f"ITC event tree deeper than {_MAX_TREE_DEPTH}")
    if bits[pos] == "1":
        base, pos = _read_gamma_str(bits, pos + 1)
        # Leaf children (a "0" marker + gamma) are consumed here rather
        # than through a _read_event_str frame of their own.
        if bits[pos] == "0":
            left, pos = _read_gamma_str(bits, pos + 1)
        else:
            left, pos = _read_event_str(bits, pos, depth + 1)
        if bits[pos] == "0":
            right, pos = _read_gamma_str(bits, pos + 1)
        else:
            right, pos = _read_event_str(bits, pos, depth + 1)
        left_leaf = type(left) is int
        if left_leaf and left == right:
            raise EncodingError(
                "non-canonical ITC event tree: equal leaf children must be "
                "merged into their parent"
            )
        lmin = left if left_leaf else left[0]
        rmin = right if type(right) is int else right[0]
        if lmin and rmin:
            raise EncodingError(
                "non-canonical ITC event tree: the children's shared "
                "minimum must be sunk into the base"
            )
        return (base, left, right), pos
    return _read_gamma_str(bits, pos + 1)


# Bound lazily on first use: importing :mod:`repro.kernel.wire` at module
# load would run the kernel package __init__, which circles back into this
# module through the clock classes -- and a per-call ``import`` statement
# costs more than the decode it serves (~1us each on the hot path).
_wire = None
_ITCStamp = None

#: Decode-side intern, mirroring :data:`repro.core.encoding._DECODE_INTERN`:
#: the codec is canonical, so payload bytes identify the decoded stamp and
#: re-decoding a payload seen before, on any decode path, is a dictionary
#: hit.  Bounded FIFO; only successful decodes are cached.
_DECODE_INTERN = {}
_DECODE_INTERN_MAX = 1 << 15


def _bind_late_imports() -> None:
    global _wire, _ITCStamp
    from ..kernel import wire
    from .stamp import ITCStamp

    _wire = wire
    _ITCStamp = ITCStamp


def itc_encoded_size_bits(stamp) -> int:
    """Exact bit length of the compact encoding of ``stamp``."""
    _, count = stamp_components_to_packed(stamp.identity, stamp.events)
    return count


def itc_to_bytes(stamp) -> bytes:
    """Encode a stamp to bytes: a 4-byte bit count followed by packed bits.

    The bit stream is accumulated in one packed integer and converted with
    a single bulk ``int.to_bytes``.
    """
    if _wire is None:
        _bind_late_imports()
    value, count = stamp_components_to_packed(stamp.identity, stamp.events)
    return _wire.packed_to_length_prefixed(value, count, count_bytes=4)


def itc_from_bytes(payload):
    """Decode :func:`itc_to_bytes` output back into an :class:`ITCStamp`.

    Accepts any byte buffer (``bytes``/``bytearray``/``memoryview``)
    without copying it.  Canonical-form validation (exact byte length,
    zero padding) happens in
    :func:`repro.kernel.wire.packed_from_length_prefixed`, shared with the
    other bit-level codecs.
    """
    if _ITCStamp is None:
        _bind_late_imports()
    key = bytes(payload)
    cached = _DECODE_INTERN.get(key)
    if cached is not None:
        return cached
    # Inlined packed_from_length_prefixed(count_bytes=4): this is the
    # per-message hot path of every replication exchange.
    if len(payload) < 4:
        raise EnvelopeTruncatedError(
            f"packed bit stream needs a 4-byte length prefix, "
            f"got {len(payload)} bytes"
        )
    count = int.from_bytes(payload[:4], "big")
    body = payload[4:]
    if (count + 7) >> 3 != len(body):
        raise EncodingError(
            f"payload declares {count} bits but carries {len(body)} bytes"
        )
    padded = int.from_bytes(body, "big")
    pad = (-count) % 8
    if padded & ((1 << pad) - 1):
        raise EncodingError("nonzero padding bits in the final payload byte")
    bits = format(padded >> pad, "b").rjust(count, "0")
    try:
        identity, pos = _read_id_str(bits, 0)
        events, pos = _read_event_str(bits, pos, 0)
    except IndexError:
        raise EnvelopeTruncatedError("truncated ITC bit stream") from None
    if pos != count:
        raise EncodingError(
            f"{count - pos} trailing bits after decoding an ITC stamp"
        )
    # The grammar guarantees well-formed trees (0/1 id leaves, non-negative
    # counters) and the readers reject anything outside normal form, so the
    # full validating constructor would only repeat work already done.
    stamp = _ITCStamp._trusted(identity, events)
    if len(_DECODE_INTERN) >= _DECODE_INTERN_MAX:
        del _DECODE_INTERN[next(iter(_DECODE_INTERN))]
    _DECODE_INTERN[key] = stamp
    return stamp
