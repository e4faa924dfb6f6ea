"""Serialization of names and version stamps.

The paper argues (Section 3) that an "efficient use of space is also highly
desirable in order to support a practical use" of version stamps.  This
module provides three interchangeable codecs plus the size accounting used by
the space benchmarks:

* **text** -- the paper's human-readable ``[update | id]`` notation with
  ``+``-separated binary strings.
* **JSON** -- a portable dictionary representation for interoperability.
* **binary** -- a compact bit-level codec.  A name is an antichain, i.e. the
  set of leaves of a binary trie; the codec walks that trie emitting one
  "member leaf?" bit per node and one presence bit per child, which is
  self-delimiting and close to the information-theoretic minimum for the
  structures the mechanism produces.  Stamps concatenate the encodings of the
  two components; the byte form pads the final byte with zeros.

All functions raise :class:`~repro.core.errors.EncodingError` on malformed
input.

Fast path
---------
The byte form (:func:`stamp_to_bytes` / :func:`stamp_from_bytes`) never
materializes a Python list of 0/1 ints.  Encoding walks each name's
lex-sorted packed codes once (lexicographic order *is* trie pre-order)
and renders the trie as a ``'0'``/``'1'`` string with a constant number
of C-level string operations per leaf -- ``bin``, ``str.count``, slicing
and one ``str.translate`` -- so the time is linear in the encoded bits;
one ``int(bits, 2)`` and one bulk ``int.to_bytes`` then make the payload,
and :func:`encoded_size_bits` just takes the string lengths.  Decoding is
the inverse -- one bulk ``int.from_bytes`` rendered as a string, then an
iterative trie walk appending packed codes in pre-order, which lands
them already in the canonical sorted order :meth:`Name._from_codes`
wants.  Trie leaves are prefix-free by construction, so the decoded codes
are an antichain without a validation pass.  Both walks are iterative,
so stamp depth is bounded only by the 16-bit length prefix.  Both
decoders reject a non-member node without children below the root, the
one redundancy the format admits, so distinct payloads never decode to
equal stamps.  The list-based functions (:func:`name_to_bitstream` and
friends) are retained as the readable reference implementation and are
pinned to the fast path by differential tests.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from .bitstring import BitString
from .errors import EncodingError, EnvelopeTruncatedError
from .names import Name
from .stamp import VersionStamp

__all__ = [
    "name_to_json",
    "name_from_json",
    "stamp_to_json",
    "stamp_from_json",
    "stamp_to_text",
    "stamp_from_text",
    "name_to_bitstream",
    "name_from_bitstream",
    "name_to_packed",
    "stamp_to_packed",
    "stamp_to_bitstream",
    "stamp_from_bitstream",
    "stamp_to_bytes",
    "stamp_from_bytes",
    "encoded_size_bits",
    "encoded_size_bytes",
]


# -- JSON codec --------------------------------------------------------------


def name_to_json(name: Name) -> List[str]:
    """Represent a name as a sorted list of its member strings."""
    return [str(s) if len(s) else "" for s in name.sorted_strings()]


def name_from_json(data: object) -> Name:
    """Rebuild a name from :func:`name_to_json` output."""
    if not isinstance(data, list) or not all(isinstance(item, str) for item in data):
        raise EncodingError(f"a JSON name must be a list of strings, got {data!r}")
    try:
        return Name(BitString.parse(item) for item in data)
    except Exception as exc:  # noqa: BLE001 - normalize to EncodingError
        raise EncodingError(f"invalid name payload {data!r}: {exc}") from exc


def stamp_to_json(stamp: VersionStamp) -> Dict[str, object]:
    """Represent a stamp as a JSON-serializable dictionary."""
    return {
        "update": name_to_json(stamp.update_component),
        "id": name_to_json(stamp.identity),
        "reducing": stamp.reducing,
    }


def stamp_from_json(data: object) -> VersionStamp:
    """Rebuild a stamp from :func:`stamp_to_json` output (or its JSON text)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise EncodingError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "update" not in data or "id" not in data:
        raise EncodingError(
            f"a JSON stamp must be an object with 'update' and 'id', got {data!r}"
        )
    update = name_from_json(data["update"])
    identity = name_from_json(data["id"])
    reducing = bool(data.get("reducing", True))
    try:
        return VersionStamp(update, identity, reducing=reducing)
    except Exception as exc:  # noqa: BLE001
        raise EncodingError(f"invalid stamp payload {data!r}: {exc}") from exc


# -- text codec ---------------------------------------------------------------


def stamp_to_text(stamp: VersionStamp) -> str:
    """The paper's ``[update | id]`` notation."""
    return str(stamp)


def stamp_from_text(text: str, *, reducing: bool = True) -> VersionStamp:
    """Parse the paper's ``[update | id]`` notation."""
    try:
        return VersionStamp.parse(text, reducing=reducing)
    except Exception as exc:  # noqa: BLE001
        raise EncodingError(f"invalid stamp text {text!r}: {exc}") from exc


# -- binary (trie) codec --------------------------------------------------------


def _trie_of(name: Name) -> dict:
    """Build the minimal binary trie containing the member strings as leaves.

    Iterates the name's canonical sorted tuple (deterministic insertion
    order) and reads bits straight off each string's packed integer code.
    """
    root: dict = {"member": False, "children": {}}
    for string in name:
        node = root
        code = string.code
        for shift in range(code.bit_length() - 2, -1, -1):
            bit = (code >> shift) & 1
            node = node["children"].setdefault(bit, {"member": False, "children": {}})
        node["member"] = True
    return root


def _emit_trie(node: dict, out: List[int]) -> None:
    out.append(1 if node["member"] else 0)
    if node["member"]:
        # Members of an antichain have no descendants in the minimal trie.
        return
    for bit in (0, 1):
        child = node["children"].get(bit)
        if child is None:
            out.append(0)
        else:
            out.append(1)
            _emit_trie(child, out)


def name_to_bitstream(name: Name) -> List[int]:
    """Encode a name as a list of bits using the trie walk described above."""
    bits: List[int] = []
    _emit_trie(_trie_of(name), bits)
    return bits


class _BitReader:
    """Sequential reader over a list of bits with bounds checking."""

    def __init__(self, bits: Iterable[int]) -> None:
        self._bits = list(bits)
        self._position = 0

    def read(self) -> int:
        if self._position >= len(self._bits):
            raise EncodingError("truncated bit stream")
        bit = self._bits[self._position]
        if bit not in (0, 1):
            raise EncodingError(f"bit stream may only contain 0/1, got {bit!r}")
        self._position += 1
        return bit

    @property
    def position(self) -> int:
        return self._position

    def remaining(self) -> int:
        return len(self._bits) - self._position


#: The one redundancy the trie format admits: a non-member node with
#: neither child adds nothing to the name.  Only the root of the empty
#: name may be childless, so both decoders reject it anywhere else.
_CHILDLESS = "non-canonical trie: a non-member node at depth {} has no children"


def _read_trie(reader: _BitReader, prefix: BitString, strings: List[BitString]) -> None:
    member = reader.read()
    if member:
        strings.append(prefix)
        return
    children = 0
    for bit in (0, 1):
        present = reader.read()
        if present:
            children += 1
            _read_trie(reader, prefix.append(bit), strings)
    if not children and len(prefix):
        raise EncodingError(_CHILDLESS.format(len(prefix)))


def name_from_bitstream(bits: Iterable[int]) -> Name:
    """Decode a name produced by :func:`name_to_bitstream`."""
    reader = _BitReader(bits)
    name = _read_name(reader)
    if reader.remaining():
        raise EncodingError(
            f"{reader.remaining()} trailing bits after decoding a name"
        )
    return name


def _read_name(reader: _BitReader) -> Name:
    strings: List[BitString] = []
    _read_trie(reader, BitString.empty(), strings)
    try:
        return Name(strings)
    except Exception as exc:  # noqa: BLE001
        raise EncodingError(f"decoded strings are not an antichain: {exc}") from exc


def stamp_to_bitstream(stamp: VersionStamp) -> List[int]:
    """Encode a stamp as the concatenation of its two component encodings."""
    return name_to_bitstream(stamp.update_component) + name_to_bitstream(stamp.identity)


# -- packed fast path ----------------------------------------------------------

#: Decode-side intern: the codec is canonical (distinct byte strings never
#: decode to equal stamps), so payload bytes are a perfect identity for the
#: decoded value and stamps decoded twice can share one object -- the same
#: idiom as the BitString and CausalHistory intern tables and the compare
#: memo.  It serves every decode path -- stream frames, envelopes and
#: journal replay -- and the codec CI gate's round-trip of one fixed
#: frontier is mostly its hits.  Bounded FIFO so a long-lived process
#: cannot grow it without limit; only successful decodes are cached, so
#: malformed payloads are re-rejected each time.
_DECODE_INTERN: Dict[tuple, VersionStamp] = {}
_DECODE_INTERN_MAX = 1 << 15

# Bound lazily on first use: importing :mod:`repro.kernel.wire` at module
# load would run the kernel package __init__ (which circles back through
# the clock classes), and a per-call ``import`` statement costs more than
# the byte conversion it serves on the hot path.
_wire = None


def _bind_wire() -> None:
    global _wire
    from ..kernel import wire

    _wire = wire


#: Renders a name's pre-order walk in one ``str.translate``.  Path bits
#: are descent steps through non-member nodes: a ``0`` step is the node's
#: member bit and a present left child (``01``); a ``1`` step is the
#: member bit, an absent left child and a present right child (``001``).
#: ``a`` and ``b`` stand for literal ``0`` and ``1`` bits: right-presence
#: bits and member leaves.
_TRIE_STEPS = str.maketrans({"0": "01", "1": "001", "a": "0", "b": "1"})


def _name_bits(name: Name) -> str:
    """The trie encoding of ``name`` as a ``'0'``/``'1'`` string.

    Lex order is trie pre-order, so one pass over the sorted codes visits
    the leaves in encoding order, with a constant number of C-level
    string operations per leaf:

    * the first leaf descends its whole path and emits its member bit;
    * from each leaf the walk climbs to the node where the next leaf
      splits off -- the first bit at which the two codes differ, where
      the leaf went left and the next goes right.  Each left turn the
      leaf took below that node closes a node with no right child (one
      ``0`` each, counted with ``str.count``); the split node gets a
      right child (``1``), and the next leaf descends the rest of its
      path;
    * after the last leaf, each left turn on its path closes a node with
      no right child.

    Iterative, so every depth the 16-bit length prefix admits encodes.
    """
    codes = name._codes
    if not codes:
        return "000"  # the root: not a member, no children
    prev_code = codes[0]
    prev = bin(prev_code)  # "0b1" + the path bits
    parts = [prev[3:], "b"]
    for code in codes[1:]:
        path = bin(code)
        # ``split``: depth of the node where ``code`` splits off, i.e. the
        # first path bit where the codes differ once aligned at the top.
        shift = len(prev) - len(path)
        if shift >= 0:
            split = len(path) - 3 - ((prev_code >> shift) ^ code).bit_length()
        else:
            split = len(prev) - 3 - (prev_code ^ (code >> -shift)).bit_length()
        parts.append("a" * prev.count("0", split + 4))
        parts.append("b")
        parts.append(path[split + 4:])
        parts.append("b")
        prev_code, prev = code, path
    parts.append("a" * prev.count("0", 3))
    return "".join(parts).translate(_TRIE_STEPS)


def name_to_packed(name: Name) -> Tuple[int, int]:
    """The trie encoding of ``name`` as a packed ``(value, count)`` pair."""
    bits = _name_bits(name)
    return int(bits, 2), len(bits)


def stamp_to_packed(stamp: VersionStamp) -> Tuple[int, int]:
    """The full stamp bit stream as one packed ``(value, count)`` pair."""
    bits = _name_bits(stamp.update_component) + _name_bits(stamp.identity)
    return int(bits, 2), len(bits)


def _read_name_codes(bits, pos):
    """Read one trie-coded name starting at character ``pos`` of ``bits``.

    ``bits`` is the payload's bit stream rendered as a ``'0'``/``'1'``
    string (one C-level ``format`` call), so each bit is a constant-time
    character compare instead of a fresh big-int shift.  Returns
    ``(codes, new_pos)`` with the member codes in pre-order -- which for a
    binary trie is exactly lexicographic order, so the result feeds
    :meth:`Name._from_codes` directly.  Iterative (explicit stack) so a
    deep crafted payload cannot blow the interpreter stack; running off
    the end of ``bits`` surfaces as ``IndexError`` for the caller to remap
    to a typed truncation error.  A non-member node without children
    below the root raises :class:`EncodingError`: it would decode to the
    same name as the trie without it, and the codec is canonical.
    """
    codes = []
    # Allocation-free DFS: ``prefix`` carries the current path (sentinel
    # code), and ``pending`` is a depth-indexed bitmask of nodes whose
    # right-presence bit still has to be read once their left subtree is
    # done -- those nodes are exactly the current path's ancestors, at
    # most one per depth, so one int replaces a stack of tuples.
    prefix = 1
    pending = 0
    depth = 0
    while True:
        if bits[pos] == "1":  # member leaf
            pos += 1
            codes.append(prefix)
        elif bits[pos + 1] == "1":  # left child present: descend
            pos += 2
            pending |= 1 << depth
            prefix <<= 1
            depth += 1
            continue
        elif bits[pos + 2] == "1":  # right child only: descend
            pos += 3
            prefix = (prefix << 1) | 1
            depth += 1
            continue
        elif depth:
            raise EncodingError(_CHILDLESS.format(depth))
        else:
            return codes, pos + 3  # a childless root: the empty name
        # Leaf done: resume at the deepest pending right-presence.
        while True:
            if not pending:
                return codes, pos
            d = pending.bit_length() - 1
            pending ^= 1 << d
            prefix >>= depth - d
            depth = d
            if bits[pos] == "1":
                pos += 1
                prefix = (prefix << 1) | 1
                depth += 1
                break
            pos += 1


def stamp_from_bitstream(bits: Iterable[int], *, reducing: bool = True) -> VersionStamp:
    """Decode a stamp produced by :func:`stamp_to_bitstream`."""
    reader = _BitReader(bits)
    update = _read_name(reader)
    identity = _read_name(reader)
    if reader.remaining():
        raise EncodingError(
            f"{reader.remaining()} trailing bits after decoding a stamp"
        )
    try:
        return VersionStamp(update, identity, reducing=reducing)
    except Exception as exc:  # noqa: BLE001
        raise EncodingError(f"decoded components do not form a stamp: {exc}") from exc


def stamp_to_bytes(stamp: VersionStamp) -> bytes:
    """Encode a stamp to bytes: a 2-byte bit count followed by packed bits.

    The packing (and its canonical-form validation on decode) is the
    length-prefixed packed-bits codec shared with the other bit-level
    codecs (:mod:`repro.kernel.wire`); the bit stream is built as one
    string, parsed with one ``int(bits, 2)`` and converted with a single
    bulk ``int.to_bytes``.
    """
    if _wire is None:
        _bind_wire()
    value, count = stamp_to_packed(stamp)
    return _wire.packed_to_length_prefixed(value, count, count_bytes=2)


def stamp_from_bytes(payload, *, reducing: bool = True) -> VersionStamp:
    """Decode a stamp produced by :func:`stamp_to_bytes`.

    Accepts any byte buffer (``bytes``/``bytearray``/``memoryview``)
    without copying it.  Rejects (with :class:`EncodingError` subclasses)
    truncation, byte lengths that disagree with the declared bit count,
    and nonzero padding bits -- distinct byte strings never decode to
    equal stamps.
    """
    key = (bytes(payload), bool(reducing))
    cached = _DECODE_INTERN.get(key)
    if cached is not None:
        return cached
    # Inlined packed_from_length_prefixed(count_bytes=2): this is the
    # per-message hot path of every replication exchange.
    if len(payload) < 2:
        raise EnvelopeTruncatedError(
            f"packed bit stream needs a 2-byte length prefix, "
            f"got {len(payload)} bytes"
        )
    nbits = int.from_bytes(payload[:2], "big")
    body = payload[2:]
    if (nbits + 7) >> 3 != len(body):
        raise EncodingError(
            f"payload declares {nbits} bits but carries {len(body)} bytes"
        )
    padded = int.from_bytes(body, "big")
    pad = (-nbits) % 8
    if padded & ((1 << pad) - 1):
        raise EncodingError("nonzero padding bits in the final payload byte")
    bits = format(padded >> pad, "b").rjust(nbits, "0")
    try:
        update_codes, pos = _read_name_codes(bits, 0)
        identity_codes, pos = _read_name_codes(bits, pos)
    except IndexError:
        raise EncodingError("truncated bit stream") from None
    if pos != nbits:
        raise EncodingError(
            f"{nbits - pos} trailing bits after decoding a stamp"
        )
    # Trie leaves are prefix-free and arrive in pre-order, i.e. already the
    # canonical lex-sorted antichain the trusted Name factory expects.
    update = Name._from_codes(tuple(update_codes))
    identity = Name._from_codes(tuple(identity_codes))
    if not update.dominated_by(identity):
        raise EncodingError(
            f"decoded components do not form a stamp: invariant I1 violated "
            f"(update {update} is not dominated by id {identity})"
        )
    stamp = VersionStamp._make(update, identity, key[1])
    if len(_DECODE_INTERN) >= _DECODE_INTERN_MAX:
        del _DECODE_INTERN[next(iter(_DECODE_INTERN))]
    _DECODE_INTERN[key] = stamp
    return stamp


# -- size accounting --------------------------------------------------------------


def encoded_size_bits(stamp: VersionStamp) -> int:
    """Exact size, in bits, of the compact binary encoding of ``stamp``."""
    return len(_name_bits(stamp.update_component)) + len(_name_bits(stamp.identity))


def encoded_size_bytes(stamp: VersionStamp) -> int:
    """Size, in bytes, of :func:`stamp_to_bytes` output (incl. length prefix)."""
    return len(stamp_to_bytes(stamp))
