"""The batched envelope stream: one header, N length-prefixed frames.

Anti-entropy traffic is dominated by causal metadata: every sync message
carries a stamp, and a replica pair reconciling a whole store ships one
stamp per key.  Framing each stamp as its own envelope
(:mod:`repro.kernel.envelope`) repeats the magic/version/family/epoch
header per stamp and forces the receiver to re-validate it N times.  The
stream format amortizes all of that across a batch::

    offset  size  field
    ------  ----  ----------------------------------------------------------
         0     2  magic  b"CS"
         2     1  stream format version (currently 1)
         3     1  clock-family wire tag (shared by every frame)
         4     4  re-rooting epoch, big-endian unsigned (shared, single)
         8     4  frame count N, big-endian unsigned
        12     .  N frames, each: payload length u32 + family payload

Batch rules (enforced at encode time, typed errors):

* every clock in a batch belongs to **one family** -- the tag is hoisted
  into the header, so a frame is a bare family payload;
* every clock carries **one shared epoch** -- mixed-epoch batches are
  rejected just like mixed-epoch ``compare``/``join`` (a straggler must be
  upgraded, not smuggled inside a batch);
* an empty batch is legal but must name its family and epoch explicitly.

Decoding is **lazy and zero-copy**: :func:`decode_stream` validates the
frame table once and returns a :class:`ClockStream` whose frames are
``memoryview`` subviews of the caller's buffer, decoded into clocks only
on access and cached per index.  An optional :class:`InternTable` makes
repeated payloads pointer-equal -- within one batch *and across batches
that share the table*, which is what lets a replication engine skip
re-decoding the (typically unchanged) metadata a peer re-ships every
anti-entropy round.

:func:`stream_info` is the streaming peek: it reads family, epoch and
frame count from the 12-byte header alone, so a router can classify a
batch (or detect an epoch straggler) from the first bytes of a transfer
without the body even being available yet.

Rejections are the envelope's typed :class:`~repro.core.errors.EncodingError`
subclasses: :class:`EnvelopeMagicError`, :class:`EnvelopeVersionError`,
:class:`UnknownClockFamily`, :class:`EnvelopeTruncatedError`, and plain
:class:`EnvelopeError` for trailing bytes and batch-rule violations.

Corruption isolation: every rejection a damaged stream can provoke is one
of those typed errors -- structural damage (header, frame table, trailing
bytes) eagerly at :func:`decode_stream`, payload damage lazily at frame
access -- never a raw ``struct``/``IndexError``, so a fault-tolerant
consumer can retry or skip per frame.  The :class:`InternTable` only
admits *successfully decoded* clocks, so a bad frame can never poison
entries other consumers share.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional

from ..core.errors import (
    EncodingError,
    EnvelopeError,
    EnvelopeMagicError,
    EnvelopeTruncatedError,
    EnvelopeVersionError,
    ReproError,
)
from .clocks import KernelClock
from .registry import family, family_by_tag

__all__ = [
    "STREAM_MAGIC",
    "STREAM_FORMAT_VERSION",
    "STREAM_HEADER_SIZE",
    "StreamInfo",
    "InternTable",
    "ClockStream",
    "IncrementalStreamDecoder",
    "encode_stream",
    "decode_stream",
    "stream_info",
]

STREAM_MAGIC = b"CS"
STREAM_FORMAT_VERSION = 1
STREAM_HEADER_SIZE = 12

_MAX_EPOCH = (1 << 32) - 1
_MAX_FRAMES = (1 << 32) - 1


class StreamInfo(NamedTuple):
    """The stream header, decoded without touching any frame payload."""

    family: str
    format_version: int
    epoch: int
    frame_count: int


class InternTable:
    """A bounded payload -> clock table making repeated stamps pointer-equal.

    Keys are ``(family tag, epoch, payload bytes)``; values are the decoded
    clocks.  Because kernel clocks are immutable and their codecs are
    canonical (distinct byte strings never decode equal), handing the same
    object out for the same payload is sound -- and turns the common
    anti-entropy case, a peer re-shipping mostly-unchanged metadata every
    round, into dictionary hits instead of payload decodes.

    The table is bounded: when full, the oldest entry is evicted (FIFO),
    so a long-lived replication session cannot grow it without limit.
    """

    __slots__ = ("_table", "_max_entries", "hits", "misses")

    def __init__(self, *, max_entries: int = 65536) -> None:
        if max_entries <= 0:
            raise ValueError("an intern table needs room for at least one entry")
        self._table = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key) -> Optional[KernelClock]:
        clock = self._table.get(key)
        if clock is None:
            self.misses += 1
        else:
            self.hits += 1
        return clock

    def put(self, key, clock: KernelClock) -> None:
        table = self._table
        if key not in table and len(table) >= self._max_entries:
            del table[next(iter(table))]
        table[key] = clock


def encode_stream(
    clocks: Iterable[KernelClock],
    *,
    family_name: Optional[str] = None,
    epoch: Optional[int] = None,
) -> bytes:
    """Frame a batch of same-family, same-epoch clocks as one stream.

    ``family_name`` and ``epoch`` default to the first clock's; an empty
    batch must pass both explicitly.  Mixing families or epochs in one
    batch raises :class:`EnvelopeError` (typed), mirroring the epoch rules
    of ``compare``/``join``.
    """
    batch = list(clocks)
    if batch:
        if family_name is None:
            family_name = batch[0].family
        if epoch is None:
            epoch = batch[0].epoch
    elif family_name is None or epoch is None:
        raise EnvelopeError(
            "an empty stream batch must name its clock family and epoch "
            "explicitly"
        )
    entry = family(family_name)
    if not 0 <= epoch <= _MAX_EPOCH:
        raise EnvelopeError(f"epoch {epoch} exceeds the 32-bit stream field")
    if len(batch) > _MAX_FRAMES:
        raise EnvelopeError(
            f"{len(batch)} frames exceed the 32-bit stream frame count"
        )
    parts: List[bytes] = [
        STREAM_MAGIC,
        bytes((STREAM_FORMAT_VERSION, entry.tag)),
        epoch.to_bytes(4, "big"),
        len(batch).to_bytes(4, "big"),
    ]
    for clock in batch:
        if clock.family != family_name:
            raise EnvelopeError(
                f"stream batches carry one clock family: expected "
                f"{family_name!r}, found {clock.family!r}"
            )
        if clock.epoch != epoch:
            raise EnvelopeError(
                f"stream batches share one epoch: expected {epoch}, "
                f"found {clock.epoch} (upgrade the straggler first)"
            )
        payload = clock.payload_bytes()
        parts.append(len(payload).to_bytes(4, "big"))
        parts.append(payload)
    return b"".join(parts)


def _stream_header(data) -> StreamInfo:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EnvelopeError(
            f"streams are byte strings, got {type(data).__name__}"
        )
    if len(data) < STREAM_HEADER_SIZE:
        raise EnvelopeTruncatedError(
            f"stream header needs {STREAM_HEADER_SIZE} bytes, got {len(data)}"
        )
    if data[:2] != STREAM_MAGIC:
        raise EnvelopeMagicError(
            f"bad stream magic {bytes(data[:2])!r} (expected {STREAM_MAGIC!r})"
        )
    version = data[2]
    if version == 0 or version > STREAM_FORMAT_VERSION:
        raise EnvelopeVersionError(
            f"stream format version {version} is not supported "
            f"(this library speaks versions 1..{STREAM_FORMAT_VERSION})"
        )
    entry = family_by_tag(data[3])
    epoch = int.from_bytes(data[4:8], "big")
    count = int.from_bytes(data[8:12], "big")
    return StreamInfo(entry.name, version, epoch, count)


def stream_info(data) -> StreamInfo:
    """The streaming peek: family, epoch and frame count from the header.

    Needs only the first :data:`STREAM_HEADER_SIZE` bytes and never looks
    at a frame, so it works on a partial buffer while the body is still in
    flight -- the batch analogue of
    :func:`~repro.kernel.envelope.envelope_info`, and like it accepts any
    byte buffer (``memoryview`` included) without copying.
    """
    return _stream_header(data)


class ClockStream:
    """A decoded stream: lazily materialized, index-cached clock frames.

    Supports ``len``, indexing and iteration.  ``stream[i]`` decodes frame
    ``i`` on first access (through the intern table when one was given)
    and caches the clock, so a consumer that only inspects a few frames
    never pays for the rest.
    """

    __slots__ = ("_info", "_frames", "_clocks", "_decoder", "_tag", "_intern")

    def __init__(self, info, frames, decoder, tag, intern) -> None:
        self._info = info
        self._frames = frames
        self._clocks: List[Optional[KernelClock]] = [None] * len(frames)
        self._decoder = decoder
        self._tag = tag
        self._intern = intern

    @property
    def info(self) -> StreamInfo:
        """The stream header fields."""
        return self._info

    @property
    def epoch(self) -> int:
        """The batch's single shared epoch."""
        return self._info.epoch

    @property
    def family(self) -> str:
        """The batch's single clock family."""
        return self._info.family

    def __len__(self) -> int:
        return len(self._frames)

    def frame_bytes(self, index: int):
        """The raw payload of frame ``index`` (a zero-copy subview)."""
        return self._frames[index]

    def __getitem__(self, index: int) -> KernelClock:
        clock = self._clocks[index]
        if clock is None:
            clock = self._decode(index)
            self._clocks[index] = clock
        return clock

    def __iter__(self) -> Iterator[KernelClock]:
        for index in range(len(self._frames)):
            yield self[index]

    def _decode(self, index: int) -> KernelClock:
        payload = self._frames[index]
        intern = self._intern
        if intern is not None:
            key = (self._tag, self._info.epoch, bytes(payload))
            clock = intern.get(key)
            if clock is not None:
                return clock
            clock = self._decode_payload(payload, index)
            intern.put(key, clock)
            return clock
        return self._decode_payload(payload, index)

    def _decode_payload(self, payload, index: int) -> KernelClock:
        try:
            clock = self._decoder(payload, self._info.epoch)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 - codecs must not leak raw errors
            raise EncodingError(
                f"malformed {self._info.family!r} payload in stream frame "
                f"{index}: {exc}"
            ) from exc
        # Canonical codecs make decode-then-encode the identity, so the
        # frame bytes just decoded *are* the clock's payload encoding:
        # seed the cache and re-shipping or journaling this clock skips
        # the payload encoder entirely.
        if clock._payload is None:
            object.__setattr__(clock, "_payload", bytes(payload))
        return clock


def decode_stream(data, *, intern: Optional[InternTable] = None) -> ClockStream:
    """Validate a stream's frame table and return its lazy clock sequence.

    The header and every frame length are checked up front (truncation and
    trailing bytes are typed errors), but frame *payloads* are not decoded
    until accessed.  A ``memoryview`` argument is handled zero-copy: every
    frame is a subview of the caller's buffer.  Pass an
    :class:`InternTable` to make repeated payloads pointer-equal across
    frames and across streams sharing the table.
    """
    info = _stream_header(data)
    view = data if isinstance(data, memoryview) else memoryview(data)
    frames = []
    pos = STREAM_HEADER_SIZE
    total = len(view)
    for index in range(info.frame_count):
        if pos + 4 > total:
            raise EnvelopeTruncatedError(
                f"stream truncated in the length prefix of frame {index} "
                f"({info.frame_count} frames declared)"
            )
        size = int.from_bytes(view[pos : pos + 4], "big")
        pos += 4
        if pos + size > total:
            raise EnvelopeTruncatedError(
                f"stream frame {index} declares {size} payload bytes but "
                f"only {total - pos} remain"
            )
        frames.append(view[pos : pos + size])
        pos += size
    if pos != total:
        raise EnvelopeError(
            f"{total - pos} trailing bytes after the declared "
            f"{info.frame_count} stream frames"
        )
    entry = family(info.family)
    return ClockStream(info, frames, entry.decoder, entry.tag, intern)


class IncrementalStreamDecoder:
    """Feed a stream's bytes as they arrive; validate as early as possible.

    An asynchronous reader receives a ``"CS"`` stream in arbitrary chunks
    (link MTU, bandwidth slices, socket reads).  :func:`decode_stream`
    needs the whole buffer; this decoder accepts the bytes **incrementally**
    via :meth:`feed` and raises the same typed rejections at the earliest
    moment they are decidable:

    * bad magic after 2 bytes, unsupported version after 3, an unknown
      family tag after 4 -- a daemon drops a garbage transfer before the
      body has even arrived;
    * :attr:`info` is available as soon as the 12-byte header is complete
      (the streaming peek of :func:`stream_info`), so the receiver can
      classify the batch -- family, epoch, frame count -- mid-flight and
      detect an epoch straggler early;
    * the frame table is walked as bytes arrive: :attr:`frames_ready`
      counts fully buffered frames, and trailing bytes beyond the declared
      frames are rejected on the chunk that carries them.

    :meth:`finish` returns the same lazy, intern-aware
    :class:`ClockStream` that :func:`decode_stream` would have produced
    for the concatenated bytes -- the two paths are equivalent by
    construction, which is what lets the service engine share the
    synchronous engine's merge logic bit for bit.  A decoder that has
    raised is spent: further use raises :class:`EnvelopeError`.
    """

    __slots__ = ("_buffer", "_info", "_entry", "_frames", "_pos", "_failed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._info: Optional[StreamInfo] = None
        self._entry = None
        # Parsed frames as (start, end) offsets into the buffer; offsets
        # (not memoryviews) because the bytearray reallocates as it grows.
        self._frames: List[tuple] = []
        self._pos = STREAM_HEADER_SIZE
        self._failed = False

    def _fail(self, error: EncodingError) -> "EncodingError":
        self._failed = True
        return error

    @property
    def info(self) -> Optional[StreamInfo]:
        """The header fields, or ``None`` while the header is incomplete."""
        return self._info

    @property
    def frames_ready(self) -> int:
        """How many frames are fully buffered so far."""
        return len(self._frames)

    @property
    def bytes_received(self) -> int:
        """Total bytes fed so far."""
        return len(self._buffer)

    @property
    def is_complete(self) -> bool:
        """Whether every declared frame has fully arrived."""
        return (
            self._info is not None
            and len(self._frames) == self._info.frame_count
            and self._pos == len(self._buffer)
        )

    def feed(self, chunk) -> int:
        """Absorb the next chunk of the stream; returns :attr:`frames_ready`.

        Raises the typed rejection of the first malformed byte as soon as
        the prefix received so far proves the stream bad -- the same error
        :func:`decode_stream` would raise for any completion of it.
        """
        if self._failed:
            raise EnvelopeError("this stream decoder already rejected its input")
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            raise self._fail(
                EnvelopeError(
                    f"streams are byte strings, got {type(chunk).__name__}"
                )
            )
        self._buffer.extend(chunk)
        buffer = self._buffer
        if self._info is None:
            # Early header validation: each field is checked the moment its
            # bytes exist, without waiting for the full 12-byte header.
            if len(buffer) >= 2 and bytes(buffer[:2]) != STREAM_MAGIC:
                raise self._fail(
                    EnvelopeMagicError(
                        f"bad stream magic {bytes(buffer[:2])!r} "
                        f"(expected {STREAM_MAGIC!r})"
                    )
                )
            if len(buffer) >= 3:
                version = buffer[2]
                if version == 0 or version > STREAM_FORMAT_VERSION:
                    raise self._fail(
                        EnvelopeVersionError(
                            f"stream format version {version} is not supported "
                            f"(this library speaks versions "
                            f"1..{STREAM_FORMAT_VERSION})"
                        )
                    )
            if len(buffer) >= 4:
                try:
                    self._entry = family_by_tag(buffer[3])
                except EncodingError as error:
                    raise self._fail(error)
            if len(buffer) < STREAM_HEADER_SIZE:
                return 0
            self._info = _stream_header(bytes(buffer[:STREAM_HEADER_SIZE]))
        info = self._info
        total = len(buffer)
        # Walk as much of the frame table as the buffered bytes cover.
        while len(self._frames) < info.frame_count:
            pos = self._pos
            if pos + 4 > total:
                return len(self._frames)
            size = int.from_bytes(buffer[pos : pos + 4], "big")
            if pos + 4 + size > total:
                return len(self._frames)
            self._frames.append((pos + 4, pos + 4 + size))
            self._pos = pos + 4 + size
        if self._pos != total:
            raise self._fail(
                EnvelopeError(
                    f"{total - self._pos} trailing bytes after the declared "
                    f"{info.frame_count} stream frames"
                )
            )
        return len(self._frames)

    def finish(self, *, intern: Optional[InternTable] = None) -> ClockStream:
        """The completed stream as a lazy :class:`ClockStream`.

        Equivalent to ``decode_stream(b"".join(chunks), intern=intern)``;
        raises :class:`EnvelopeTruncatedError` while frames are missing.
        """
        if self._failed:
            raise EnvelopeError("this stream decoder already rejected its input")
        info = self._info
        if info is None:
            raise EnvelopeTruncatedError(
                f"stream header needs {STREAM_HEADER_SIZE} bytes, got "
                f"{len(self._buffer)}"
            )
        if not self.is_complete:
            index = len(self._frames)
            raise EnvelopeTruncatedError(
                f"stream truncated in frame {index} "
                f"({info.frame_count} frames declared, {index} complete)"
            )
        view = memoryview(bytes(self._buffer))
        frames = [view[start:end] for start, end in self._frames]
        return ClockStream(info, frames, self._entry.decoder, self._entry.tag, intern)
