"""The public causality kernel: one protocol, many clock families.

This package is the single public API surface over every causality
mechanism the repo reproduces:

* :mod:`~repro.kernel.protocol` -- the :class:`CausalityClock` protocol
  (``fork`` / ``event`` / ``join`` / ``compare`` / ``encoded_size_bits`` /
  ``to_bytes``-``from_bytes``) and the :class:`PartialOrder` it returns;
* :mod:`~repro.kernel.clocks`   -- the concrete families: version stamps,
  interval tree clocks, dynamic version vectors and the causal-history
  oracle, each carrying a re-rooting **epoch tag**;
* :mod:`~repro.kernel.registry` -- :func:`make` and the family registry;
* :mod:`~repro.kernel.envelope` -- the versioned, self-describing,
  epoch-tagged wire envelope shared by every family;
* :mod:`~repro.kernel.stream`   -- the batched envelope stream (one header
  + N length-prefixed frames, single shared epoch, lazy zero-copy decode
  with an interning table) that anti-entropy batches ride on;
* :mod:`~repro.kernel.adapters` -- the lockstep mechanism adapters, each
  replaying a trace through :func:`repro.sim.trace.apply_operation`; the
  generic :class:`KernelClockAdapter` drives any registered family through
  the protocol alone, and like every value-clock adapter it is a
  :class:`ClockAdapter`.

Quick start
-----------
>>> from repro import kernel
>>> clock = kernel.make("itc")
>>> left, right = clock.fork()
>>> left = left.event()
>>> left.compare(right).name
'AFTER'
>>> restored = kernel.from_bytes(left.to_bytes())
>>> restored == left
True
"""

from ..core.errors import (
    EncodingError,
    EnvelopeError,
    EnvelopeMagicError,
    EnvelopeTruncatedError,
    EnvelopeVersionError,
    EpochMismatch,
    UnknownClockFamily,
)
from .adapters import (
    ClockAdapter,
    KernelClockAdapter,
    MechanismAdapter,
    default_adapters,
    kernel_adapters,
)
from .clocks import (
    CausalHistoryClock,
    DynamicVVClock,
    ITCClock,
    KernelClock,
    VersionStampClock,
)
from .envelope import (
    FORMAT_VERSION,
    MAGIC,
    EnvelopeInfo,
    decode_envelope,
    encode_envelope,
    envelope_info,
)
from .protocol import CausalityClock, PartialOrder
from .registry import ClockFamily, families, family, family_by_tag, make, register
from .stream import (
    STREAM_FORMAT_VERSION,
    STREAM_HEADER_SIZE,
    STREAM_MAGIC,
    ClockStream,
    IncrementalStreamDecoder,
    InternTable,
    StreamInfo,
    decode_stream,
    encode_stream,
    stream_info,
)

#: The envelope decoder, exposed under the protocol's name.
from_bytes = decode_envelope
#: The envelope encoder, for symmetry (clocks also expose ``.to_bytes()``).
to_bytes = encode_envelope

__all__ = [
    "CausalityClock",
    "PartialOrder",
    "KernelClock",
    "VersionStampClock",
    "ITCClock",
    "DynamicVVClock",
    "CausalHistoryClock",
    "ClockFamily",
    "register",
    "make",
    "families",
    "family",
    "family_by_tag",
    "MAGIC",
    "FORMAT_VERSION",
    "EnvelopeInfo",
    "encode_envelope",
    "decode_envelope",
    "envelope_info",
    "from_bytes",
    "to_bytes",
    "STREAM_MAGIC",
    "STREAM_FORMAT_VERSION",
    "STREAM_HEADER_SIZE",
    "StreamInfo",
    "InternTable",
    "ClockStream",
    "encode_stream",
    "decode_stream",
    "stream_info",
    "IncrementalStreamDecoder",
    "MechanismAdapter",
    "ClockAdapter",
    "KernelClockAdapter",
    "default_adapters",
    "kernel_adapters",
    "EncodingError",
    "EnvelopeError",
    "EnvelopeMagicError",
    "EnvelopeTruncatedError",
    "EnvelopeVersionError",
    "UnknownClockFamily",
    "EpochMismatch",
]
