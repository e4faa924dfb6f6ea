"""The service-side sync engine: incremental decode on the service path.

:class:`AsyncWireSyncEngine` is a :class:`~repro.replication.synchronizer.
WireSyncEngine` whose stream-decode hook feeds arriving bodies through the
kernel's :class:`~repro.kernel.stream.IncrementalStreamDecoder` in fixed
size chunks, the way a socket reader would hand frames up as they land --
instead of requiring the whole body in one buffer first.  Everything else
(merge order, retry RNG, meter accounting, fault handling) is inherited
unchanged, which is what makes the service bit-for-bit comparable to the
synchronous engine on identical schedules.
"""

from __future__ import annotations

from ..kernel.stream import ClockStream, IncrementalStreamDecoder
from ..replication.synchronizer import WireSyncEngine

__all__ = ["AsyncWireSyncEngine"]


#: Size of the simulated network reads fed to the incremental decoder (a
#: typical socket read).
CHUNK_BYTES = 4096


class AsyncWireSyncEngine(WireSyncEngine):
    """Wire sync engine decoding batched streams incrementally."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: Total chunks fed through incremental decoders (observability).
        self.chunks_fed = 0

    def _decode_stream(self, body) -> ClockStream:
        decoder = IncrementalStreamDecoder()
        view = memoryview(body)
        for start in range(0, len(view), CHUNK_BYTES):
            decoder.feed(view[start : start + CHUNK_BYTES])
            self.chunks_fed += 1
        return decoder.finish(intern=self.intern)
