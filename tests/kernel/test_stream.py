"""Property tests for the batched envelope stream (:mod:`repro.kernel.stream`).

The contract under test:

* ``decode_stream(encode_stream(batch))`` restores every clock of every
  registered family, with the single shared epoch preserved, for any batch
  size including empty;
* the batch rules are enforced with typed errors: one family and one epoch
  per batch, empty batches only with both named explicitly;
* any truncation or corruption of a stream is rejected with a *typed*
  :class:`~repro.core.errors.EncodingError` subclass, never a raw
  ``struct``/``IndexError``/``KeyError``;
* frames decode lazily, and repeated payloads in one batch decode to
  equal clocks;
* :func:`stream_info` reads family/epoch/count from the 12-byte header
  alone (a partial buffer is enough) and accepts ``memoryview`` input
  without copying.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.errors import (
    EncodingError,
    EnvelopeError,
    EnvelopeMagicError,
    EnvelopeTruncatedError,
    EnvelopeVersionError,
    ReproError,
    UnknownClockFamily,
)
from repro.kernel.stream import (
    STREAM_FORMAT_VERSION,
    STREAM_HEADER_SIZE,
    STREAM_MAGIC,
    decode_stream,
    encode_stream,
    stream_info,
)
from repro.testing import kernel_clocks

FAMILIES = kernel.families()


def _batch(draw, family, size, epoch):
    clocks = [
        draw(kernel_clocks(family, max_operations=8, max_epoch=0))
        for _ in range(size)
    ]
    return [clock.with_epoch(epoch) for clock in clocks]


@pytest.mark.parametrize("family", FAMILIES)
class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_batch_round_trips_with_shared_epoch(self, family, data):
        size = data.draw(st.integers(min_value=0, max_value=6))
        epoch = data.draw(st.integers(min_value=0, max_value=7))
        batch = _batch(data.draw, family, size, epoch)
        blob = encode_stream(batch, family_name=family, epoch=epoch)
        info = stream_info(blob)
        assert info.family == family
        assert info.epoch == epoch
        assert info.frame_count == size
        assert info.format_version == STREAM_FORMAT_VERSION
        stream = decode_stream(blob)
        assert len(stream) == size
        assert list(stream) == batch
        assert all(clock.epoch == epoch for clock in stream)

    def test_memoryview_decodes_zero_copy(self, family):
        batch = [kernel.make(family).event(), kernel.make(family)]
        blob = encode_stream(batch)
        view = memoryview(blob)
        stream = decode_stream(view)
        assert list(stream) == batch
        # The frames really are subviews of the caller's buffer.
        assert all(
            isinstance(stream.frame_bytes(i), memoryview) for i in range(len(stream))
        )
        assert stream_info(view) == stream_info(blob)

    def test_header_is_enough_for_stream_info(self, family):
        blob = encode_stream([kernel.make(family).event()])
        # The streaming peek: only the header needs to have arrived.
        info = stream_info(blob[:STREAM_HEADER_SIZE])
        assert info.family == family
        assert info.frame_count == 1

    def test_single_frame_equals_envelope_payload(self, family):
        clock = kernel.make(family).event()
        blob = encode_stream([clock])
        stream = decode_stream(blob)
        assert bytes(stream.frame_bytes(0)) == clock.payload_bytes()


class TestBatchRules:
    def test_mixed_families_rejected(self):
        with pytest.raises(EnvelopeError):
            encode_stream([kernel.make("itc"), kernel.make("version-stamp")])

    def test_mixed_epochs_rejected(self):
        clock = kernel.make("itc")
        with pytest.raises(EnvelopeError):
            encode_stream([clock, clock.with_epoch(3)])

    def test_explicit_family_must_match_members(self):
        with pytest.raises(EnvelopeError):
            encode_stream([kernel.make("itc")], family_name="version-stamp")

    def test_explicit_epoch_must_match_members(self):
        with pytest.raises(EnvelopeError):
            encode_stream([kernel.make("itc")], epoch=2)

    def test_empty_batch_needs_family_and_epoch(self):
        with pytest.raises(EnvelopeError):
            encode_stream([])
        blob = encode_stream([], family_name="itc", epoch=9)
        info = stream_info(blob)
        assert (info.family, info.epoch, info.frame_count) == ("itc", 9, 0)
        assert list(decode_stream(blob)) == []

    def test_unknown_family_name_rejected(self):
        with pytest.raises(UnknownClockFamily):
            encode_stream([], family_name="no-such-clock", epoch=0)


class TestRejection:
    def test_bad_magic_is_typed(self):
        blob = bytearray(encode_stream([kernel.make("itc")]))
        blob[:2] = b"XX"
        with pytest.raises(EnvelopeMagicError):
            stream_info(bytes(blob))

    def test_future_version_is_typed(self):
        blob = bytearray(encode_stream([kernel.make("itc")]))
        blob[2] = STREAM_FORMAT_VERSION + 1
        with pytest.raises(EnvelopeVersionError):
            stream_info(bytes(blob))

    def test_unknown_tag_is_typed(self):
        blob = bytearray(encode_stream([kernel.make("itc")]))
        blob[3] = 0xEE
        with pytest.raises(UnknownClockFamily):
            stream_info(bytes(blob))

    def test_non_bytes_rejected(self):
        with pytest.raises(EnvelopeError):
            stream_info("CS not bytes")

    def test_trailing_bytes_rejected(self):
        blob = encode_stream([kernel.make("version-stamp")])
        with pytest.raises(EnvelopeError):
            decode_stream(blob + b"\x00")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation_always_typed(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        batch = _batch(data.draw, family, data.draw(st.integers(1, 4)), 0)
        blob = encode_stream(batch)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        try:
            stream = decode_stream(blob[:cut])
            for clock in stream:  # lazy: force every frame
                pass
        except ReproError as exc:
            assert isinstance(exc, EncodingError)
        else:
            raise AssertionError("truncated stream decoded successfully")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corruption_never_leaks_raw_errors(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        batch = _batch(data.draw, family, data.draw(st.integers(1, 3)), 0)
        blob = bytearray(encode_stream(batch))
        flips = data.draw(st.integers(min_value=1, max_value=4))
        for _ in range(flips):
            index = data.draw(st.integers(0, len(blob) - 1))
            blob[index] ^= 1 << data.draw(st.integers(0, 7))
        try:
            stream = decode_stream(bytes(blob))
            decoded = list(stream)
        except ReproError:
            pass  # typed rejection is the contract
        else:
            # A surviving mutation must still decode to clocks of the
            # declared family with the declared epoch.
            info = stream_info(bytes(blob))
            assert all(clock.family == info.family for clock in decoded)
            assert all(clock.epoch == info.epoch for clock in decoded)

    def test_frame_decode_is_lazy_and_error_is_typed(self):
        good = kernel.make("version-stamp").event()
        blob = bytearray(encode_stream([good, good]))
        # Corrupt only the *second* frame's payload (the final byte).
        blob[-1] ^= 0xFF
        stream = decode_stream(bytes(blob))
        assert stream[0] == good  # first frame decodes fine
        with pytest.raises(EncodingError):
            stream[1]


class TestInterning:
    def test_interning_is_optional(self):
        clock = kernel.make("version-stamp").event()
        stream = decode_stream(encode_stream([clock, clock]))
        assert stream[0] == stream[1]


class TestHeaderLayout:
    def test_frozen_layout(self):
        # The stream header layout is wire format; changing it breaks every
        # shipped batch.
        blob = encode_stream([], family_name="itc", epoch=0x01020304)
        assert blob[:2] == STREAM_MAGIC
        assert blob[2] == STREAM_FORMAT_VERSION
        assert blob[3] == kernel.family("itc").tag
        assert blob[4:8] == bytes((1, 2, 3, 4))
        assert blob[8:12] == b"\x00\x00\x00\x00"
        assert len(blob) == STREAM_HEADER_SIZE
