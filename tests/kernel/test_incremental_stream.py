"""Tests for :class:`repro.kernel.stream.IncrementalStreamDecoder`.

The contract: feeding a valid stream in *any* chunking produces exactly
the :func:`decode_stream` result, malformed prefixes are rejected with
the same typed errors at the earliest decidable byte, and a decoder that
has rejected input is spent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.errors import (
    EnvelopeError,
    EnvelopeMagicError,
    EnvelopeTruncatedError,
    EnvelopeVersionError,
    UnknownClockFamily,
)
from repro.kernel.stream import (
    STREAM_HEADER_SIZE,
    IncrementalStreamDecoder,
    decode_stream,
    encode_stream,
)

FAMILIES = kernel.families()


def _sample_blob(family, size=3, epoch=2):
    clock = kernel.make(family)
    batch = []
    for _ in range(size):
        clock = clock.event()
        batch.append(clock.with_epoch(epoch))
    return batch, encode_stream(batch, family_name=family, epoch=epoch)


def _feed_all(decoder, blob, chunk_size):
    for start in range(0, len(blob), chunk_size):
        decoder.feed(blob[start : start + chunk_size])


@pytest.mark.parametrize("family", FAMILIES)
class TestEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64, 10_000])
    def test_any_fixed_chunking_matches_decode_stream(self, family, chunk_size):
        batch, blob = _sample_blob(family)
        decoder = IncrementalStreamDecoder()
        _feed_all(decoder, blob, chunk_size)
        assert decoder.is_complete
        stream = decoder.finish()
        assert list(stream) == list(decode_stream(blob))
        assert stream.info == decode_stream(blob).info

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_chunkings_match_decode_stream(self, family, data):
        size = data.draw(st.integers(min_value=0, max_value=4))
        batch, blob = _sample_blob(family, size=size)
        decoder = IncrementalStreamDecoder()
        position = 0
        while position < len(blob):
            step = data.draw(st.integers(min_value=1, max_value=len(blob) - position))
            decoder.feed(blob[position : position + step])
            position += step
        assert list(decoder.finish()) == batch

    def test_header_fields_available_mid_flight(self, family):
        _, blob = _sample_blob(family, size=2, epoch=5)
        decoder = IncrementalStreamDecoder()
        decoder.feed(blob[: STREAM_HEADER_SIZE - 1])
        assert decoder.info is None
        decoder.feed(blob[STREAM_HEADER_SIZE - 1 : STREAM_HEADER_SIZE])
        assert decoder.info is not None
        assert decoder.info.family == family
        assert decoder.info.epoch == 5
        assert decoder.info.frame_count == 2
        assert not decoder.is_complete

    def test_frames_ready_counts_progress(self, family):
        _, blob = _sample_blob(family, size=3)
        decoder = IncrementalStreamDecoder()
        seen = 0
        for start in range(0, len(blob), 4):
            ready = decoder.feed(blob[start : start + 4])
            assert ready >= seen
            seen = ready
        assert seen == 3


class TestEarlyRejection:
    def test_bad_magic_detected_at_two_bytes(self):
        decoder = IncrementalStreamDecoder()
        with pytest.raises(EnvelopeMagicError):
            decoder.feed(b"XX")

    def test_bad_version_detected_at_three_bytes(self):
        decoder = IncrementalStreamDecoder()
        with pytest.raises(EnvelopeVersionError):
            decoder.feed(b"CS\xff")

    def test_unknown_family_detected_at_four_bytes(self):
        decoder = IncrementalStreamDecoder()
        with pytest.raises(UnknownClockFamily):
            decoder.feed(b"CS\x01\xee")

    def test_trailing_bytes_rejected_on_arrival(self):
        _, blob = _sample_blob("itc", size=2)
        decoder = IncrementalStreamDecoder()
        decoder.feed(blob)
        with pytest.raises(EnvelopeError):
            decoder.feed(b"junk")

    def test_truncated_stream_rejected_at_finish(self):
        _, blob = _sample_blob("itc", size=2)
        decoder = IncrementalStreamDecoder()
        decoder.feed(blob[:-1])
        assert not decoder.is_complete
        with pytest.raises(EnvelopeTruncatedError):
            decoder.finish()

    def test_empty_input_rejected_at_finish(self):
        with pytest.raises(EnvelopeTruncatedError):
            IncrementalStreamDecoder().finish()

    def test_failed_decoder_is_spent(self):
        decoder = IncrementalStreamDecoder()
        with pytest.raises(EnvelopeMagicError):
            decoder.feed(b"XX")
        with pytest.raises(EnvelopeError):
            decoder.feed(b"CS")

    def test_non_bytes_chunk_rejected(self):
        decoder = IncrementalStreamDecoder()
        with pytest.raises(EnvelopeError):
            decoder.feed(12345)
