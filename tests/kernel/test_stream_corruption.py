"""Single-bit corruption property: detect-or-reject, never silent damage.

The fault-tolerance contract of the ``"CS"`` stream format: flip *any*
single bit of an encoded stream and the result is either

* rejected with a typed :class:`~repro.core.errors.EncodingError` (at
  structural validation or at lazy frame access) -- the fault-handling
  path a retrying transport consumer relies on; or
* a stream that decodes cleanly and re-encodes **byte-identically** --
  the flip landed on a semantically valid alternative (a different
  epoch, a different-but-canonical payload), which a checksum-free
  receiver genuinely cannot distinguish from an honest message.

What the property forbids is the third outcome: a flip that decodes
without error into clocks whose canonical re-encoding *differs* from
what arrived -- silent corruption that would propagate damaged causal
metadata into stores and intern tables.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import EncodingError
from repro.core.stamp import VersionStamp
from repro.kernel import VersionStampClock
from repro.kernel.stream import STREAM_HEADER_SIZE, decode_stream, encode_stream
from repro.testing import kernel_clocks

FAMILIES = ["version-stamp", "itc", "vv-dynamic", "causal-history"]


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
def test_single_bit_flip_is_rejected_or_roundtrips_identically(family, data):
    epoch = data.draw(st.integers(min_value=0, max_value=5), label="epoch")
    clocks = [
        clock.with_epoch(epoch)
        for clock in data.draw(
            st.lists(kernel_clocks(family), min_size=0, max_size=4),
            label="clocks",
        )
    ]
    blob = encode_stream(clocks, family_name=family, epoch=epoch)
    position = data.draw(
        st.integers(min_value=0, max_value=len(blob) * 8 - 1), label="bit"
    )
    damaged = bytearray(blob)
    damaged[position // 8] ^= 1 << (position % 8)
    damaged = bytes(damaged)

    try:
        stream = decode_stream(damaged)
        decoded = list(stream)  # force every lazy frame decode
        reencoded = encode_stream(
            decoded, family_name=stream.family, epoch=stream.epoch
        )
    except EncodingError:
        return  # typed rejection: the retry/skip machinery handles this
    assert reencoded == damaged, (
        "a single-bit flip survived decoding but re-encodes differently: "
        "silent corruption"
    )


def _assert_frames_reencode_as_received(blob):
    """Every frame that decodes runs its family encoder back to its bytes.

    The stream seeds each decoded clock's payload cache with the frame it
    came from, so re-encoding the stream only proves the framing.
    ``with_epoch`` builds a fresh clock without that cache, so this
    checks the payload codec itself: a non-canonical payload that
    decodes would re-encode to different bytes.
    """
    try:
        stream = decode_stream(blob)
    except EncodingError:
        return
    for index in range(len(stream)):
        try:
            clock = stream[index]
        except EncodingError:
            continue
        rebuilt = clock.with_epoch(clock.epoch)
        assert rebuilt.payload_bytes() == bytes(stream.frame_bytes(index)), (
            f"frame {index} decoded from a non-canonical payload"
        )


@pytest.mark.parametrize("family", FAMILIES)
@given(data=st.data())
def test_single_bit_flip_in_frames_leaves_only_canonical_payloads(family, data):
    clocks = data.draw(
        st.lists(kernel_clocks(family, max_epoch=0), min_size=1, max_size=4),
        label="clocks",
    )
    blob = encode_stream(clocks)
    position = data.draw(
        st.integers(min_value=STREAM_HEADER_SIZE * 8, max_value=len(blob) * 8 - 1),
        label="bit",
    )
    damaged = bytearray(blob)
    damaged[position // 8] ^= 1 << (position % 8)
    _assert_frames_reencode_as_received(bytes(damaged))


def test_non_canonical_version_stamp_frame_is_rejected():
    # The trie payload 000b4660 reads as [1 | 1] plus an empty subtree;
    # [1 | 1] itself encodes to 000833.
    clock = VersionStampClock(VersionStamp.parse("[1 | 1]"))
    assert clock.payload_bytes() == b"\x01" + bytes.fromhex("000833")
    padded = b"\x01" + bytes.fromhex("000b4660")
    blob = (
        encode_stream([clock])[:STREAM_HEADER_SIZE]
        + len(padded).to_bytes(4, "big")
        + padded
    )
    _assert_frames_reencode_as_received(blob)
    with pytest.raises(EncodingError):
        decode_stream(blob)[0]
