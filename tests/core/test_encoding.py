"""Unit tests for the text/JSON/binary codecs."""

import json

import pytest

from repro.core.encoding import (
    encoded_size_bits,
    encoded_size_bytes,
    name_from_bitstream,
    name_from_json,
    name_to_bitstream,
    name_to_json,
    stamp_from_bitstream,
    stamp_from_bytes,
    stamp_from_json,
    stamp_from_text,
    stamp_to_bitstream,
    stamp_to_bytes,
    stamp_to_json,
    stamp_to_text,
)
from repro.core.errors import EncodingError
from repro.core.names import Name
from repro.core.stamp import VersionStamp


SAMPLE_STAMPS = [
    "[ε | ε]",
    "[ε | 0]",
    "[1 | 1]",
    "[1 | 01+1]",
    "[1 | 00+01+1]",
    "[0+10 | 0+10+11]",
]


class TestJsonCodec:
    @pytest.mark.parametrize("text", SAMPLE_STAMPS)
    def test_stamp_round_trip(self, text):
        stamp = VersionStamp.parse(text, reducing=False)
        assert stamp_from_json(stamp_to_json(stamp)) == stamp

    def test_stamp_round_trip_through_json_text(self):
        stamp = VersionStamp.parse("[1 | 01+1]")
        payload = json.dumps(stamp_to_json(stamp))
        assert stamp_from_json(payload) == stamp

    def test_name_round_trip(self):
        name = Name.parse("00+01+1")
        assert name_from_json(name_to_json(name)) == name

    def test_reducing_flag_preserved(self):
        stamp = VersionStamp.seed(reducing=False)
        decoded = stamp_from_json(stamp_to_json(stamp))
        assert decoded.reducing is False

    def test_rejects_malformed_payloads(self):
        with pytest.raises(EncodingError):
            stamp_from_json({"update": ["0"]})
        with pytest.raises(EncodingError):
            stamp_from_json("not json {")
        with pytest.raises(EncodingError):
            name_from_json("not-a-list")
        with pytest.raises(EncodingError):
            name_from_json(["0", "01"])  # not an antichain


class TestTextCodec:
    @pytest.mark.parametrize("text", SAMPLE_STAMPS)
    def test_round_trip(self, text):
        stamp = VersionStamp.parse(text, reducing=False)
        assert stamp_from_text(stamp_to_text(stamp), reducing=False) == stamp

    def test_rejects_garbage(self):
        with pytest.raises(EncodingError):
            stamp_from_text("garbage")


class TestBinaryCodec:
    @pytest.mark.parametrize("text", SAMPLE_STAMPS)
    def test_bitstream_round_trip(self, text):
        stamp = VersionStamp.parse(text, reducing=False)
        assert stamp_from_bitstream(stamp_to_bitstream(stamp), reducing=False) == stamp

    @pytest.mark.parametrize("text", SAMPLE_STAMPS)
    def test_bytes_round_trip(self, text):
        stamp = VersionStamp.parse(text, reducing=False)
        assert stamp_from_bytes(stamp_to_bytes(stamp), reducing=False) == stamp

    def test_name_bitstream_round_trip(self):
        name = Name.parse("000+001+01+1")
        assert name_from_bitstream(name_to_bitstream(name)) == name

    def test_empty_name_round_trip(self):
        assert name_from_bitstream(name_to_bitstream(Name.empty())) == Name.empty()

    def test_truncated_stream_rejected(self):
        bits = stamp_to_bitstream(VersionStamp.parse("[1 | 01+1]"))
        with pytest.raises(EncodingError):
            stamp_from_bitstream(bits[:-2])

    def test_trailing_bits_rejected(self):
        bits = stamp_to_bitstream(VersionStamp.seed())
        with pytest.raises(EncodingError):
            stamp_from_bitstream(bits + [0, 1])

    def test_invalid_bit_values_rejected(self):
        with pytest.raises(EncodingError):
            name_from_bitstream([2])

    def test_truncated_bytes_rejected(self):
        with pytest.raises(EncodingError):
            stamp_from_bytes(b"\x00")
        payload = stamp_to_bytes(VersionStamp.parse("[1 | 01+1]"))
        with pytest.raises(EncodingError):
            stamp_from_bytes(payload[:3])

    def test_seed_stamp_is_tiny(self):
        # [ε | ε] encodes to two single-bit tries: 2 bits total.
        assert encoded_size_bits(VersionStamp.seed()) == 2
        assert encoded_size_bytes(VersionStamp.seed()) == 3  # 2-byte length + 1

    def test_binary_encoding_grows_with_id_complexity(self):
        small = VersionStamp.parse("[ε | 0]")
        large = VersionStamp.parse("[ε | 000+001+01+1]", reducing=False)
        assert encoded_size_bits(large) > encoded_size_bits(small)

    def test_deep_fork_chain_round_trips(self):
        # 1,200 forks in a line give an id 1,200 bits deep: well inside the
        # 16-bit length prefix, far beyond a recursive trie walk.
        from repro import kernel

        stamp = VersionStamp.seed()
        for _ in range(1200):
            stamp, _ = stamp.fork()
        payload = stamp_to_bytes(stamp)
        assert stamp_from_bytes(payload) == stamp
        assert encoded_size_bits(stamp) == int.from_bytes(payload[:2], "big")
        clock = kernel.VersionStampClock(stamp)
        assert kernel.from_bytes(clock.to_bytes()) == clock

    def test_childless_non_member_node_rejected(self):
        # Both payloads read as [1 | 1]; the second adds an empty left
        # subtree under the update trie's root.  Only the first is canonical.
        from repro.kernel.wire import bits_from_length_prefixed

        stamp = VersionStamp.parse("[1 | 1]")
        canonical = bytes.fromhex("000833")
        padded = bytes.fromhex("000b4660")
        assert stamp_to_bytes(stamp) == canonical
        assert stamp_from_bytes(canonical) == stamp
        with pytest.raises(EncodingError):
            stamp_from_bytes(padded)
        with pytest.raises(EncodingError):
            stamp_from_bitstream(bits_from_length_prefixed(padded, count_bytes=2))


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import kernel_clocks, names


@st.composite
def stamps(draw):
    """Arbitrary version stamps reached by real fork/update/join walks."""
    return draw(kernel_clocks("version-stamp", max_operations=14, max_epoch=0)).stamp


class TestPackedFastPath:
    """The packed int codec is pinned to the list-based reference.

    ``stamp_to_bytes``/``stamp_from_bytes`` run the bulk int fast path;
    the list-of-bits functions are the retained readable reference.  The
    two must agree bit-for-bit on every stamp, and the fast decoder must
    accept buffers without copying and intern repeated payloads.
    """

    @settings(max_examples=60, deadline=None)
    @given(stamp=stamps())
    def test_packed_encode_matches_list_reference(self, stamp):
        from repro.core.encoding import name_to_packed, stamp_to_packed
        from repro.kernel.wire import bits_to_length_prefixed

        reference = bits_to_length_prefixed(
            stamp_to_bitstream(stamp), count_bytes=2
        )
        assert stamp_to_bytes(stamp) == reference
        value, count = stamp_to_packed(stamp)
        assert count == len(stamp_to_bitstream(stamp))
        assert encoded_size_bits(stamp) == count
        update_value, update_count = name_to_packed(stamp.update_component)
        assert update_count == len(name_to_bitstream(stamp.update_component))

    @settings(max_examples=60, deadline=None)
    @given(stamp=stamps())
    def test_packed_decode_matches_list_reference(self, stamp):
        from repro.kernel.wire import bits_from_length_prefixed

        payload = stamp_to_bytes(stamp)
        fast = stamp_from_bytes(payload)
        reference = stamp_from_bitstream(
            bits_from_length_prefixed(payload, count_bytes=2)
        )
        assert fast == reference == stamp

    @settings(max_examples=40, deadline=None)
    @given(stamp=stamps(), data=st.data())
    def test_mutations_agree_with_list_reference(self, stamp, data):
        from repro.kernel.wire import bits_from_length_prefixed

        payload = bytearray(stamp_to_bytes(stamp))
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(0, len(payload) - 1))
            payload[index] ^= 1 << data.draw(st.integers(0, 7))
        payload = bytes(payload)
        try:
            fast = stamp_from_bytes(payload)
        except EncodingError:
            fast = "rejected"
        try:
            reference = stamp_from_bitstream(
                bits_from_length_prefixed(payload, count_bytes=2)
            )
        except EncodingError:
            reference = "rejected"
        assert fast == reference

    @settings(max_examples=200, deadline=None)
    @given(name=names(max_strings=300, max_length=64))
    def test_packed_encode_matches_list_reference_on_large_names(self, name):
        from repro.core.encoding import name_to_packed

        bits = name_to_bitstream(name)
        assert name_to_packed(name) == (int("".join(map(str, bits)), 2), len(bits))

    def test_decode_accepts_memoryview(self):
        stamp = VersionStamp.parse("[00+01 | 00+01+1]")
        payload = stamp_to_bytes(stamp)
        assert stamp_from_bytes(memoryview(payload)) == stamp
        assert stamp_from_bytes(bytearray(payload)) == stamp

    def test_decode_intern_is_pointer_equal(self):
        stamp = VersionStamp.parse("[00+01 | 00+01+1]")
        payload = stamp_to_bytes(stamp)
        assert stamp_from_bytes(payload) is stamp_from_bytes(payload)
        # The reducing flag partitions the intern keyspace.
        assert stamp_from_bytes(payload) is not stamp_from_bytes(
            payload, reducing=False
        )
