"""Tests for the HPACK codec."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.h2.hpack import (
    STATIC_TABLE,
    HpackDecoder,
    HpackEncoder,
    HpackError,
    decode_integer,
    encode_integer,
)

_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12
)
_value = st.text(min_size=0, max_size=24)
_headers = st.lists(st.tuples(_name, _value), min_size=0, max_size=12)


class TestIntegerCoding:
    @pytest.mark.parametrize("value", [0, 1, 30, 31, 127, 128, 1337, 2**20])
    @pytest.mark.parametrize("prefix", [4, 5, 6, 7])
    def test_roundtrip(self, value, prefix):
        encoded = encode_integer(value, prefix)
        decoded, offset = decode_integer(encoded, 0, prefix)
        assert decoded == value
        assert offset == len(encoded)

    def test_rfc7541_example_1337_with_5bit_prefix(self):
        # RFC 7541 Appendix C.1.2.
        assert encode_integer(1337, 5) == bytes([0b11111, 0b10011010, 0b00001010])

    def test_negative_rejected(self):
        with pytest.raises(HpackError):
            encode_integer(-1, 5)

    def test_truncated_input(self):
        with pytest.raises(HpackError):
            decode_integer(b"", 0, 5)
        with pytest.raises(HpackError):
            decode_integer(bytes([0b11111]), 0, 5)  # missing continuation

    @given(st.integers(min_value=0, max_value=2**30),
           st.integers(min_value=1, max_value=8))
    def test_roundtrip_property(self, value, prefix):
        decoded, _ = decode_integer(encode_integer(value, prefix), 0, prefix)
        assert decoded == value


class TestStaticTable:
    def test_size(self):
        assert len(STATIC_TABLE) == 61

    def test_first_and_last_entries(self):
        assert STATIC_TABLE[0] == (":authority", "")
        assert STATIC_TABLE[1] == (":method", "GET")
        assert STATIC_TABLE[60] == ("www-authenticate", "")


class TestHpackRoundtrip:
    def test_simple_request(self):
        headers = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", "www.example.com"),
            (":path", "/index.html"),
        ]
        assert HpackDecoder().decode(HpackEncoder().encode(headers)) == headers

    def test_names_lowercased(self):
        encoded = HpackEncoder().encode([("User-Agent", "x")])
        assert HpackDecoder().decode(encoded) == [("user-agent", "x")]

    def test_repeat_encoding_shrinks(self):
        """Dynamic-table hits make later blocks smaller (the HPACK win
        the paper says is lost when connections are redundant)."""
        for headers in (
            [
                (":authority", "cdn.example.com"),
                ("user-agent", "repro-browser/1.0"),
                ("cookie", "session=abcdef0123456789"),
            ],
            # A typical third-party analytics request.
            [
                (":method", "GET"), (":scheme", "https"),
                (":authority", "www.google-analytics.com"),
                (":path", "/analytics.js"),
                ("user-agent", "repro-chromium/87.0"), ("accept", "*/*"),
                ("accept-encoding", "gzip, deflate"),
                ("cookie", "sid=0123456789abcdef"),
            ],
        ):
            encoder = HpackEncoder()
            first = encoder.encode(headers)
            second = encoder.encode(headers)
            assert len(first) > 5 * len(headers)  # the cold literals
            assert len(second) <= len(headers)  # pure index references

    def test_two_cold_encoders_pay_twice(self):
        headers = [("x-custom-header", "some-value-1234")]
        warm = HpackEncoder()
        warm.encode(headers)
        warm_second = warm.encode(headers)
        cold_second = HpackEncoder().encode(headers)
        assert len(warm_second) < len(cold_second)

    def test_decoder_tracks_dynamic_table(self):
        encoder = HpackEncoder()
        decoder = HpackDecoder()
        headers = [("x-a", "1"), ("x-b", "2")]
        assert decoder.decode(encoder.encode(headers)) == headers
        assert decoder.decode(encoder.encode(headers)) == headers

    def test_sensitive_headers_never_indexed(self):
        encoder = HpackEncoder()
        headers = [("authorization", "Bearer secret")]
        encoder.encode(headers)
        second = encoder.encode(headers)
        # Never-indexed: repeating does not shrink to a 1-byte index.
        assert len(second) > 1
        assert HpackDecoder().decode(second) == headers

    def test_compression_ratio_tracks(self):
        encoder = HpackEncoder()
        assert encoder.bytes_emitted == encoder.bytes_uncompressed == 0
        encoder.encode([(":method", "GET")])
        assert 0 < encoder.bytes_emitted < encoder.bytes_uncompressed

    @given(_headers)
    def test_roundtrip_property(self, headers):
        normalized = [(name.lower(), value) for name, value in headers]
        encoder = HpackEncoder()
        decoder = HpackDecoder()
        for _ in range(3):  # repeated blocks exercise the dynamic table
            assert decoder.decode(encoder.encode(normalized)) == normalized


class TestHpackErrors:
    def test_index_zero_rejected(self):
        with pytest.raises(HpackError):
            HpackDecoder().decode(bytes([0x80]))

    def test_out_of_range_index(self):
        with pytest.raises(HpackError):
            HpackDecoder().decode(encode_integer(1000, 7, 0x80))

    def test_huffman_rejected(self):
        # 0x40 literal, name string with H bit set.
        data = bytes([0x40, 0x81, 0x00])
        with pytest.raises(HpackError):
            HpackDecoder().decode(data)

    def test_truncated_string(self):
        data = bytes([0x40, 0x05, ord("a")])
        with pytest.raises(HpackError):
            HpackDecoder().decode(data)


class TestDynamicTableEviction:
    def test_small_table_evicts(self):
        encoder = HpackEncoder(max_table_size=64)
        decoder = HpackDecoder(max_table_size=64)
        for index in range(20):
            headers = [(f"x-header-{index}", "v" * 10)]
            assert decoder.decode(encoder.encode(headers)) == headers
        assert encoder._table.size <= 64

    def test_size_update_instruction(self):
        decoder = HpackDecoder(max_table_size=4096)
        # 0x20 | 0 → resize to 0, then an indexed static entry.
        data = bytes([0x20]) + bytes([0x82])
        assert decoder.decode(data) == [(":method", "GET")]
        assert decoder._table.max_size == 0
