"""HPACK header compression (RFC 7541, without Huffman coding).

A faithful subset: the full static table, a size-bounded dynamic table
with FIFO eviction, prefix-coded integers, and the three literal
representations.  Huffman coding is omitted (the H bit is always 0),
which RFC 7541 permits.

Why HPACK is in a connection-reuse reproduction at all: one of the costs
the paper ascribes to redundant connections is that "header compression
is less effective as the compression dictionary has to be bootstrapped
again" (§2.2.1).  The examples and ablation benches use this encoder to
measure exactly that effect — bytes on the wire with one shared
connection versus several cold ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.h2.errors import H2Error

__all__ = ["HpackEncoder", "HpackDecoder", "HpackError", "STATIC_TABLE"]


class HpackError(H2Error, ValueError):
    """Malformed HPACK input.

    Keeps its historical :class:`ValueError` base alongside the
    subsystem root, so pre-existing ``except ValueError`` callers
    still catch it.
    """


#: RFC 7541 Appendix A static table (1-indexed).
STATIC_TABLE: tuple[tuple[str, str], ...] = (
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
)

_STATIC_LOOKUP: dict[tuple[str, str], int] = {
    pair: index + 1 for index, pair in enumerate(STATIC_TABLE)
}
_STATIC_NAME_LOOKUP: dict[str, int] = {}
for _index, (_name, _value) in enumerate(STATIC_TABLE):
    _STATIC_NAME_LOOKUP.setdefault(_name, _index + 1)

_STATIC_LEN = len(STATIC_TABLE)

#: Per-entry overhead in the dynamic-table size calculation (RFC 7541 §4.1).
_ENTRY_OVERHEAD = 32

#: Headers that should never enter the dynamic table (RFC 7541 §7.1.3).
_NEVER_INDEX = frozenset({"authorization", "set-cookie"})


def encode_integer(value: int, prefix_bits: int, first_byte_flags: int = 0) -> bytes:
    """Prefix-coded integer (RFC 7541 §5.1)."""
    if value < 0:
        raise HpackError(f"cannot encode negative integer {value}")
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return bytes([first_byte_flags | value])
    out = bytearray([first_byte_flags | limit])
    value -= limit
    while value >= 128:
        out.append((value % 128) + 128)
        value //= 128
    out.append(value)
    return bytes(out)


def decode_integer(data: bytes, offset: int, prefix_bits: int) -> tuple[int, int]:
    """Decode a prefix-coded integer; returns (value, next_offset)."""
    if offset >= len(data):
        raise HpackError("truncated integer")
    limit = (1 << prefix_bits) - 1
    value = data[offset] & limit
    offset += 1
    if value < limit:
        return value, offset
    shift = 0
    while True:
        if offset >= len(data):
            raise HpackError("truncated integer continuation")
        byte = data[offset]
        offset += 1
        value += (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, offset
        if shift > 62:
            raise HpackError("integer overflow")


def _append_integer(
    out: bytearray, value: int, prefix_bits: int, first_byte_flags: int = 0
) -> None:
    """Append a prefix-coded integer to ``out`` without intermediates."""
    limit = (1 << prefix_bits) - 1
    if 0 <= value < limit:
        out.append(first_byte_flags | value)
        return
    out += encode_integer(value, prefix_bits, first_byte_flags)


def _append_string(out: bytearray, text: str) -> None:
    """Append a length-prefixed literal string to ``out`` (H bit 0)."""
    raw = text.encode("utf-8")
    length = len(raw)
    if length < 127:
        out.append(length)
    else:
        out += encode_integer(length, 7)
    out += raw


def _decode_string(data: bytes, offset: int) -> tuple[str, int]:
    if offset >= len(data):
        raise HpackError("truncated string length")
    huffman = bool(data[offset] & 0x80)
    length, offset = decode_integer(data, offset, 7)
    if huffman:
        raise HpackError("huffman-coded strings are not supported")
    if offset + length > len(data):
        raise HpackError("truncated string body")
    return data[offset:offset + length].decode("utf-8"), offset + length


@dataclass
class _DynamicTable:
    """The shared dynamic-table mechanics of encoder and decoder.

    Entries live in a deque with the newest entry at position 0, exactly
    the combined-address-space order of RFC 7541 §2.3.3.  Two index maps
    keyed by monotonically increasing insertion ids give the encoder an
    O(1) per-header lookup (the lookup itself is inlined in
    :meth:`HpackEncoder.encode`): an entry inserted as id ``k``
    currently sits at position ``_next_id - 1 - k`` because evictions
    only ever remove the oldest entry, so its combined index is
    ``_STATIC_LEN + _next_id - k``.  The maps store the *latest* id
    per (name, value) pair and per name, so a lookup prefers the
    newest entry.
    """

    max_size: int = 4096
    entries: deque[tuple[str, str]] = field(default_factory=deque)
    size: int = 0
    _sizes: deque[int] = field(default_factory=deque, repr=False)
    _next_id: int = field(default=0, repr=False)
    # thread-safe: one dynamic table per HPACK encoder/decoder, one of
    # those per connection, one connection per visit task.
    _by_pair: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    # thread-safe: per-connection, like _by_pair above.
    _by_name: dict[str, int] = field(default_factory=dict, repr=False)

    @staticmethod
    def entry_size(name: str, value: str) -> int:
        # ASCII fast path: header names/values are almost always ASCII,
        # where the UTF-8 byte length equals the string length and no
        # bytes object needs to be materialised.
        if name.isascii() and value.isascii():
            return len(name) + len(value) + _ENTRY_OVERHEAD
        return len(name.encode()) + len(value.encode()) + _ENTRY_OVERHEAD

    def _evict_oldest(self) -> None:
        oldest_id = self._next_id - len(self.entries)
        pair = self.entries.pop()
        self.size -= self._sizes.pop()
        if self._by_pair.get(pair) == oldest_id:
            del self._by_pair[pair]
        if self._by_name.get(pair[0]) == oldest_id:
            del self._by_name[pair[0]]

    def add(self, name: str, value: str) -> None:
        needed = self.entry_size(name, value)
        while self.entries and self.size + needed > self.max_size:
            self._evict_oldest()
        if needed <= self.max_size:
            self.entries.appendleft((name, value))
            self._sizes.appendleft(needed)
            self.size += needed
            self._by_pair[(name, value)] = self._next_id
            self._by_name[name] = self._next_id
            self._next_id += 1

    def resize(self, new_max: int) -> None:
        self.max_size = new_max
        while self.entries and self.size > self.max_size:
            self._evict_oldest()

    def lookup(self, index: int) -> tuple[str, str]:
        """Combined-address-space lookup (static table first)."""
        if index < 1:
            raise HpackError(f"index {index} out of range")
        if index <= _STATIC_LEN:
            return STATIC_TABLE[index - 1]
        dynamic_index = index - _STATIC_LEN - 1
        if dynamic_index >= len(self.entries):
            raise HpackError(f"index {index} out of range")
        return self.entries[dynamic_index]



class HpackEncoder:
    """Stateful header-block encoder for one connection direction."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = _DynamicTable(max_size=max_table_size)
        self.bytes_emitted = 0
        self.bytes_uncompressed = 0

    def encode(self, headers: list[tuple[str, str]]) -> bytes:
        """Encode one header list into a header block fragment."""
        out = bytearray()
        append = out.append
        table = self._table
        # The table's maps are mutated in place by add(), never rebound,
        # so they can be hoisted out of the per-header loop.
        by_pair = table._by_pair
        by_name = table._by_name
        static_full = _STATIC_LOOKUP
        static_name = _STATIC_NAME_LOOKUP
        uncompressed = 0
        for pair in headers:
            name, value = pair
            lowered = name.lower()
            if lowered != name:
                name = lowered
                pair = (name, value)
            uncompressed += len(name) + len(value) + 2
            full = static_full.get(pair)
            if full is None:
                entry_id = by_pair.get(pair)
                if entry_id is not None:
                    full = _STATIC_LEN + table._next_id - entry_id
            if full is not None:  # Indexed representation.
                if full < 127:
                    append(0x80 | full)
                else:
                    out += encode_integer(full, 7, 0x80)
                continue
            name_only = static_name.get(name)
            if name_only is None:
                entry_id = by_name.get(name)
                if entry_id is not None:
                    name_only = _STATIC_LEN + table._next_id - entry_id
            if name in _NEVER_INDEX:
                # Literal never indexed (0x10 prefix).
                if name_only is not None:
                    _append_integer(out, name_only, 4, 0x10)
                else:
                    append(0x10)
                    _append_string(out, name)
                _append_string(out, value)
                continue
            # Literal with incremental indexing (0x40 prefix).
            if name_only is not None:
                _append_integer(out, name_only, 6, 0x40)
            else:
                append(0x40)
                _append_string(out, name)
            _append_string(out, value)
            table.add(name, value)
        self.bytes_uncompressed += uncompressed
        self.bytes_emitted += len(out)
        return bytes(out)


class HpackDecoder:
    """Stateful header-block decoder for one connection direction."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = _DynamicTable(max_size=max_table_size)

    def decode(self, data: bytes) -> list[tuple[str, str]]:
        """Decode a header block fragment into a header list."""
        headers: list[tuple[str, str]] = []
        offset = 0
        while offset < len(data):
            byte = data[offset]
            if byte & 0x80:  # Indexed representation.
                index, offset = decode_integer(data, offset, 7)
                if index == 0:
                    raise HpackError("indexed representation with index 0")
                headers.append(self._table.lookup(index))
            elif byte & 0x40:  # Literal with incremental indexing.
                index, offset = decode_integer(data, offset, 6)
                name, offset = (
                    self._table.lookup(index)[0], offset
                ) if index else _decode_string(data, offset)
                value, offset = _decode_string(data, offset)
                self._table.add(name, value)
                headers.append((name, value))
            elif byte & 0x20:  # Dynamic-table size update.
                new_size, offset = decode_integer(data, offset, 5)
                self._table.resize(new_size)
            else:  # Literal without indexing / never indexed.
                index, offset = decode_integer(data, offset, 4)
                name, offset = (
                    self._table.lookup(index)[0], offset
                ) if index else _decode_string(data, offset)
                value, offset = _decode_string(data, offset)
                headers.append((name, value))
        return headers
