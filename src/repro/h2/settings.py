"""HTTP/2 SETTINGS parameters (RFC 7540 §6.5.2)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Http2Settings"]


@dataclass(frozen=True)
class Http2Settings:
    """One endpoint's settings, with RFC 7540 defaults."""

    header_table_size: int = 4096
    enable_push: bool = True
    max_concurrent_streams: int | None = None  # None == unlimited
    initial_window_size: int = 65_535
    max_frame_size: int = 16_384
    max_header_list_size: int | None = None

    def __post_init__(self) -> None:
        if not 16_384 <= self.max_frame_size <= 16_777_215:
            raise ValueError(f"illegal MAX_FRAME_SIZE: {self.max_frame_size}")
        if self.initial_window_size > 2**31 - 1:
            raise ValueError("INITIAL_WINDOW_SIZE overflows 31 bits")
