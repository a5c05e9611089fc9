"""Tests for HTTP/2 settings."""

from __future__ import annotations

import pytest

from repro.h2.settings import Http2Settings


class TestHttp2Settings:
    def test_rfc_defaults(self):
        settings = Http2Settings()
        assert settings.header_table_size == 4096
        assert settings.enable_push is True
        assert settings.max_concurrent_streams is None
        assert settings.initial_window_size == 65_535
        assert settings.max_frame_size == 16_384

    def test_frame_size_bounds(self):
        with pytest.raises(ValueError):
            Http2Settings(max_frame_size=16_383)
        with pytest.raises(ValueError):
            Http2Settings(max_frame_size=1 << 24)

    def test_window_size_bounds(self):
        with pytest.raises(ValueError):
            Http2Settings(initial_window_size=2**31)
