"""Tests for the stream state machine."""

from __future__ import annotations

import pytest

from repro.h2.stream import Http2Stream, StreamError, StreamState


class TestStreamLifecycle:
    def test_happy_path(self):
        stream = Http2Stream(stream_id=1)
        assert stream.state is StreamState.IDLE
        stream.send_request([(":method", "GET")], now=1.0)
        assert stream.state is StreamState.HALF_CLOSED_LOCAL
        stream.receive_response(200, [], now=2.0)
        assert stream.state is StreamState.CLOSED
        assert stream.opened_at == 1.0
        assert stream.closed_at == 2.0
        assert stream.response_status == 200

    def test_reset_from_any_state(self):
        stream = Http2Stream(stream_id=1)
        stream.send_request([], now=0.0)
        stream.reset(now=1.0)
        assert stream.is_closed
        stream.reset(now=2.0)  # idempotent
        assert stream.closed_at == 1.0


class TestStreamValidation:
    def test_even_stream_id_rejected(self):
        with pytest.raises(StreamError):
            Http2Stream(stream_id=2)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(StreamError):
            Http2Stream(stream_id=0)
        with pytest.raises(StreamError):
            Http2Stream(stream_id=-3)

    def test_double_request_rejected(self):
        stream = Http2Stream(stream_id=1)
        stream.send_request([], now=0.0)
        with pytest.raises(StreamError):
            stream.send_request([], now=1.0)

    def test_response_before_request_rejected(self):
        stream = Http2Stream(stream_id=1)
        with pytest.raises(StreamError):
            stream.receive_response(200, [], now=0.0)
