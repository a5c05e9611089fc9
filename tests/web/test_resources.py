"""Tests for resources and page trees."""

from __future__ import annotations

import pytest

from repro.web.resources import RequestMode, Resource, ResourceType


class TestResource:
    def test_url(self):
        resource = Resource(domain="Example.COM", path="/a.js",
                            rtype=ResourceType.SCRIPT)
        assert resource.url == "https://example.com/a.js"

    def test_default_modes(self):
        assert Resource(domain="x.com", path="/", rtype=ResourceType.SCRIPT).mode \
            is RequestMode.NO_CORS
        assert Resource(domain="x.com", path="/", rtype=ResourceType.FONT).mode \
            is RequestMode.CORS_ANON
        assert Resource(domain="x.com", path="/", rtype=ResourceType.DOCUMENT).mode \
            is RequestMode.NAVIGATE
        assert Resource(domain="x.com", path="/", rtype=ResourceType.XHR).mode \
            is RequestMode.CORS_ANON

    def test_explicit_mode_kept(self):
        resource = Resource(domain="x.com", path="/", rtype=ResourceType.XHR,
                            mode=RequestMode.CORS_CREDENTIALED)
        assert resource.mode is RequestMode.CORS_CREDENTIALED

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            Resource(domain="bad_host.com", path="/", rtype=ResourceType.IMAGE)

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError):
            Resource(domain="x.com", path="a.js", rtype=ResourceType.SCRIPT)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Resource(domain="x.com", path="/", rtype=ResourceType.IMAGE, size=-1)

    def test_walk_depth_first(self):
        leaf = Resource(domain="c.com", path="/3", rtype=ResourceType.BEACON)
        mid = Resource(domain="b.com", path="/2", rtype=ResourceType.SCRIPT,
                       children=[leaf])
        root = Resource(domain="a.com", path="/1", rtype=ResourceType.DOCUMENT,
                        children=[mid])
        assert [r.path for r in root.walk()] == ["/1", "/2", "/3"]
        assert sum(1 for _ in root.walk()) == 3
        assert root.domains() == {"a.com", "b.com", "c.com"}
