"""Property-based tests for the session pool.

Random request sequences over a small world must preserve the pool's
invariants regardless of ordering — the kind of guarantees Chromium's
socket pool gives that the paper's methodology relies on.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.pool import ConnectionPool
from repro.tls.certificate import Certificate
from repro.web.server import OriginServer

_DOMAINS = ("a.example.com", "b.example.com", "c.other.net")
_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")


def _world():
    shared = Certificate(serial=1, subject="a.example.com",
                         sans=("*.example.com",), issuer_org="CA")
    other = Certificate(serial=2, subject="c.other.net",
                        sans=("c.other.net",), issuer_org="CA")
    servers = {}
    for ip in _IPS:
        servers[ip] = OriginServer(
            ip=ip, name="w",
            cert_map={
                "a.example.com": shared,
                "b.example.com": shared,
                "c.other.net": other,
            },
            default_certificate=shared,
        )
    return servers


_request = st.tuples(
    st.sampled_from(_DOMAINS),
    st.lists(st.sampled_from(_IPS), min_size=1, max_size=2, unique=True),
    st.booleans(),  # privacy mode
)


class TestPoolProperties:
    @given(st.lists(_request, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_sequences(self, requests):
        servers = _world()
        pool = ConnectionPool(server_lookup=servers.__getitem__,
                              rng=random.Random(0))
        for step, (host, ips, privacy) in enumerate(requests):
            decision = pool.get_connection(
                host, tuple(ips), privacy_mode=privacy, now=float(step)
            )
            session = decision.connection
            # 1. Every handed-out session is open and partition-correct.
            assert session.is_open
            assert session.privacy_mode == privacy
            # 2. A created session connects to an announced address.
            if decision.created:
                assert session.remote_ip in ips
            # 3. A coalesced session satisfies the RFC 7540 predicate.
            if decision.coalesced:
                assert session.remote_ip in ips
                assert session.certificate.covers(host)
            # 4. A non-created, non-coalesced hit is an exact-key alias:
            #    its certificate must still cover the host.
            if not decision.created:
                assert session.certificate.covers(host)
        # 5. Accounting adds up.
        assert pool.created_count == len(pool.sessions)
        assert pool.created_count + pool.coalesced_count <= len(requests)

    @given(st.lists(_request, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_repeat_of_same_request_never_creates(self, requests):
        servers = _world()
        pool = ConnectionPool(server_lookup=servers.__getitem__,
                              rng=random.Random(1))
        for step, (host, ips, privacy) in enumerate(requests):
            pool.get_connection(host, tuple(ips), privacy_mode=privacy,
                                now=float(step))
            again = pool.get_connection(host, tuple(ips),
                                        privacy_mode=privacy,
                                        now=float(step) + 0.5)
            assert not again.created

    @given(st.lists(_request, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_patched_pool_has_single_partition(self, requests):
        servers = _world()
        pool = ConnectionPool(server_lookup=servers.__getitem__,
                              rng=random.Random(2), ignore_privacy_mode=True)
        for step, (host, ips, privacy) in enumerate(requests):
            pool.get_connection(host, tuple(ips), privacy_mode=privacy,
                                now=float(step))
        assert all(not session.privacy_mode for session in pool.sessions)

    @given(st.lists(_request, min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_patched_pool_never_more_sessions_than_default(self, requests):
        """The §5.3.3 patch can only reduce the number of connections."""
        counts = []
        for ignore in (False, True):
            servers = _world()
            pool = ConnectionPool(server_lookup=servers.__getitem__,
                                  rng=random.Random(3),
                                  ignore_privacy_mode=ignore)
            for step, (host, ips, privacy) in enumerate(requests):
                pool.get_connection(host, tuple(ips), privacy_mode=privacy,
                                    now=float(step))
            counts.append(len(pool.sessions))
        default_count, patched_count = counts
        assert patched_count <= default_count


class TestPoolEdgeCases:
    """Degenerate inputs the executor refactor's batching can produce:
    empty request sequences (empty site lists), one-request batches and
    per-visit pools that only ever see a single site's traffic."""

    def test_untouched_pool_is_empty(self):
        pool = ConnectionPool(server_lookup=_world().__getitem__,
                              rng=random.Random(4))
        assert pool.sessions == []
        assert pool.created_count == 0
        assert pool.coalesced_count == 0

    def test_close_all_on_empty_pool(self):
        pool = ConnectionPool(server_lookup=_world().__getitem__,
                              rng=random.Random(5))
        pool.close_all(now=1.0, reason="test-end")
        assert pool.sessions == []

    @given(_request)
    @settings(max_examples=30, deadline=None)
    def test_single_request_always_creates(self, request_spec):
        host, ips, privacy = request_spec
        pool = ConnectionPool(server_lookup=_world().__getitem__,
                              rng=random.Random(6))
        decision = pool.get_connection(host, tuple(ips),
                                       privacy_mode=privacy, now=0.0)
        assert decision.created
        assert not decision.coalesced
        assert len(pool.sessions) == 1

    @given(st.lists(_request, min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_fresh_pools_are_independent(self, requests):
        """One pool per visit (the per-site task model) must behave the
        same no matter how many other pools ran before it."""

        def session_count() -> int:
            pool = ConnectionPool(server_lookup=_world().__getitem__,
                                  rng=random.Random(7))
            for step, (host, ips, privacy) in enumerate(requests):
                pool.get_connection(host, tuple(ips), privacy_mode=privacy,
                                    now=float(step))
            return len(pool.sessions)

        first = session_count()
        for _ in range(3):
            assert session_count() == first
