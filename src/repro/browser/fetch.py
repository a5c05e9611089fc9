"""WHATWG Fetch Standard credentials logic (the CRED cause).

The Fetch Standard decides, per request, whether credentials (cookies,
client certificates) may be attached.  Chromium turns that decision into
a connection-pool partition: requests that may not carry credentials use
"privacy mode" sockets, and an existing credentialed HTTP/2 session is
*not* reused for them even when IP and certificate match (§3, [22]).

This module implements the decision table the reproduction needs:

==================  ============  ==========================
request mode        same-origin   credentials included?
==================  ============  ==========================
navigate            —             yes
no-cors             —             yes (classic scripts/imgs)
cors-anonymous      yes           yes
cors-anonymous      no            **no**  → privacy mode
cors-credentialed   —             yes
==================  ============  ==========================

Firefox deliberately does not partition its pool this way ([23]); the
browser model's ``ignore_privacy_mode`` switch reproduces both the
Firefox behaviour and the paper's patched-Chromium measurement run
("Alexa w/o Fetch").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.domains import normalize
from repro.web.resources import RequestMode

__all__ = ["FetchDecision", "decide_credentials", "is_same_origin"]


def is_same_origin(request_domain: str, document_domain: str) -> bool:
    """Scheme and port are fixed (https/443), so origin == host here."""
    return normalize(request_domain) == normalize(document_domain)


@dataclass(frozen=True)
class FetchDecision:
    """The outcome of the Fetch Standard's credential logic."""

    include_credentials: bool

    @property
    def privacy_mode(self) -> bool:
        """Chromium's pool-partition flag: on when credentials are barred."""
        return not self.include_credentials


def decide_credentials(
    mode: RequestMode, *, request_domain: str, document_domain: str
) -> FetchDecision:
    """Apply the decision table above."""
    if mode in (RequestMode.NAVIGATE, RequestMode.NO_CORS,
                RequestMode.CORS_CREDENTIALED):
        return FetchDecision(include_credentials=True)
    if mode is RequestMode.CORS_ANON:
        same_origin = is_same_origin(request_domain, document_domain)
        return FetchDecision(include_credentials=same_origin)
    raise ValueError(f"unhandled request mode: {mode!r}")
