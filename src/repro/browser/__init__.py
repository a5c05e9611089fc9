"""Chromium-like browser model: fetch logic, session pool, page loader."""

from repro.browser.browser import BrowserConfig, ChromiumBrowser, Visit
from repro.browser.fetch import FetchDecision, decide_credentials, is_same_origin
from repro.browser.loader import LoadedRequest, PageLoader, PageLoadResult
from repro.browser.pool import ConnectionPool, PoolDecision, SessionKey

__all__ = [
    "BrowserConfig",
    "ChromiumBrowser",
    "Visit",
    "FetchDecision",
    "decide_credentials",
    "is_same_origin",
    "LoadedRequest",
    "PageLoader",
    "PageLoadResult",
    "ConnectionPool",
    "PoolDecision",
    "SessionKey",
]
