"""Deterministic alt-svc/HTTP-3 adoption plans (the ``h3_profile`` axis)."""

from repro.h3.plan import H3_PROFILES, H3Kind, H3Plan, apply_h3_adoption

__all__ = ["H3Kind", "H3Plan", "H3_PROFILES", "apply_h3_adoption"]
