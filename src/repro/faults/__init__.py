"""Seeded, deterministic fault injection for the measurement stack.

See :mod:`repro.faults.plan` for the model.  The layer-specific typed
errors live with their layers (``repro.dns.resolver``,
``repro.tls.verify``, ``repro.h2.stream``) so each layer stays usable
without importing the fault machinery.
"""

from repro.faults.plan import FAULTS, FaultKind, FaultPlan

__all__ = ["FAULTS", "FaultKind", "FaultPlan"]
