"""Deterministic temporal evolution of the synthetic ecosystem.

The paper measures a single point in time; this package adds the time
axis.  A named evolution policy in :data:`POLICIES` (``cert-rotation``,
``dns-churn``, ``cdn-migration``, ``shard-consolidation``,
``h3-rollout``, ``mixed``) describes per-epoch churn rates; the engine
applies them through the :class:`~repro.web.ecosystem.Ecosystem`
mutation hooks, one :class:`EpochPlan` per ``(seed, epoch, domain)`` —
the same RNG discipline :mod:`repro.faults` uses per
``(seed, run, domain)`` — so an evolved world is a pure,
executor-independent function of its config.

>>> from repro.evolve import POLICIES, EpochPlan
>>> POLICIES.lookup("shard-consolidation").empty
False
>>> EpochPlan.compile("none", seed=7, epoch=2, domain="a.com") is None
True

:func:`run_longitudinal` measures the same study at every epoch and
feeds :mod:`repro.analysis.longitudinal` (the ``repro evolve`` CLI).
"""

from repro.evolve.engine import advance_epoch, evolve_ecosystem
from repro.evolve.plan import EpochPlan
from repro.evolve.policy import POLICIES, ChurnKind
from repro.evolve.runner import run_longitudinal

__all__ = [
    "POLICIES",
    "ChurnKind",
    "EpochPlan",
    "advance_epoch",
    "evolve_ecosystem",
    "run_longitudinal",
]
