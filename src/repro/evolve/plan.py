"""Per-unit epoch plans: the RNG discipline of the evolution engine.

An :class:`EpochPlan` compiles one evolution policy for one
``(seed, epoch, domain)`` triple, exactly the way a
:class:`~repro.faults.FaultPlan` compiles a fault profile for one
``(seed, run, domain)``: both subclass
:class:`~repro.util.scenario.SeededPlan`, so every mutation decision
the engine makes for a unit (a website, a DNS entry) draws from that
unit's per-:class:`~repro.evolve.policy.ChurnKind` stream.  Epochs are
therefore reproducible (the evolved world is a pure function of
``(ecosystem config, policy, epoch)``, rebuildable inside any process
worker), and units and kinds are independent of each other.

The empty policy (``"none"``) compiles to ``None`` so the engine's
callers short-circuit before touching any RNG — a world evolved under
``"none"`` is byte-identical to one generated before this module
existed (the pinned clean golden digest proves it).

>>> from repro.evolve.plan import EpochPlan
>>> EpochPlan.compile("none", seed=7, epoch=3, domain="site000001.com") is None
True
>>> plan = EpochPlan.compile("mixed", seed=7, epoch=1, domain="site000001.com")
>>> again = EpochPlan.compile("mixed", seed=7, epoch=1, domain="site000001.com")
>>> from repro.evolve.policy import ChurnKind
>>> plan.fires(ChurnKind.CERT_ROTATE) == again.fires(ChurnKind.CERT_ROTATE)
True
"""

from __future__ import annotations

from typing import ClassVar

from repro.evolve.policy import POLICIES
from repro.util.scenario import Registry, Scenario, SeededPlan

__all__ = ["EpochPlan"]


class EpochPlan(SeededPlan):
    """A policy compiled for one unit (``domain``) of one epoch
    (``unit``); its fired-count tally feeds the per-epoch churn ledger
    the longitudinal report renders."""

    TAG: ClassVar[str] = "evolve"
    REGISTRY: ClassVar[Registry] = POLICIES

    @classmethod
    def compile(
        cls, policy: Scenario | str, *, seed: int, epoch: int, domain: str
    ) -> "EpochPlan | None":
        """Compile ``policy`` for one unit; empty policies yield ``None``.

        Returning ``None`` (not an inert plan object) is what makes the
        evolution machinery provably free when unused: the engine is
        never even entered for the ``"none"`` policy or for epoch 0.
        """
        return cls._compile(policy, seed, epoch, domain)
