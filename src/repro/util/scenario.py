"""Named scenario registries and their seeded per-unit plans.

The what-if axes — injected failures (``fault_profile``,
:mod:`repro.faults`), ecosystem churn (``evolution_policy``,
:mod:`repro.evolve`) and alt-svc HTTP/3 adoption (``h3_profile``,
:mod:`repro.h3`) — share one skeleton: a :class:`Spec` is one kind's
rate in ``[0, 1]`` plus a kind-specific magnitude; a :class:`Scenario`
is a named set of specs, at most one per kind; a :class:`Registry`
holds one axis's scenarios behind one validating lookup; a
:class:`SeededPlan` compiles a scenario for one
``(seed, unit, domain)`` with one RNG stream per kind.

Inertness contract: every axis registers an empty ``"none"`` scenario,
and compiling an empty scenario yields ``None`` rather than an inert
plan.  Hook points guard on ``plan is None`` before touching any RNG,
so a study under ``"none"`` runs exactly the code path it ran before
the axis existed (the pinned golden digests prove it).

>>> import enum
>>> class Kind(enum.Enum):
...     A = "a"
...     B = "b"
>>> TOYS = Registry("toy profile", "profiles", (
...     Scenario("none", "nothing"),
...     Scenario("both", "a and b",
...              (Spec(Kind.A, 0.5), Spec(Kind.B, 0.2, param=3.0))),
... ))
>>> TOYS.names()
['both', 'none']
>>> TOYS.lookup("both").spec_for(Kind.B)
Spec(kind=<Kind.B: 'b'>, rate=0.2, param=3.0)
>>> halved(TOYS.lookup("both").specs)[1]
Spec(kind=<Kind.B: 'b'>, rate=0.1, param=3.0)
>>> TOYS.lookup("x")
Traceback (most recent call last):
    ...
ValueError: unknown toy profile 'x'; registered profiles: ['both', 'none']
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable

from repro.util.rng import stable_hash

__all__ = [
    "Registry", "Scenario", "SeededPlan", "Spec", "halved", "merge_counts",
]


@dataclass(frozen=True)
class Spec:
    """One kind's per-event (or per-unit) firing probability.

    ``param`` is a kind-specific magnitude (latency multiplier, burst
    length, addresses dropped, ...) and is ignored by kinds that need
    none.
    """

    kind: enum.Enum
    rate: float
    param: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"{self.kind.value} rate must be in [0, 1], got {self.rate}"
            )


def halved(specs: Iterable[Spec]) -> tuple[Spec, ...]:
    """The same specs at half rate (the combined ``chaos``/``mixed``)."""
    return tuple(
        Spec(spec.kind, rate=spec.rate / 2.0, param=spec.param)
        for spec in specs
    )


@dataclass(frozen=True)
class Scenario:
    """A named, immutable set of specs; empty means inert."""

    name: str
    description: str
    specs: tuple[Spec, ...] = ()

    def __post_init__(self) -> None:
        kinds = [spec.kind for spec in self.specs]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate kinds in scenario {self.name!r}")
        # spec_for sits on the per-request hot path (every fault hook
        # consult goes through it), so index the specs once.
        object.__setattr__(
            self, "_spec_index", {spec.kind: spec for spec in self.specs}
        )

    @property
    def empty(self) -> bool:
        return not self.specs

    @property
    def kinds(self) -> frozenset[enum.Enum]:
        return frozenset(self._spec_index)

    def spec_for(self, kind: enum.Enum) -> Spec | None:
        return self._spec_index.get(kind)


class Registry:
    """One axis's named scenarios behind a single validating lookup.

    ``noun`` and ``plural`` word the unknown-name error (the CLI and the
    HTTP service show it verbatim); ``parse`` may synthesise a scenario
    for a name that is not registered, returning ``None`` to reject it,
    and ``hint`` tells the error message's reader what it accepts.
    """

    def __init__(
        self,
        noun: str,
        plural: str,
        scenarios: Iterable[Scenario],
        *,
        parse: Callable[[str], Scenario | None] | None = None,
        hint: str = "",
    ) -> None:
        self.noun = noun
        self.plural = plural
        self.scenarios = {scenario.name: scenario for scenario in scenarios}
        self.parse = parse
        self.hint = hint

    def names(self) -> list[str]:
        """Registered names, sorted, for CLI help and error messages."""
        return sorted(self.scenarios)

    def lookup(self, name: str) -> Scenario:
        """The scenario called ``name``; raises ``ValueError`` on unknowns."""
        scenario = self.scenarios.get(name)
        if scenario is None and self.parse is not None:
            scenario = self.parse(name)
        if scenario is None:
            raise ValueError(
                f"unknown {self.noun} {name!r}; registered {self.plural}: "
                f"{self.names()}{self.hint}"
            )
        return scenario

    def resolve(self, scenario: Scenario | str) -> Scenario:
        """Look up names; pass scenario instances through unchanged."""
        if isinstance(scenario, str):
            return self.lookup(scenario)
        return scenario


@dataclass
class SeededPlan:
    """A scenario compiled for one unit (a run, an epoch) of one domain.

    Subclasses set ``TAG``, the hash namespace that keeps their streams
    apart from every other axis's, and ``REGISTRY``, which resolves the
    names their ``compile`` accepts.  Each kind draws from its own
    stream seeded from ``(TAG, scenario, kind, seed, unit, domain)``, so
    plans rebuild identically in any worker, and neither another
    domain's draws nor another kind's rate shifts a stream.
    """

    TAG: ClassVar[str]
    REGISTRY: ClassVar[Registry]

    scenario: Scenario
    seed: int
    unit: str | int
    domain: str
    # thread-safe: one plan per (unit, domain), consulted only by the
    # single task (a site visit, an epoch pass) that compiled it.
    _streams: dict[enum.Enum, random.Random] = field(
        default_factory=dict, repr=False
    )
    # thread-safe: per-plan, like _streams above.
    _fired: dict[enum.Enum, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for spec in self.scenario.specs:
            self._streams[spec.kind] = random.Random(
                stable_hash(
                    self.TAG, self.scenario.name, spec.kind.value,
                    self.seed, self.unit, self.domain,
                )
            )

    @classmethod
    def _compile(
        cls, scenario: Scenario | str, seed: int, unit: str | int,
        domain: str,
    ):
        """The plan for ``scenario``, or ``None`` when it is empty."""
        scenario = cls.REGISTRY.resolve(scenario)
        if scenario.empty:
            return None
        return cls(scenario, seed, unit, domain)

    def fires(self, kind: enum.Enum) -> bool:
        """Draw once: does ``kind`` strike at this point?"""
        spec = self.scenario.spec_for(kind)
        if spec is None or spec.rate <= 0.0:
            return False
        if self._streams[kind].random() >= spec.rate:
            return False
        self._tally(kind)
        return True

    def _tally(self, kind: enum.Enum) -> None:
        self._fired[kind] = self._fired.get(kind, 0) + 1

    def param(self, kind: enum.Enum, default: float = 0.0) -> float:
        """The magnitude configured for ``kind`` (scenario-level)."""
        spec = self.scenario.spec_for(kind)
        return spec.param if spec is not None else default

    def rng(self, kind: enum.Enum) -> random.Random:
        """The kind's stream, for draws beyond fire/param (which
        hoster, shuffle orders, ...)."""
        return self._streams[kind]

    def counts(self) -> tuple[tuple[str, int], ...]:
        """Fired counts as a stable, picklable ``(kind, n)`` tuple."""
        return tuple(
            sorted((kind.value, n) for kind, n in self._fired.items())
        )


def merge_counts(
    into: dict[str, int], counts: tuple[tuple[str, int], ...]
) -> None:
    """Fold one plan's fired-count tuple into a running tally dict."""
    for kind_value, n in counts:
        into[kind_value] = into.get(kind_value, 0) + n
