"""Property-based tests for the adoption model's determinism contract.

Three properties the differential suite depends on (see the
:mod:`repro.h3.plan` module docstring):

* verdicts are pure functions of ``(seed, kind, name)`` — evaluation
  order and plan identity never matter (this is what makes the world
  rebuildable inside process workers);
* adoption is monotone in the fraction — a name adopted at fraction
  ``f`` stays adopted at every ``f' >= f`` under the same seed;
* profile compilation is pure — same inputs, equal plans.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.h3 import H3_PROFILES, H3Kind, H3Plan

_names = st.lists(
    st.text(alphabet="abcdefghij0123456789.-", min_size=1, max_size=16),
    min_size=1, max_size=25, unique=True,
)
_seeds = st.integers(min_value=0, max_value=2**31)
_kinds = st.sampled_from(list(H3Kind))

#: Percent fractions keep the ``adopt-<fraction>`` spelling exact
#: (float repr could produce exponents the profile pattern rejects).
_percents = st.integers(min_value=0, max_value=100)


def _adopt_plan(percent: int, seed: int) -> H3Plan:
    plan = H3Plan.compile(
        H3_PROFILES.lookup(f"adopt-{percent / 100:.2f}"), seed=seed
    )
    assert plan is not None  # adopt profiles are never empty
    return plan


class TestOrderIndependence:
    @given(seed=_seeds, kind=_kinds, names=_names)
    def test_verdicts_ignore_evaluation_order(self, seed, kind, names):
        plan = H3Plan.compile("broad", seed=seed)
        forward = {name: plan.adopts(kind, name) for name in names}
        backward = {name: plan.adopts(kind, name)
                    for name in reversed(names)}
        assert forward == backward

    @given(seed=_seeds, kind=_kinds, names=_names)
    def test_rebuilt_plan_agrees(self, seed, kind, names):
        # A process worker rebuilds the plan from (profile, seed); its
        # verdicts must match the parent's exactly.
        first = H3Plan.compile("broad", seed=seed)
        rebuilt = H3Plan.compile("broad", seed=seed)
        assert {name: first.adopts(kind, name) for name in names} == {
            name: rebuilt.adopts(kind, name) for name in names
        }

    @given(seed=_seeds, kind=_kinds, name=st.text(
        alphabet="abcdefghij.-", min_size=1, max_size=16
    ))
    def test_repeated_evaluation_is_stable(self, seed, kind, name):
        plan = H3Plan.compile("cdn-first", seed=seed)
        verdicts = {plan.adopts(kind, name) for _ in range(5)}
        assert len(verdicts) == 1


class TestFractionMonotonicity:
    @given(seed=_seeds, kind=_kinds, name=st.text(
        alphabet="abcdefghij.-", min_size=1, max_size=16
    ), lo=_percents, hi=_percents)
    def test_adopted_names_never_unadopt_as_fraction_grows(
        self, seed, kind, name, lo, hi
    ):
        lo, hi = sorted((lo, hi))
        if _adopt_plan(lo, seed).adopts(kind, name):
            assert _adopt_plan(hi, seed).adopts(kind, name)

    @given(seed=_seeds, kind=_kinds, names=_names)
    def test_adopted_set_grows_with_fraction(self, seed, kind, names):
        sets = []
        for percent in (10, 50, 90):
            plan = _adopt_plan(percent, seed)
            sets.append({n for n in names if plan.adopts(kind, n)})
        assert sets[0] <= sets[1] <= sets[2]


class TestCompilePurity:
    @given(seed=_seeds, name=st.sampled_from(
        tuple(H3_PROFILES.names()) + ("adopt-0.25", "adopt-0.75")
    ))
    def test_compile_is_pure(self, seed, name):
        assert H3Plan.compile(name, seed=seed) == H3Plan.compile(
            name, seed=seed
        )

    @given(seed=_seeds)
    def test_none_always_compiles_to_no_plan(self, seed):
        assert H3Plan.compile("none", seed=seed) is None
