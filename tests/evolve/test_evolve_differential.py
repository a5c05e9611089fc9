"""The longitudinal determinism invariants.

Three families of guarantees, mirroring the fault engine's suite:

1. **Epoch-0 identity** — under *every* policy, epoch 0 measures the
   pristine world: its study digest equals the fault-free baseline
   (and, at golden scale, the pinned clean golden digest).
2. **Determinism under churn** — evolved-world studies are
   executor-independent: process workers rebuild the evolved world from
   its config alone and must digest identically to serial runs.
3. **Perturbation** — every policy actually moves the digest by
   epoch 2, epochs compound (digests are pairwise distinct along the
   sequence), and the ``none`` policy is inert at any epoch.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runtime import ProcessExecutor, ThreadExecutor

pytestmark = pytest.mark.slow

_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Every named (non-empty) policy.
POLICIES = (
    "cert-rotation", "dns-churn", "cdn-migration", "shard-consolidation",
    "mixed",
)

#: Differential scale: small enough to afford a study per policy and
#: executor, large enough that every churn kind strikes.
_SCALE = dict(n_sites=40, dns_study_days=0.25)


def _config(policy: str, epochs: int) -> StudyConfig:
    return StudyConfig(
        seed=7, evolution_policy=policy, epochs=epochs, **_SCALE
    )


@pytest.fixture(scope="module")
def baseline() -> Study:
    return Study.run(_config("none", 0))


@pytest.fixture(scope="module")
def evolved_studies() -> dict[str, Study]:
    """One serial epoch-2 study per policy."""
    return {policy: Study.run(_config(policy, 2)) for policy in POLICIES}


class TestEpochZeroIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_epoch_zero_matches_baseline(self, baseline, policy):
        study = Study.run(_config(policy, 0))
        assert study_digest(study) == study_digest(baseline), policy

    def test_none_policy_inert_at_any_epoch(self, baseline):
        study = Study.run(_config("none", 3))
        assert study_digest(study) == study_digest(baseline)


class TestExecutorIndependence:
    # The acceptance scenario (`repro evolve --policy cert-rotation`)
    # plus the all-axes policy; per-study independence extends to every
    # epoch of a longitudinal sequence, since each epoch is one study.
    _POLICIES = ("cert-rotation", "mixed")

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_thread_executor_matches_serial(self, evolved_studies, policy):
        with ThreadExecutor(4) as executor:
            threaded = Study.run(_config(policy, 2), executor=executor)
        assert study_digest(threaded) == study_digest(
            evolved_studies[policy]
        ), policy

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_process_executor_matches_serial(self, evolved_studies, policy):
        # The strongest rebuild guarantee: spawned workers regenerate
        # the evolved world from the config alone.
        with ProcessExecutor(2) as executor:
            processed = Study.run(_config(policy, 2), executor=executor)
        assert study_digest(processed) == study_digest(
            evolved_studies[policy]
        ), policy

    def test_ledger_executor_independent(self, evolved_studies):
        with ProcessExecutor(2) as executor:
            processed = Study.run(_config("mixed", 2), executor=executor)
        assert processed.ecosystem.evolution_ledger == (
            evolved_studies["mixed"].ecosystem.evolution_ledger
        )


class TestPoliciesPerturb:
    def test_every_policy_diverges_by_epoch_two(self, baseline,
                                                evolved_studies):
        base = study_digest(baseline)
        for policy, study in evolved_studies.items():
            assert study_digest(study) != base, policy

    def test_policies_pairwise_distinct(self, evolved_studies):
        digests = {
            policy: study_digest(study)
            for policy, study in evolved_studies.items()
        }
        assert len(set(digests.values())) == len(digests), digests

    def test_epochs_compound(self, baseline, evolved_studies):
        one = Study.run(_config("dns-churn", 1))
        sequence = {
            study_digest(baseline),
            study_digest(one),
            study_digest(evolved_studies["dns-churn"]),
        }
        assert len(sequence) == 3

    def test_ledger_names_stay_within_policy(self, evolved_studies):
        from repro.evolve import POLICIES

        for policy, study in evolved_studies.items():
            allowed = {kind.value for kind in POLICIES.lookup(policy).kinds}
            for _, counts in study.ecosystem.evolution_ledger:
                assert set(dict(counts)) <= allowed, (policy, counts)


class TestLongitudinalGolden:
    @pytest.fixture(scope="class")
    def pinned(self) -> list[tuple[int, str]]:
        lines = (
            (_GOLDEN_DIR / "longitudinal_digest.txt").read_text().splitlines()
        )
        parsed = []
        for line in lines:
            _, epoch, digest = line.split()
            parsed.append((int(epoch), digest))
        return parsed

    @pytest.mark.golden
    def test_epoch_zero_line_is_the_clean_golden(self, pinned):
        clean = (_GOLDEN_DIR / "digest.txt").read_text().strip()
        assert pinned[0] == (0, clean)

    @pytest.mark.golden
    def test_longitudinal_sequence_reproduces(
        self, golden_regen, longitudinal_golden_result
    ):
        rendered = golden_regen.render_longitudinal_artifact(
            longitudinal_golden_result.digests()
        )
        pinned_text = (_GOLDEN_DIR / "longitudinal_digest.txt").read_text()
        assert rendered == pinned_text
