"""The ``determinism`` rule: every forbidden form fires, exemptions hold."""

from __future__ import annotations

from repro.lint.rules import DeterminismRule


def _findings(project, **kwargs):
    rule = DeterminismRule(**kwargs)
    return list(rule.check(project))


def _messages(project, **kwargs):
    return [finding.message for finding in _findings(project, **kwargs)]


class TestForbiddenCalls:
    def test_module_level_random(self, make_project):
        project = make_project({"mod.py": """\
            import random

            def draw():
                return random.random()
        """})
        (finding,) = _findings(project)
        assert "shared module-level RNG" in finding.message
        assert finding.path == "mod.py"
        assert finding.line == 4

    def test_seeded_stream_is_sanctioned(self, make_project):
        project = make_project({"mod.py": """\
            import random

            def draw(seed):
                return random.Random(seed).random()
        """})
        assert _findings(project) == []

    def test_wall_clock_reads(self, make_project):
        project = make_project({"mod.py": """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
        """})
        messages = _messages(project)
        assert len(messages) == 2
        assert all("SimClock" in message for message in messages)

    def test_ambient_entropy(self, make_project):
        project = make_project({"mod.py": """\
            import os
            import uuid

            def token():
                return os.urandom(8), uuid.uuid4()
        """})
        assert len(_findings(project)) == 2

    def test_environ_read(self, make_project):
        project = make_project({"mod.py": """\
            import os

            def knob():
                return os.environ["REPRO_KNOB"]
        """})
        (finding,) = _findings(project)
        assert "os.environ" in finding.message


class TestSetIteration:
    def test_for_over_set_literal(self, make_project):
        project = make_project({"mod.py": """\
            def walk(items):
                for item in set(items):
                    yield item
        """})
        (finding,) = _findings(project)
        assert "sorted" in finding.message

    def test_comprehension_over_keys_view(self, make_project):
        project = make_project({"mod.py": """\
            def names(table):
                return [key for key in table.keys()]
        """})
        assert len(_findings(project)) == 1

    def test_set_algebra(self, make_project):
        project = make_project({"mod.py": """\
            def diff(a, b):
                for item in set(a) - set(b):
                    yield item
        """})
        assert len(_findings(project)) == 1

    def test_sorted_set_is_sanctioned(self, make_project):
        project = make_project({"mod.py": """\
            def walk(items):
                for item in sorted(set(items)):
                    yield item
        """})
        assert _findings(project) == []


class TestExemptions:
    def test_inline_ignore_suppresses(self, make_project):
        from repro.lint import run_lint

        project = make_project({"mod.py": """\
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[determinism]
        """})
        assert run_lint(project, [DeterminismRule()]) == []

    def test_inline_ignore_is_rule_specific(self, make_project):
        from repro.lint import run_lint

        project = make_project({"mod.py": """\
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[shared-state]
        """})
        assert len(run_lint(project, [DeterminismRule()])) == 1

    def test_excluded_prefix_is_skipped(self, make_project):
        project = make_project({"bench/timer.py": """\
            import time

            def wall():
                return time.time()
        """})
        assert _findings(project, exclude_prefixes=("bench/",)) == []
        assert len(_findings(project, exclude_prefixes=())) == 1
