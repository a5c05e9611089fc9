"""The ``typed-errors`` rule: hierarchies and honest broad handlers."""

from __future__ import annotations

from repro.lint.rules import TypedErrorsRule


def _rule():
    return TypedErrorsRule(hierarchies={"pkg/": "PkgError"})


def _findings(project):
    return list(_rule().check(project))


class TestRaiseSites:
    def test_untyped_raise_fires(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def boom():
                raise RuntimeError("nope")
        """})
        (finding,) = _findings(project)
        assert "raise of RuntimeError" in finding.message
        assert "PkgError" in finding.message

    def test_derived_raise_is_fine(self, make_project):
        project = make_project({"pkg/mod.py": """\
            class PkgError(RuntimeError):
                pass

            class Timeout(PkgError):
                pass

            def boom():
                raise Timeout("slow")
        """})
        assert _findings(project) == []

    def test_cross_module_derivation_resolves(self, make_project):
        # The class is defined in a sibling module of the subsystem —
        # exactly how NxDomain (zone.py) is raised by the resolver.
        project = make_project({
            "pkg/errors.py": """\
                class PkgError(RuntimeError):
                    pass

                class Timeout(PkgError):
                    pass
            """,
            "pkg/client.py": """\
                from pkg.errors import Timeout

                def boom():
                    raise Timeout("slow")
            """,
        })
        assert _findings(project) == []

    def test_builtin_contract_errors_are_allowed(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def check(n):
                if n < 0:
                    raise ValueError(n)
        """})
        assert _findings(project) == []

    def test_reraise_of_a_caught_exception_is_fine(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def settle(landed):
                try:
                    return landed.result()
                except OSError as error:
                    landed.close()
                    raise error
        """})
        assert _findings(project) == []

    def test_raise_of_an_assigned_exception_is_fine(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def settle(outcomes):
                error = outcomes.pop()
                raise error
        """})
        assert _findings(project) == []

    def test_raise_of_a_parameter_is_fine(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def reraise(error):
                raise error
        """})
        assert _findings(project) == []

    def test_foreign_class_raised_bare_or_called_fires(self, make_project):
        project = make_project({"pkg/mod.py": """\
            from other import Foreign

            def bare():
                raise Foreign

            def called():
                raise Foreign()
        """})
        findings = _findings(project)
        assert [finding.line for finding in findings] == [4, 7]
        assert all("raise of Foreign" in f.message for f in findings)

    def test_binding_in_a_nested_function_does_not_count(self, make_project):
        project = make_project({"pkg/mod.py": """\
            def outer():
                def inner():
                    Foreign = RuntimeError
                    return Foreign
                raise Foreign
        """})
        (finding,) = _findings(project)
        assert finding.line == 5

    def test_outside_the_subsystem_is_unconstrained(self, make_project):
        project = make_project({"other/mod.py": """\
            def boom():
                raise RuntimeError("fine here")
        """})
        assert _findings(project) == []


class TestBroadHandlers:
    def test_silent_swallow_fires(self, make_project):
        project = make_project({"stage.py": """\
            def fold(items):
                total = 0
                for item in items:
                    try:
                        total += item.value
                    except Exception:
                        pass
                return total
        """})
        (finding,) = _findings(project)
        assert "neither re-raises nor records" in finding.message

    def test_bare_except_fires(self, make_project):
        project = make_project({"stage.py": """\
            def fold(item):
                try:
                    return item.value
                except:
                    return 0
        """})
        (finding,) = _findings(project)
        assert "bare 'except:'" in finding.message

    def test_bare_except_fires_even_when_reraising(self, make_project):
        # Unlike 'except Exception', no discipline redeems a bare
        # except: it swallows KeyboardInterrupt/SystemExit before the
        # handler body even runs, breaking graceful Ctrl-C.
        project = make_project({"stage.py": """\
            def fold(item):
                try:
                    return item.value
                except:
                    raise
        """})
        (finding,) = _findings(project)
        assert "KeyboardInterrupt" in finding.message

    def test_runlog_tree_is_a_default_hierarchy(self):
        rule = TypedErrorsRule()
        assert rule.hierarchies["src/repro/runlog/"] == "RunJournalError"

    def test_reraise_is_fine(self, make_project):
        project = make_project({"stage.py": """\
            def fold(item):
                try:
                    return item.value
                except Exception:
                    item.close()
                    raise
        """})
        assert _findings(project) == []

    def test_recording_counter_is_fine(self, make_project):
        project = make_project({"stage.py": """\
            def fold(stats, item):
                try:
                    return item.value
                except Exception:
                    stats.errors += 1
                    return 0
        """})
        assert _findings(project) == []

    def test_record_call_is_fine(self, make_project):
        project = make_project({"stage.py": """\
            def fold(log, item):
                try:
                    return item.value
                except Exception as error:
                    log.record_failure(error)
                    return 0
        """})
        assert _findings(project) == []

    def test_narrow_handler_is_unconstrained(self, make_project):
        project = make_project({"stage.py": """\
            def fold(item):
                try:
                    return item.value
                except AttributeError:
                    return 0
        """})
        assert _findings(project) == []
