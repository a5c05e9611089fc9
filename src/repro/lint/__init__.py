"""``repro lint`` — the determinism & concurrency contract checker.

A small stdlib-``ast`` static-analysis framework enforcing the
invariants docs/ARCHITECTURE.md promises but goldens can only catch
after the fact:

* ``determinism`` — no ambient entropy (module-level ``random``, wall
  clocks, ``os.environ``, set-order iteration) in result-bearing code;
* ``cache-key`` — every ``StudyConfig`` field is hashed by a stage-key
  derivation or carries an explicit, justified exemption;
* ``shared-state`` — no unguarded mutable containers shared across
  executor tasks;
* ``typed-errors`` — dns/tls/h2 raise inside their typed hierarchies,
  and broad handlers re-raise or record.

Run it::

    python -m repro lint              # print findings; exit 1 if any

Per-line exemptions: ``# repro-lint: ignore[rule-id]``.  Shared-state
justifications: ``# thread-safe: <why>`` on the definition.
"""

from __future__ import annotations

from repro.lint.engine import Project, run_lint
from repro.lint.findings import Finding
from repro.lint.rules import default_rules

__all__ = ["Finding", "Project", "default_rules", "run_lint"]
