"""Rule ``typed-errors``: subsystem exceptions stay in their hierarchy.

The fault engine, the browser's retry paths and the resilience report
all dispatch on exception *types*: a ``DnsError`` means "re-ask the
resolver", a ``CertificateError`` means "handshake failed, count it",
an ``H2Error`` means "stream/connection trouble, maybe retry".  A raise
site that throws a bare ``RuntimeError`` from inside ``repro/dns``
escapes every one of those dispatchers and surfaces as an unexplained
study crash — or worse, is swallowed by a broad handler that cannot
record what it caught.

Two checks:

1. **raise sites** under the configured subsystem trees must raise a
   class deriving (transitively, within the subsystem) from the
   subsystem's root, or one of the allowed builtin contract errors
   (``ValueError``/``TypeError``/... for caller bugs, which are not
   network outcomes);
2. **broad handlers** (``except Exception``) anywhere in the linted
   tree must either re-raise or visibly record the error (an
   assignment/augassign to an ``errors``/``failures``-like counter
   attribute, or a call to a ``record*`` function) — silently eating an
   exception in stage code turns a real bug into a wrong number.  A
   *bare* ``except:`` is banned outright: it additionally swallows
   ``KeyboardInterrupt``/``SystemExit``, which breaks the run layer's
   graceful-SIGINT contract, and no re-raise discipline redeems that.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.engine import Project
from repro.lint.findings import Finding

__all__ = ["TypedErrorsRule"]

#: Builtin exceptions allowed anywhere: argument/contract errors, not
#: simulated network outcomes.
_ALLOWED_BUILTINS = frozenset((
    "ValueError", "TypeError", "KeyError", "IndexError", "LookupError",
    "NotImplementedError", "AssertionError", "StopIteration",
    "FileNotFoundError", "OSError", "SystemExit",
))

#: Attribute-name fragments that count as "recording" the error.
_RECORD_FRAGMENTS = ("error", "failure", "miss", "fault")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _raise_sites(
    node: ast.AST, bound: frozenset[str] = frozenset()
) -> Iterator[tuple[ast.Raise, frozenset[str]]]:
    """Every ``raise`` under ``node``, with the names bound in its
    innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS):
            yield from _raise_sites(child, _bound_names(child))
            continue
        if isinstance(child, ast.Raise):
            yield child, bound
        yield from _raise_sites(child, bound)


def _bound_names(function: ast.AST) -> frozenset[str]:
    """Parameters, ``except ... as`` names and assignment targets of
    ``function`` (not of the functions nested in it)."""
    names = {arg.arg for arg in ast.walk(function.args)
             if isinstance(arg, ast.arg)}
    pending = list(ast.iter_child_nodes(function))
    while pending:
        node = pending.pop()
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            continue
        if isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        pending.extend(ast.iter_child_nodes(node))
    return frozenset(names)


@dataclass
class TypedErrorsRule:
    """Enforce per-subsystem error hierarchies and honest broad catches."""

    rule_id: str = "typed-errors"
    #: path prefix -> root class name of that subsystem's hierarchy.
    hierarchies: dict[str, str] = field(default_factory=lambda: {
        "src/repro/dns/": "DnsError",
        "src/repro/tls/": "CertificateError",
        "src/repro/h2/": "H2Error",
        "src/repro/runlog/": "RunJournalError",
    })

    def check(self, project: Project) -> Iterable[Finding]:
        class_bases = self._subsystem_classes(project)
        for module in project.modules:
            root = self._root_for(module.rel)
            if root is not None:
                yield from self._check_raises(module, root, class_bases)
            yield from self._check_broad_handlers(module)

    # ------------------------------------------------------------------
    def _root_for(self, rel: str) -> str | None:
        for prefix, root in self.hierarchies.items():
            if rel.startswith(prefix):
                return root
        return None

    def _subsystem_classes(self, project: Project) -> dict[str, list[str]]:
        """name -> base names, across every configured subsystem tree.

        Collected subsystem-wide (not per-module) so a class raised in
        one module but defined in a sibling — ``NxDomain`` raised by
        the resolver, defined in ``zone.py`` — still resolves.
        """
        bases: dict[str, list[str]] = {}
        for module in project.modules:
            if self._root_for(module.rel) is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    names = []
                    for base in node.bases:
                        if isinstance(base, ast.Name):
                            names.append(base.id)
                        elif isinstance(base, ast.Attribute):
                            names.append(base.attr)
                    bases[node.name] = names
        return bases

    def _derives(
        self, name: str, root: str, class_bases: dict[str, list[str]]
    ) -> bool:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current == root:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(class_bases.get(current, ()))
        return False

    def _check_raises(
        self,
        module,
        root: str,
        class_bases: dict[str, list[str]],
    ) -> Iterator[Finding]:
        for node, bound in _raise_sites(module.tree):
            if node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Name) and exc.id in bound:
                continue  # re-raise of a caught or assigned exception
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Attribute):
                name = exc.attr
            elif isinstance(exc, ast.Name):
                name = exc.id
            else:
                continue  # a computed exception; out of scope
            if name in _ALLOWED_BUILTINS or name == root:
                continue
            if self._derives(name, root, class_bases):
                continue
            yield Finding(
                path=module.rel, line=node.lineno, rule=self.rule_id,
                message=(
                    f"raise of {name} inside a {root} subsystem; derive "
                    f"it from {root} (or use a builtin contract error "
                    f"like ValueError for caller bugs)"
                ),
            )

    # ------------------------------------------------------------------
    def _check_broad_handlers(self, module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                # Bare except: unconditionally banned — it swallows
                # KeyboardInterrupt/SystemExit, so even a handler that
                # re-raises or records cannot honour Ctrl-C.
                yield Finding(
                    path=module.rel, line=node.lineno, rule=self.rule_id,
                    message=(
                        "bare 'except:' swallows KeyboardInterrupt/"
                        "SystemExit; catch 'Exception' (and re-raise "
                        "or record) instead"
                    ),
                )
                continue
            name = (
                node.type.id if isinstance(node.type, ast.Name) else None
            )
            if name not in ("Exception", "BaseException"):
                continue
            if self._reraises_or_records(node):
                continue
            yield Finding(
                path=module.rel, line=node.lineno, rule=self.rule_id,
                message=(
                    "broad exception handler neither re-raises nor "
                    "records; narrow the catch, re-raise, or count it "
                    "into an errors/failures counter"
                ),
            )

    @staticmethod
    def _reraises_or_records(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            target = None
            if isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if isinstance(target, ast.Attribute) and any(
                fragment in target.attr.lower()
                for fragment in _RECORD_FRAGMENTS
            ):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else ""
                )
                if "record" in name.lower():
                    return True
        return False
