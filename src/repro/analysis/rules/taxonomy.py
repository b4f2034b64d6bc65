"""Exception-taxonomy rule: failures in the runtime/network tiers stay
inside the ``recovery.classify`` taxonomy.

PR 6's fault-tolerance contract hangs on a clean split: retryable
infrastructure failures (``BrokenProcessPool``, ``DeadlineExceeded``,
broken pipes) versus fatal payload failures
(``PoisonedPayload``, validation errors). Two code patterns erode it
silently:

1. **Ad-hoc raises.** A ``raise`` in ``repro.runtime`` of an exception
   type the taxonomy has never heard of gets classified by the default
   branch (fatal) whether or not that is what the author meant. This
   rule requires every ``raise <Name>(...)`` in the runtime tier to
   name a *classifiable* type: a builtin the taxonomy handles, one of
   the taxonomy's own classes (``recovery`` / ``faults``), or a class
   whose (statically visible) bases chain to those.

2. **Bare broad handlers.** An ``except Exception:`` in
   ``repro.runtime`` or ``repro.net`` that neither routes the caught
   failure through ``classify``/``classified`` nor carries an explicit
   ``taxonomy:`` annotation comment is swallowing failures outside the
   contract. Handlers that re-classify are fine; deliberate catch-alls
   (a supervisor loop, best-effort teardown) annotate the except line
   with ``# taxonomy: <why this is outside the retry loop>``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.core import Finding, Project, Rule, dotted_name, register_rule

RAISE_SCOPE = ("repro.runtime",)
HANDLER_SCOPE = ("repro.runtime", "repro.net")

#: Modules whose exception classes *are* the taxonomy.
TAXONOMY_MODULES = (
    "repro.runtime.recovery",
    "repro.runtime.faults",
)

#: Builtins recovery.classify knows how to bucket (retryable set +
#: the payload/programming errors its default branch means to be fatal).
CLASSIFIABLE_BUILTINS = {
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "NotImplementedError",
    "OSError",
    "IOError",
    "TimeoutError",
    "ConnectionError",
    "ConnectionResetError",
    "BrokenPipeError",
    "EOFError",
    "InterruptedError",
    "FileNotFoundError",
    "PermissionError",
    "StopIteration",
    "AssertionError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OverflowError",
    "MemoryError",
    "KeyboardInterrupt",
    "SystemExit",
}

#: Call names whose *result* is by construction inside the taxonomy.
_CLASSIFYING_CALLS = {"classified", "classify"}

_ANNOTATION = "taxonomy:"


@register_rule(
    "exception-taxonomy",
    summary="runtime raises stay classifiable; broad handlers re-classify or annotate",
)
class ExceptionTaxonomyRule(Rule):
    def check(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for f in project.repro_files(*RAISE_SCOPE):
            if f.tree is None:
                continue
            allowed = self._allowed_names(f)
            for node in ast.walk(f.tree):
                if isinstance(node, ast.Raise):
                    findings.extend(self._check_raise(f, node, allowed))
        for f in project.repro_files(*HANDLER_SCOPE):
            if f.tree is None:
                continue
            for node in ast.walk(f.tree):
                if isinstance(node, ast.ExceptHandler):
                    findings.extend(self._check_handler(f, node))
        return findings

    # ------------------------------------------------------------------
    def _allowed_names(self, f) -> Set[str]:
        """Exception names this module may raise: classifiable builtins,
        names imported from the taxonomy modules, plus local classes
        whose base chains (statically) reach an allowed name."""
        allowed = set(CLASSIFIABLE_BUILTINS)
        if f.tree is None:
            return allowed
        for node in ast.walk(f.tree):
            if isinstance(node, ast.ImportFrom) and node.module in TAXONOMY_MODULES:
                for alias in node.names:
                    allowed.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "concurrent.futures.process",
                "concurrent.futures",
                "queue",
                "asyncio",
            ):
                for alias in node.names:
                    allowed.add(alias.asname or alias.name)
        # Fixed point over local class definitions: a local exception is
        # fine if some base is already allowed.
        local = [n for n in ast.walk(f.tree) if isinstance(n, ast.ClassDef)]
        changed = True
        while changed:
            changed = False
            for node in local:
                if node.name in allowed:
                    continue
                bases = {
                    (dotted_name(base) or "").rsplit(".", 1)[-1]
                    for base in node.bases
                }
                if bases & allowed:
                    allowed.add(node.name)
                    changed = True
        return allowed

    def _check_raise(self, f, node: ast.Raise, allowed: Set[str]):
        exc = node.exc
        if exc is None:  # bare re-raise
            return
        if isinstance(exc, ast.Call):
            name = dotted_name(exc.func)
            if name is None:
                return  # raise (cls)(...) — dynamic, leave to runtime
            tail = name.rsplit(".", 1)[-1]
            if tail in _CLASSIFYING_CALLS:
                return  # raise classified(exc)
            if tail not in allowed:
                yield Finding(
                    rule=self.name,
                    severity="error",
                    path=f.rel,
                    line=node.lineno,
                    message=f"raise of {tail} in {f.module} is outside the "
                    f"recovery.classify taxonomy",
                    hint="raise a taxonomy type (recovery/faults), "
                    "a classifiable builtin, or derive the class from one",
                )
        # `raise exc` (a variable) is a re-raise of something already
        # classified upstream — allowed.

    # ------------------------------------------------------------------
    def _check_handler(self, f, node: ast.ExceptHandler):
        if not self._is_broad(node.type):
            return
        if self._reclassifies(node):
            return
        if self._annotated(f, node):
            return
        yield Finding(
            rule=self.name,
            severity="error",
            path=f.rel,
            line=node.lineno,
            message=f"broad except {self._describe(node.type)} in {f.module} "
            f"neither re-classifies nor carries a taxonomy annotation",
            hint="narrow the handler, route the exception through "
            "recovery.classify/classified, or annotate the except line "
            "with `# taxonomy: <reason>`",
        )

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True  # bare except:
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [dotted_name(el) or "" for el in type_node.elts]
        else:
            names = [dotted_name(type_node) or ""]
        return any(
            name.rsplit(".", 1)[-1] in ("Exception", "BaseException")
            for name in names
        )

    @staticmethod
    def _describe(type_node: Optional[ast.AST]) -> str:
        if type_node is None:
            return "(bare)"
        name = dotted_name(type_node)
        if name:
            return name
        if isinstance(type_node, ast.Tuple):
            parts = [dotted_name(el) or "?" for el in type_node.elts]
            return "(" + ", ".join(parts) + ")"
        return "<expr>"

    @staticmethod
    def _reclassifies(node: ast.ExceptHandler) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                name = dotted_name(child.func) or ""
                if name.rsplit(".", 1)[-1] in _CLASSIFYING_CALLS:
                    return True
        return False

    @staticmethod
    def _annotated(f, node: ast.ExceptHandler) -> bool:
        for line in (node.lineno, node.lineno - 1):
            if _ANNOTATION in f.line_text(line):
                return True
        return False
