"""Registry-hygiene checker: pluggable components fail fast, by name.

Backends, engines, exporters and checkers are all selected by string
name (``--backend=numpy``, ``--engine mp``) from name tables: the first
three literal ``_REGISTRY`` dicts, the checkers filled by
``register_checker``. The contract the equivalence suite leans on:
registration keys are literal constants (grep-able, stable across
refactors), every registrable class declares its ``name`` as a
string-literal class attribute, and lookups raise a :mod:`repro.errors`
type on unknown keys instead of ``dict.get``-ing their way into a silent
default. Three rules:

* ``registry-key-literal`` — ``register_*("name", ...)`` calls must pass
  a string literal key;
* ``registry-name-constant`` — concrete subclasses of the registrable
  bases must declare ``name = "<literal>"``;
* ``registry-get-fallback`` — no ``.get(...)`` lookups on ``*_REGISTRY``
  mappings; index and translate the ``KeyError``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.checkers.common import dotted_name
from repro.analysis.core import Finding, SourceFile, register_checker
from repro.analysis.visitor import Ancestors, VisitorChecker

#: Base classes whose concrete subclasses are registry-registrable.
REGISTRABLE_BASES = frozenset(
    {"ExecutionEngine", "KernelBackend", "Checker", "MpEngine"}
)

#: Function-name prefix identifying registration entry points.
REGISTER_PREFIX = "register_"


def _is_abstract(node: ast.ClassDef) -> bool:
    """ABC subclasses and classes with @abstractmethod members are exempt."""
    for base in node.bases:
        name = dotted_name(base)
        if name and name.split(".")[-1] in ("ABC", "ABCMeta", "Protocol"):
            return True
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                name = dotted_name(deco)
                if name and name.split(".")[-1] in ("abstractmethod", "abstractproperty"):
                    return True
    return False


def _declares_literal_name(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "name":
                return isinstance(value, ast.Constant) and isinstance(value.value, str)
    return False


class RegistryHygieneChecker(VisitorChecker):
    name = "registry-hygiene"
    rules = {
        "registry-key-literal": (
            "registration keys must be string literals so selection names "
            "stay grep-able and stable"
        ),
        "registry-name-constant": (
            "registrable classes must declare name = '<literal>' matching "
            "their registry key"
        ),
        "registry-get-fallback": (
            "registry lookups must fail fast on unknown keys; index the "
            "mapping and translate KeyError into a repro.errors type"
        ),
    }

    def visit_Call(
        self, src: SourceFile, node: ast.Call, ancestors: Ancestors
    ) -> Iterable[Finding]:
        yield from self._check_call(src, node)

    def visit_ClassDef(
        self, src: SourceFile, node: ast.ClassDef, ancestors: Ancestors
    ) -> Iterable[Finding]:
        yield from self._check_class(src, node)

    def _check_call(self, src: SourceFile, node: ast.Call) -> Iterable[Finding]:
        name = dotted_name(node.func)
        func = name.split(".")[-1] if name else ""
        if func.startswith(REGISTER_PREFIX) and node.args:
            key = node.args[0]
            # Object-style registration (register_checker(SomeChecker()))
            # carries its key as the object's ``name`` attribute; only
            # explicit key arguments must be literals.
            if isinstance(key, (ast.Call, ast.Name, ast.Attribute)):
                return
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                yield self.finding(
                    src, node, "registry-key-literal",
                    f"{func}() called with a computed key; registry names "
                    "must be string literals",
                )
        elif func == "get" and isinstance(node.func, ast.Attribute):
            owner = dotted_name(node.func.value)
            if owner and owner.split(".")[-1].upper().endswith("REGISTRY"):
                yield self.finding(
                    src, node, "registry-get-fallback",
                    f"{owner}.get(...) hides unknown keys; index the registry "
                    "and raise ConfigError/SolverError on KeyError",
                )

    def _check_class(self, src: SourceFile, node: ast.ClassDef) -> Iterable[Finding]:
        bases = {
            (dotted_name(base) or "").split(".")[-1] for base in node.bases
        }
        if not bases & REGISTRABLE_BASES or _is_abstract(node):
            return
        if not _declares_literal_name(node):
            yield self.finding(
                src, node, "registry-name-constant",
                f"class {node.name} subclasses a registrable base but does "
                "not declare a string-literal 'name' class attribute",
            )


register_checker(RegistryHygieneChecker())
