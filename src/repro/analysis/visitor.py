"""Single-walk visitor infrastructure for per-file checkers.

The original checkers each ran their own ``ast.walk`` over every module,
so a run cost ``files x checkers`` traversals and none of them knew where
in the tree a node sat (``blocking-sleep`` had to pre-collect loop nodes,
``metrics-io`` had to re-derive scopes). :class:`VisitorChecker` inverts
that: checkers declare ``visit_<NodeType>`` handlers, and
:func:`run_visitors` walks each tree once, dispatching every node to all
interested checkers with the ancestor stack as context.

Protocol per file:

* ``start_file(src)`` — return ``False`` to opt out of this module
  entirely (scope gates like "hot packages only" live here); also the
  place to reset per-file state such as the import-alias map;
* ``visit_<NodeType>(src, node, ancestors)`` — yield findings for one
  node; ``ancestors`` is the path from the module root (exclusive of
  ``node``), innermost last;
* ``finish_file(src)`` — yield findings that need whole-file state.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Sequence

from repro.analysis.core import Checker, Finding, SourceFile

Ancestors = Sequence[ast.AST]
Handler = Callable[[SourceFile, ast.AST, Ancestors], Iterable[Finding]]

_LOOP_TYPES = (ast.For, ast.AsyncFor, ast.While)


def in_loop(ancestors: Ancestors) -> bool:
    """Whether any enclosing node is a loop statement."""
    return any(isinstance(a, _LOOP_TYPES) for a in ancestors)


class VisitorChecker(Checker):  # repro: ignore[registry-name-constant]
    """A checker expressed as ``visit_<NodeType>`` handlers.

    Intermediate base, never registered itself — concrete subclasses
    declare the registry ``name`` (hence the suppression above).
    """

    _handlers: dict[str, Handler] | None = None

    def start_file(self, src: SourceFile) -> bool:
        """Hook before the walk; return ``False`` to skip this file."""
        return True

    def finish_file(self, src: SourceFile) -> Iterable[Finding]:
        """Hook after the walk, for findings needing whole-file state."""
        return ()

    def handlers(self) -> dict[str, Handler]:
        """Node-type name -> bound handler, discovered from method names."""
        if self._handlers is None:
            self._handlers = {
                name[len("visit_"):]: getattr(self, name)
                for name in dir(type(self))
                if name.startswith("visit_")
            }
        return self._handlers

    def check(self, src: SourceFile) -> Iterable[Finding]:
        # Standalone fallback; the runner batches via run_visitors().
        return run_visitors(src, [self])


def run_visitors(
    src: SourceFile, checkers: Sequence[VisitorChecker]
) -> list[Finding]:
    """One tree walk dispatching nodes to every interested checker."""
    active = [c for c in checkers if c.start_file(src)]
    if not active:
        return []
    table: dict[str, list[Handler]] = {}
    for checker in active:
        for type_name, handler in checker.handlers().items():
            table.setdefault(type_name, []).append(handler)
    findings: list[Finding] = []
    stack: list[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for handler in table.get(type(node).__name__, ()):
            findings.extend(handler(src, node, stack))
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
        stack.pop()

    visit(src.tree)
    for checker in active:
        findings.extend(checker.finish_file(src))
    return findings
