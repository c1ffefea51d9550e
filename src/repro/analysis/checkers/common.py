"""Shared AST plumbing for the repo-specific checkers.

The interesting calls (``time.time()``, ``np.random.rand()``) reach the
AST as attribute chains over import aliases, so every checker needs the
same two steps: flatten ``Attribute``/``Name`` chains into dotted strings,
and expand the module's import aliases (``import numpy as np`` makes
``np.random.rand`` mean ``numpy.random.rand``). Centralising this keeps
the checkers themselves down to their actual rule logic.
"""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local alias -> canonical dotted target for a module's imports.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time as now`` -> ``{"now": "time.time"}``;
    relative imports keep their tail (``from .base import X`` -> ``X``).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call target, with aliases expanded."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded
