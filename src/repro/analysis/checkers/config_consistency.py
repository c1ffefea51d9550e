"""Config-consistency checker: the config schema, the example configs and
the docs must tell one story.

The run-config dataclasses in :mod:`repro.io.config` are the single
schema; ``configs/*.yaml`` are the runnable examples; README/DESIGN are
the contract users read. This cross-file checker ties the three together:

* ``config-unknown-key`` — a key in ``configs/*.yaml`` that the schema
  does not admit (``config_from_dict`` would reject it at run time; the
  checker rejects it at lint time, including keys only reachable on
  rarely-exercised profiles);
* ``config-dead-key`` — a schema field no module outside ``config.py``
  ever reads (by attribute or key string): a knob nothing consumes;
* ``config-undocumented-key`` — a schema field appearing in no example
  config and no markdown doc: a knob nobody can discover;
* ``config-undocumented-env`` — a ``REPRO_*`` environment variable named
  in the source but absent from the docs.

Name-based matching is deliberately coarse (a field called ``enabled``
is "read" if *any* attribute access spells ``.enabled``); the rules err
toward silence, and the interesting drift — a freshly added knob with
no doc trail — is exactly what they catch. Intentionally internal keys
carry rationale'd suppressions on their schema line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.core import (
    Finding,
    ProjectChecker,
    SourceFile,
    register_checker,
)

#: Module holding the config schema dataclasses.
CONFIG_MODULE = "repro.io.config"

#: Markdown files that count as user-facing documentation.
DOC_FILES = ("README.md", "DESIGN.md")

_YAML_KEY = re.compile(r"^(\s*)([A-Za-z_][\w]*):(.*)$")
_ENV_VAR = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")


@dataclass(frozen=True)
class _SchemaKey:
    """One admissible config key, flattened to its dotted path."""

    dotted: str
    line: int  # AnnAssign line in config.py


@dataclass
class _Schema:
    source: SourceFile
    keys: list[_SchemaKey]
    #: every admissible dotted path, including section prefixes
    admissible: set[str]


def _dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, str | None, int]]:
    """(name, annotation-name, line) for each annotated field of ``cls``."""
    fields: list[tuple[str, str | None, int]] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = stmt.annotation
            ann_name = ann.id if isinstance(ann, ast.Name) else None
            fields.append((stmt.target.id, ann_name, stmt.lineno))
    return fields


def _section_types(tree: ast.AST) -> dict[str, str]:
    """The ``_SECTION_TYPES`` literal (plain or annotated assignment):
    section key -> dataclass name."""
    sections: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if "_SECTION_TYPES" not in names or not isinstance(node.value, ast.Dict):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Name)
            ):
                sections[key.value] = value.id
    return sections


def _extract_schema(src: SourceFile) -> _Schema | None:
    classes: dict[str, list[tuple[str, str | None, int]]] = {}
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ClassDef):
            classes[node.name] = _dataclass_fields(node)
    sections = _section_types(src.tree)
    if not sections or "RunConfig" not in classes:
        return None
    keys: list[_SchemaKey] = []
    admissible: set[str] = set(sections)
    for name, _ann, line in classes["RunConfig"]:
        if name not in sections:  # top-level scalar (e.g. geometry)
            keys.append(_SchemaKey(name, line))
            admissible.add(name)
    for section, cls_name in sections.items():
        for field, ann, line in classes.get(cls_name, []):
            dotted = f"{section}.{field}"
            admissible.add(dotted)
            keys.append(_SchemaKey(dotted, line))
            if ann in classes and ann != cls_name:  # nested block (cmfd)
                for sub, _sub_ann, sub_line in classes[ann]:
                    sub_dotted = f"{dotted}.{sub}"
                    admissible.add(sub_dotted)
                    keys.append(_SchemaKey(sub_dotted, sub_line))
    return _Schema(source=src, keys=keys, admissible=admissible)


def _yaml_keys(path: Path) -> Iterator[tuple[int, str]]:
    """(line, dotted-key) for every key of a two-space-indented yaml file."""
    stack: list[tuple[int, str]] = []
    for lineno, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("-"):
            continue
        match = _YAML_KEY.match(raw)
        if not match:
            continue
        indent = len(match.group(1))
        key = match.group(2)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        dotted = ".".join([*(k for _, k in stack), key])
        stack.append((indent, key))
        yield lineno, dotted


class ConfigConsistencyChecker(ProjectChecker):
    name = "config-consistency"
    rules = {
        "config-unknown-key": (
            "example config uses a key the schema dataclasses do not "
            "admit; config_from_dict would reject it at run time"
        ),
        "config-dead-key": (
            "schema field never read outside config.py; a knob nothing "
            "consumes is drift waiting to mislead"
        ),
        "config-undocumented-key": (
            "schema field absent from every example config and markdown "
            "doc; knobs must be discoverable where users look"
        ),
        "config-undocumented-env": (
            "REPRO_* environment variable named in source but absent "
            "from the docs; env switches are part of the user contract"
        ),
    }

    def check_project(
        self, files: Sequence[SourceFile], root: Path
    ) -> Iterable[Finding]:
        docs_text = ""
        for name in DOC_FILES:
            doc = root / name
            if doc.is_file():
                docs_text += doc.read_text(encoding="utf-8")
        docs_dir = root / "docs"
        if docs_dir.is_dir():
            for doc in sorted(docs_dir.rglob("*.md")):
                docs_text += doc.read_text(encoding="utf-8")

        yield from self._check_env_vars(files, docs_text)

        schema_src = next(
            (src for src in files if src.module == CONFIG_MODULE), None
        )
        if schema_src is None:
            return
        schema = _extract_schema(schema_src)
        if schema is None:
            return

        yaml_keys: set[str] = set()
        for yaml_path in sorted((root / "configs").glob("*.yaml")):
            for lineno, dotted in _yaml_keys(yaml_path):
                yaml_keys.add(dotted)
                if dotted not in schema.admissible:
                    yield Finding(
                        path=str(yaml_path.relative_to(root)),
                        line=lineno,
                        col=0,
                        rule="config-unknown-key",
                        message=(
                            f"config key '{dotted}' is not admitted by the "
                            "schema dataclasses in repro.io.config"
                        ),
                    )

        attrs: set[str] = set()
        literals: set[str] = set()
        for src in files:
            if src is schema_src:
                continue
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    literals.add(node.value)

        for key in schema.keys:
            field = key.dotted.rsplit(".", 1)[-1]
            if field not in attrs and field not in literals:
                yield self.finding(
                    schema.source,
                    _line_anchor(key.line),
                    "config-dead-key",
                    f"config key '{key.dotted}' is never read outside "
                    "repro.io.config; remove it or wire it up",
                )
            documented = (
                key.dotted in yaml_keys
                or key.dotted in docs_text
                or f"`{field}`" in docs_text
            )
            if not documented:
                yield self.finding(
                    schema.source,
                    _line_anchor(key.line),
                    "config-undocumented-key",
                    f"config key '{key.dotted}' appears in no example "
                    "config and no markdown doc; document the knob or "
                    "suppress with a rationale",
                )

    def _check_env_vars(
        self, files: Sequence[SourceFile], docs_text: str
    ) -> Iterator[Finding]:
        seen: set[str] = set()
        for src in files:
            for node in ast.walk(src.tree):
                if not (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _ENV_VAR.match(node.value)
                ):
                    continue
                if node.value in seen or node.value in docs_text:
                    continue
                seen.add(node.value)
                yield self.finding(
                    src,
                    node,
                    "config-undocumented-env",
                    f"environment variable {node.value} is read by the "
                    "source but documented nowhere; add it to README or "
                    "DESIGN",
                )


def _line_anchor(line: int) -> ast.AST:
    """Node-like anchor for findings tied to a known schema line."""
    return ast.Pass(lineno=line, col_offset=0, end_lineno=line, end_col_offset=0)


register_checker(ConfigConsistencyChecker())
