"""A small YAML-subset parser for ANT-MOC-style ``config.yaml`` files.

ANT-MOC reads its run parameters from a YAML configuration file (artifact
appendix: ``newmoc -config="config.yaml"``). This parser, not PyYAML, reads
them on purpose: PyYAML follows YAML 1.1, where a float needs a dot, so it
reads ``keff_tolerance: 1e-3`` as the *string* ``'1e-3'`` — which the
typed config validation then refuses — while here it is the float 0.001.
Every shipped config parses dict-equal under both. The subset
implemented is what those configs actually use:

* nested mappings via indentation (spaces only)
* block sequences (``- item``) of scalars or mappings
* inline sequences (``[1, 2, 3]``) and inline mappings (``{a: 1, b: 2}``)
* scalars: int, float (incl. scientific notation), bool, null, strings
  (bare, single- or double-quoted)
* ``#`` comments and blank lines

This is intentionally not a general YAML implementation — anchors, multi-
line scalars, and flow-style nesting beyond one level raise
:class:`~repro.errors.ConfigError` rather than mis-parsing silently.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any

from repro.errors import ConfigError

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "on": True, "off": False}
_NULLS = {"null", "~", "none", ""}

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


def parse_scalar(token: str) -> Any:
    """Convert a scalar token to the most specific Python type.

    >>> parse_scalar("42"), parse_scalar("6.144e9"), parse_scalar("true")
    (42, 6144000000.0, True)
    """
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1]
    low = token.lower()
    if low in _BOOLS:
        return _BOOLS[low]
    if low in _NULLS:
        return None
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token):
        return float(token)
    return token


def _split_inline_items(body: str, line_no: int) -> list[str]:
    """Split the body of an inline collection on commas, honouring quotes."""
    items: list[str] = []
    depth = 0
    quote: str | None = None
    current = ""
    for ch in body:
        if quote is not None:
            current += ch
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            current += ch
        elif ch in "[{":
            depth += 1
            current += ch
        elif ch in "]}":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            current += ch
    if quote is not None or depth != 0:
        raise ConfigError(f"line {line_no}: unterminated inline collection")
    if current.strip() or items:
        items.append(current)
    return [i for i in (s.strip() for s in items) if i != ""]


def _parse_value(token: str, line_no: int) -> Any:
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        return [_parse_value(t, line_no) for t in _split_inline_items(token[1:-1], line_no)]
    if token.startswith("{") and token.endswith("}"):
        out: dict[str, Any] = {}
        for item in _split_inline_items(token[1:-1], line_no):
            if ":" not in item:
                raise ConfigError(f"line {line_no}: inline mapping item {item!r} lacks ':'")
            key, _, val = item.partition(":")
            out[key.strip().strip("'\"")] = _parse_value(val, line_no)
        return out
    if token.startswith(("[", "{")):
        raise ConfigError(f"line {line_no}: unterminated inline collection {token!r}")
    if token.startswith("&") or token.startswith("*") or token.startswith("|") or token.startswith(">"):
        raise ConfigError(f"line {line_no}: unsupported YAML feature in {token!r}")
    return parse_scalar(token)


class _Line:
    __slots__ = ("indent", "content", "number")

    def __init__(self, indent: int, content: str, number: int) -> None:
        self.indent = indent
        self.content = content
        self.number = number


def _strip_comment(raw: str) -> str:
    """Remove a trailing comment, honouring quoted ``#`` characters."""
    quote: str | None = None
    for i, ch in enumerate(raw):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#":
            return raw[:i]
    return raw


def _tokenize(text: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ConfigError(f"line {number}: tabs are not allowed for indentation")
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append(_Line(indent, stripped.strip(), number))
    return lines


def _parse_block(lines: list[_Line], start: int, indent: int) -> tuple[Any, int]:
    """Parse a block (mapping or sequence) whose items sit at ``indent``."""
    if start >= len(lines):
        return {}, start
    if lines[start].content.startswith("- ") or lines[start].content == "-":
        return _parse_sequence(lines, start, indent)
    return _parse_mapping(lines, start, indent)


def _parse_mapping(lines: list[_Line], start: int, indent: int) -> tuple[dict[str, Any], int]:
    result: dict[str, Any] = {}
    i = start
    while i < len(lines):
        line = lines[i]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise ConfigError(f"line {line.number}: unexpected indentation")
        if line.content.startswith("- "):
            raise ConfigError(f"line {line.number}: sequence item inside mapping block")
        if ":" not in line.content:
            raise ConfigError(f"line {line.number}: expected 'key: value', got {line.content!r}")
        key, _, rest = line.content.partition(":")
        key = key.strip().strip("'\"")
        if key in result:
            raise ConfigError(f"line {line.number}: duplicate key {key!r}")
        rest = rest.strip()
        if rest:
            result[key] = _parse_value(rest, line.number)
            i += 1
        else:
            if i + 1 < len(lines) and lines[i + 1].indent > indent:
                value, i = _parse_block(lines, i + 1, lines[i + 1].indent)
                result[key] = value
            else:
                result[key] = None
                i += 1
    return result, i


def _parse_sequence(lines: list[_Line], start: int, indent: int) -> tuple[list[Any], int]:
    result: list[Any] = []
    i = start
    while i < len(lines):
        line = lines[i]
        if line.indent < indent:
            break
        if line.indent > indent:
            raise ConfigError(f"line {line.number}: unexpected indentation in sequence")
        if not (line.content.startswith("- ") or line.content == "-"):
            break
        body = line.content[2:].strip() if line.content != "-" else ""
        if not body:
            if i + 1 < len(lines) and lines[i + 1].indent > indent:
                value, i = _parse_block(lines, i + 1, lines[i + 1].indent)
                result.append(value)
            else:
                result.append(None)
                i += 1
        elif ":" in body and not body.startswith(("[", "{", "'", '"')):
            # Mapping whose first entry shares the dash line. Re-indent the
            # body as a virtual line two columns deeper and parse the block.
            virtual = _Line(indent + 2, body, line.number)
            rest = [virtual]
            j = i + 1
            while j < len(lines) and lines[j].indent >= indent + 2:
                rest.append(lines[j])
                j += 1
            value, _ = _parse_mapping(rest, 0, indent + 2)
            result.append(value)
            i = j
        else:
            result.append(_parse_value(body, line.number))
            i += 1
    return result, i


def loads(text: str) -> Any:
    """Parse a YAML-subset document into plain Python objects."""
    lines = _tokenize(text)
    if not lines:
        return {}
    root_indent = lines[0].indent
    value, consumed = _parse_block(lines, 0, root_indent)
    if consumed != len(lines):
        bad = lines[consumed]
        raise ConfigError(f"line {bad.number}: trailing content {bad.content!r}")
    return value


def load_file(path: str | Path) -> Any:
    """Parse a YAML-subset document from ``path``."""
    return loads(Path(path).read_text(encoding="utf-8"))
