"""Inline suppression comments: ``# simlint: disable=RULE``.

Suppressions are line-scoped: a comment suppresses findings reported on
its own physical line.  A rule code may carry a parenthesized reason —
``# simlint: disable=E001(best-effort cleanup of a dead pool)`` — and
rules that declare ``requires_reason`` are only suppressed when a
non-empty reason is present, so blind-except escapes stay justified.

Two forms are recognized anywhere a comment can appear:

* ``# simlint: disable=CODE[,CODE2...]`` — suppress on this line;
* ``# simlint: disable-file=CODE[,CODE2...]`` — suppress in this file.

Only the leading comma-separated ``CODE`` / ``CODE(reason)`` list is
read; prose after it (``-- see NOTE``) is not taken for more codes.

Comments are found with :mod:`tokenize`, not regexes over raw lines, so
string literals that merely *look* like suppressions are never honored.
A file whose raw text nowhere matches the directive pattern cannot hold
one in a comment either, and is not tokenized at all.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppression", "SuppressionIndex", "parse_suppressions"]

#: ``CODE`` or ``CODE(reason text)``, then an optional list comma; codes
#: are letters + digits (D001).
_ENTRY = re.compile(r"\s*([A-Z][A-Z0-9]*)\s*(?:\(([^)]*)\))?\s*(,?)")
_DIRECTIVE = re.compile(r"#\s*simlint:\s*(disable(?:-file)?)\s*=(.*)")


@dataclass(frozen=True)
class Suppression:
    """One suppressed rule code, with an optional justification."""

    code: str
    reason: str = ""
    line: int = 0  # 0 means file-scoped

    @property
    def has_reason(self) -> bool:
        return bool(self.reason.strip())


@dataclass
class SuppressionIndex:
    """All suppressions in one file, queryable by (code, line)."""

    by_line: dict[int, dict[str, Suppression]] = field(default_factory=dict)
    file_wide: dict[str, Suppression] = field(default_factory=dict)

    def lookup(self, code: str, line: int) -> "Suppression | None":
        """The suppression covering ``code`` at ``line``, if any."""
        at_line = self.by_line.get(line, {})
        if code in at_line:
            return at_line[code]
        return self.file_wide.get(code)


def _parse_entries(text: str) -> list[tuple[str, str]]:
    """Split ``D001,E001(reason) -- prose`` into ``[(code, reason), ...]``.

    Parsing stops at the first entry not followed by a comma.
    """
    entries: list[tuple[str, str]] = []
    pos = 0
    while (match := _ENTRY.match(text, pos)) is not None:
        entries.append((match.group(1), (match.group(2) or "").strip()))
        if not match.group(3):
            break
        pos = match.end()
    return entries


def parse_suppressions(source: str) -> SuppressionIndex:
    """Index every ``# simlint:`` directive in ``source`` by line."""
    index = SuppressionIndex()
    if _DIRECTIVE.search(source) is None:
        return index  # no comment can hold what the raw text does not
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable files are reported by the engine as parse findings;
        # there is nothing meaningful to suppress in them.
        return index
    for line, comment in comments:
        match = _DIRECTIVE.search(comment)
        if match is None:
            continue
        directive, entries = match.group(1), match.group(2)
        for code, reason in _parse_entries(entries):
            if directive == "disable-file":
                index.file_wide[code] = Suppression(code, reason, line=0)
            else:
                index.by_line.setdefault(line, {})[code] = Suppression(
                    code, reason, line=line
                )
    return index
