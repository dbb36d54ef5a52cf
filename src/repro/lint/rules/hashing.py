"""H001: content-hash stability for job identities and persisted JSON.

Three ways a job's content hash (or a cached payload) silently stops
being stable across processes and Python invocations:

* the builtin ``hash()`` — salted per-process by ``PYTHONHASHSEED`` for
  strings, so it must never feed anything persisted or ordered;
* ``json.dumps`` without ``sort_keys=True`` — byte layout then depends
  on dict construction order, which refactors shuffle freely;
* a field added to the ``Job`` dataclass without deciding whether it is
  identity (must appear in ``describe()``) or display-only (must be
  ``field(..., compare=False)``) — the ambiguity is exactly how two
  semantically different jobs end up sharing a cache entry.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.astutil import call_name, keyword_value
from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule
from repro.lint.rules.determinism import DOMAIN_PACKAGES

__all__ = ["HashStabilityRule"]


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = call_name(dec) if isinstance(dec, ast.Call) else None
        if name is None and isinstance(target, (ast.Name, ast.Attribute)):
            name = target.id if isinstance(target, ast.Name) else target.attr
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _compare_false(value: Optional[ast.expr]) -> bool:
    """True when a field default is ``field(..., compare=False)``."""
    if not isinstance(value, ast.Call):
        return False
    name = call_name(value)
    if name is None or name.split(".")[-1] != "field":
        return False
    kw = keyword_value(value, "compare")
    return isinstance(kw, ast.Constant) and kw.value is False


def _describe_keys(src: SourceFile, cls: ast.ClassDef) -> Optional[set[str]]:
    """String keys of the dict returned by ``describe()``, if findable."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "describe":
            for node in src.scopes[stmt]:
                if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Dict
                ):
                    keys: set[str] = set()
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            keys.add(key.value)
                    return keys
    return None


@rule
class HashStabilityRule(Rule):
    """H001: keep content hashes stable across processes and versions."""

    code = "H001"
    summary = (
        "hashed/persisted payloads must be canonical: no builtin hash(), "
        "json.dumps needs sort_keys=True, Job fields are identity or "
        "explicitly display-only"
    )
    scope = DOMAIN_PACKAGES

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for node in src.nodes:
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name == "hash" and node.args:
                    yield self.finding(
                        src,
                        node,
                        "builtin hash() is salted per-process by "
                        "PYTHONHASHSEED; use hashlib over a canonical "
                        "encoding for anything persisted or ordered",
                    )
                elif name is not None and name.endswith("json.dumps"):
                    kw = keyword_value(node, "sort_keys")
                    if not (isinstance(kw, ast.Constant) and kw.value is True):
                        yield self.finding(
                            src,
                            node,
                            "json.dumps without sort_keys=True: the byte "
                            "layout then tracks dict construction order, "
                            "which is not a stable identity",
                        )
            elif isinstance(node, ast.ClassDef) and node.name == "Job":
                yield from self._check_job_fields(src, node)

    # -- Job field / describe() consistency ----------------------------------

    def _check_job_fields(
        self, src: SourceFile, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        if not _is_dataclass_decorated(cls):
            return
        keys = _describe_keys(src, cls)
        if keys is None:
            return  # no canonical describe() to cross-check against
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            target = stmt.target
            if not isinstance(target, ast.Name):
                continue
            annotation = ast.dump(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            name = target.id
            display_only = _compare_false(stmt.value)
            if display_only and name in keys:
                yield self.finding(
                    src,
                    stmt,
                    f"display-only Job field {name!r} (compare=False) "
                    "leaks into the hashed describe() payload",
                )
            elif not display_only and name not in keys:
                yield self.finding(
                    src,
                    stmt,
                    f"Job field {name!r} neither feeds describe() nor is "
                    "marked display-only (compare=False); decide whether "
                    "it is identity or display and make it explicit",
                )
