"""E001: no blind ``except`` in worker execution paths without a reason.

The executor's job is to *surface* worker failures (retry, degrade,
salvage) — a silent ``except Exception: pass`` anywhere on that path can
eat a crashed simulation and ship a half-empty table.  Deliberate
best-effort handlers (pool teardown, tmp-file sweeps) are fine, but each
must carry a written justification:

    except Exception:  # simlint: disable=E001(best-effort pool teardown)

A bare ``# simlint: disable=E001`` without a reason does not suppress.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule

__all__ = ["BlindExceptRule"]

_BLIND = {"Exception", "BaseException"}


def _blind_name(node: Optional[ast.expr]) -> Optional[str]:
    """The blind exception name an ``except`` clause catches, if any."""
    if node is None:
        return "<bare>"
    if isinstance(node, ast.Name) and node.id in _BLIND:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _BLIND:
        return node.attr
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _blind_name(element)
            if name is not None:
                return name
    return None


@rule
class BlindExceptRule(Rule):
    """E001: blind excepts on worker execution paths need a justification."""

    code = "E001"
    summary = (
        "no bare/blind 'except' in worker execution paths without a "
        "# simlint: disable=E001(reason) justification"
    )
    scope = ("repro/experiments",)
    requires_reason = True

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for node in src.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            name = _blind_name(node.type)
            if name is None:
                continue
            what = (
                "a bare 'except:'"
                if name == "<bare>"
                else f"'except {name}'"
            )
            yield self.finding(
                src,
                node,
                f"{what} on a worker execution path can swallow real "
                "failures; catch specific exceptions or justify with "
                "# simlint: disable=E001(reason)",
            )
