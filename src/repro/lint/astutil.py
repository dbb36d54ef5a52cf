"""Small AST helpers shared by the simlint rules."""

from __future__ import annotations

import ast
from typing import Optional

__all__ = [
    "call_name",
    "dotted_name",
    "keyword_value",
    "str_const",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name a call targets (``random.Random``), else None."""
    return dotted_name(node.func)


def keyword_value(node: ast.Call, name: str) -> Optional[ast.expr]:
    """The AST of keyword argument ``name`` on a call, if present."""
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def str_const(node: Optional[ast.expr]) -> Optional[str]:
    """The value of a string-literal expression, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
