"""T001: measurement storage belongs to :mod:`repro.telemetry`.

Before the telemetry subsystem existed, every layer grew its own ad-hoc
measurement lists — ``self._drop_times = []``, ``self._cwnd_trace = []``,
``self._queue_samples = []`` — each with its own append discipline, its
own memory layout and no way to export or replay.  The refactor replaced
them with typed probes (:class:`~repro.telemetry.probes.CounterProbe`,
:class:`~repro.telemetry.probes.SeriesProbe`,
:class:`~repro.telemetry.probes.GaugeProbe`) that share array-backed
storage, uniform half-open window semantics and JSONL trace export.

This rule keeps the old pattern from creeping back: inside the
simulation packages, an instance attribute whose name says "I am a
measurement" (``*_times``, ``*_trace``, ``*_series``, ``*_samples``)
must not be initialized as a bare ``list`` — it should be a probe.
Genuine *algorithm state* that happens to be a list (e.g. the recent-ACK
window RAP prunes for its average) is fine under a name that says what
it is, or with an inline suppression carrying a reason.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.astutil import call_name
from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule
from repro.lint.rules.determinism import SIM_PACKAGES

__all__ = ["BareMeasurementListRule"]

#: Attribute-name suffixes that declare "this is measurement data".
_MEASUREMENT_SUFFIXES = ("_times", "_trace", "_series", "_samples")


def _is_bare_list(value: Optional[ast.expr]) -> bool:
    """True for ``[]``, ``list()`` and list comprehensions."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    if isinstance(value, ast.Call) and call_name(value) == "list":
        return True
    return False


def _measurement_attr(target: ast.expr) -> Optional[str]:
    """The attribute name when ``target`` is ``self.<measurement-name>``."""
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and target.attr.endswith(_MEASUREMENT_SUFFIXES)
    ):
        return target.attr
    return None


@rule
class BareMeasurementListRule(Rule):
    """T001: no bare measurement lists outside ``repro.telemetry``."""

    code = "T001"
    summary = (
        "measurement-named attributes (*_times/_trace/_series/_samples) "
        "must be telemetry probes, not bare lists"
    )
    scope = SIM_PACKAGES
    requires_reason = True

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        for node in src.nodes:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if not _is_bare_list(value):
                continue
            for target in targets:
                attr = _measurement_attr(target)
                if attr is not None:
                    yield self.finding(
                        src,
                        node,
                        f"initializes measurement attribute {attr!r} as a "
                        "bare list; use a repro.telemetry probe "
                        "(CounterProbe/SeriesProbe/GaugeProbe) so it gets "
                        "array storage, window semantics and trace export "
                        "— or rename it to say what algorithm state it is",
                    )
