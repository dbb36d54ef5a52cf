"""The simlint engine: parse, dispatch rules, apply suppressions.

The engine owns everything rule-agnostic: walking paths to ``.py``
files, parsing each into a :class:`SourceFile` (AST + raw text + node
and scope index + suppression index), running per-file and project
rules, and filtering findings through the inline-suppression index and
the optional baseline.  Rules never see the suppression machinery —
they report everything, and the engine decides what the developer has
justified away.

Project rules share one :class:`LintContext` per run: the whole-program
analyses (symbol tables, unit events, purity reachability) are built
lazily on first request and cached there, so the four U-rules and two
F-rules together cost one analysis pass, not six.

Two entry points matter to callers:

* :func:`lint_paths` — lint files/directories on disk (the CLI);
* :func:`lint_sources` — lint in-memory ``{virtual_path: source}``
  mappings, which is how the fixture tests exercise path-scoped rules
  without planting trip-wire files inside the real package tree.
"""

from __future__ import annotations

import ast
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule
from repro.lint.suppress import SuppressionIndex, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.analysis.contracts import IntervalEvent
    from repro.lint.analysis.purity import PurityAnalysis
    from repro.lint.analysis.symbols import Program
    from repro.lint.analysis.unitcheck import UnitEvent
    from repro.lint.baseline import Baseline

__all__ = [
    "LintContext",
    "LintReport",
    "SourceFile",
    "lint_paths",
    "lint_sources",
    "walk_paths",
]

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: deliberately-broken rule fixtures used by the test suite; they are
#: data, not code, and must not fail a whole-repo run.
SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    ".venv",
    "venv",
    "node_modules",
    "lint_fixtures",
}


#: Node types that open a scope in :class:`SourceFile`'s scope index.
SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPE_SET = frozenset(SCOPE_TYPES)


def _index_tree(
    tree: ast.AST,
) -> tuple[list[ast.AST], dict[ast.AST, list[ast.AST]]]:
    """One breadth-first pass over ``tree``: its nodes and its scope index.

    Nodes come out in :func:`ast.walk` order (callers that keep the first
    of several bindings depend on it).  A ``def``/``class`` owns the nodes
    of its body; its decorators, defaults, annotations and bases belong
    to the enclosing scope, where Python evaluates them.
    """
    nodes: list[ast.AST] = [tree]
    owners: list[ast.AST] = [tree]  # owners[i] is the scope owning nodes[i]
    scopes: dict[ast.AST, list[ast.AST]] = {tree: []}
    add_node, add_owner = nodes.append, owners.append
    # Both lists grow as we go, which makes the loop breadth-first.
    for node, owner in zip(nodes, owners):
        body_owner = owner
        if type(node) in _SCOPE_SET:
            body_owner = node
            scopes[node] = []
        for name in node._fields:
            value = getattr(node, name, None)
            child_owner = body_owner if name == "body" else owner
            if type(value) is list:
                owned = scopes[child_owner]
                for child in value:
                    if isinstance(child, ast.AST):
                        add_node(child)
                        add_owner(child_owner)
                        owned.append(child)
            elif isinstance(value, ast.AST):
                add_node(value)
                add_owner(child_owner)
                scopes[child_owner].append(value)
    return nodes, scopes


@dataclass
class SourceFile:
    """One parsed module: path, text, AST, node index and suppressions.

    The file owns AST traversal: :attr:`nodes` and :attr:`scopes` are
    built in one pass at parse time, and rules and analyses read them
    instead of calling :func:`ast.walk` again.
    """

    path: str
    text: str
    tree: Optional[ast.AST]
    suppressions: SuppressionIndex
    parse_error: Optional[str] = None
    #: Every node of ``tree``, in :func:`ast.walk` order.
    nodes: list[ast.AST] = field(default_factory=list, repr=False, compare=False)
    #: Module, ``class`` and ``def`` nodes -> the nodes each owns, in
    #: ``ast.walk`` order.  A nested ``def``/``class`` statement is listed
    #: in its parent; its body is listed under its own key only.
    scopes: dict[ast.AST, list[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_text(cls, text: str, path: str) -> "SourceFile":
        tree: Optional[ast.AST] = None
        error: Optional[str] = None
        nodes: list[ast.AST] = []
        scopes: dict[ast.AST, list[ast.AST]] = {}
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            error = f"{exc.msg} (line {exc.lineno})"
        else:
            nodes, scopes = _index_tree(tree)
        return cls(
            path=path,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            parse_error=error,
            nodes=nodes,
            scopes=scopes,
        )

    @classmethod
    def from_disk(cls, path: "str | os.PathLike[str]") -> "SourceFile":
        p = pathlib.Path(path)
        return cls.from_text(p.read_text(encoding="utf-8"), p.as_posix())

    @property
    def module_name(self) -> str:
        """The bare module name (``red`` for ``src/repro/net/red.py``)."""
        return pathlib.PurePosixPath(self.path).stem

    def walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Every node under ``scope``'s body, nested scopes included.

        The scope's own nodes come first, in ``ast.walk`` order, then each
        nested scope's in turn, depth first.
        """
        owned = self.scopes[scope]
        yield from owned
        for node in owned:
            if isinstance(node, SCOPE_TYPES):
                yield from self.walk(node)


#: ``--stats`` rows that are not rules: building the SourceFiles, then
#: each shared LintContext analysis.
PHASES = ("parse", "program", "units", "intervals", "purity")


class LintContext:
    """Per-run shared state for project rules.

    Whole-program analyses are expensive (symbol tables over every file,
    unit inference, call-graph reachability); the engine builds one
    context per run and hands it to every project rule, which memoizes
    each analysis on first use.  Each build's wall time is charged to
    its own row of ``timings`` (see :data:`PHASES`), not to the rule
    that happened to ask first.
    """

    def __init__(self, files: Sequence["SourceFile"], timings: dict[str, float]):
        self.files = list(files)
        self.timings = timings
        self._program: Optional["Program"] = None
        self._unit_events: dict[tuple[str, ...], list["UnitEvent"]] = {}
        self._interval_events: dict[tuple[str, ...], list["IntervalEvent"]] = {}
        self._purity: Optional["PurityAnalysis"] = None

    @property
    def program(self) -> "Program":
        """The whole-program symbol index, built once."""
        if self._program is None:
            from repro.lint.analysis.symbols import build_program

            started = time.perf_counter()
            self._program = build_program(self.files)
            _charge(self.timings, "program", started)
        return self._program

    def unit_events(self, scope: Sequence[str]) -> list["UnitEvent"]:
        """Unit-mismatch events for files inside ``scope`` packages."""
        key = tuple(scope)
        if key not in self._unit_events:
            from repro.lint.analysis.unitcheck import analyze_units

            program = self.program
            started = time.perf_counter()
            self._unit_events[key] = analyze_units(program, self.files, key)
            _charge(self.timings, "units", started)
        return self._unit_events[key]

    def interval_events(self, scope: Sequence[str]) -> list["IntervalEvent"]:
        """Interval/contract events for files inside ``scope`` packages."""
        key = tuple(scope)
        if key not in self._interval_events:
            from repro.lint.analysis.contracts import analyze_contracts

            program = self.program
            started = time.perf_counter()
            self._interval_events[key] = analyze_contracts(program, self.files, key)
            _charge(self.timings, "intervals", started)
        return self._interval_events[key]

    @property
    def purity(self) -> "PurityAnalysis":
        """Cache-purity reachability, built once."""
        if self._purity is None:
            from repro.lint.analysis.purity import analyze_purity

            program = self.program
            started = time.perf_counter()
            self._purity = analyze_purity(program, self.files)
            _charge(self.timings, "purity", started)
        return self._purity


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Findings absorbed by the ``--baseline`` file, if one was given.
    baselined: int = 0
    #: Human descriptions of baseline entries nothing matched anymore.
    stale_baseline: list[str] = field(default_factory=list)
    #: Wall seconds per ``--stats`` row: one per :data:`PHASES` entry
    #: that ran, and one per rule code holding that rule's own time.
    #: They add up to the run, less filtering and sorting the findings.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        by_code: dict[str, int] = {}
        for finding in self.findings:
            by_code[finding.rule] = by_code.get(finding.rule, 0) + 1
        return dict(sorted(by_code.items()))

    def as_dict(self) -> dict:
        from repro.lint.findings import JSON_SCHEMA_VERSION

        return {
            "version": JSON_SCHEMA_VERSION,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "stale_baseline": list(self.stale_baseline),
            "counts": self.counts(),
            "findings": [f.as_dict() for f in self.findings],
        }


def walk_paths(paths: Sequence["str | os.PathLike[str]"]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_file():
            if p.suffix == ".py":
                out.add(p.as_posix())
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"no such file or directory: {p}")
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.add((pathlib.Path(dirpath) / name).as_posix())
    return sorted(out)


def _active_rules(
    select: "set[str] | None", ignore: "set[str] | None"
) -> list[Rule]:
    rules = [
        r
        for code, r in RULES.items()
        if (select is None or code in select)
        and (ignore is None or code not in ignore)
    ]
    return rules


def _admit(
    finding: Finding,
    rule: Rule,
    by_path: Mapping[str, SourceFile],
    report: LintReport,
) -> Optional[Finding]:
    """Apply the suppression index; return the finding to keep, if any."""
    src = by_path.get(finding.path)
    if src is None:
        return finding
    supp = src.suppressions.lookup(finding.rule, finding.line)
    if supp is None:
        return finding
    if rule.requires_reason and not supp.has_reason:
        return Finding(
            finding.rule,
            finding.path,
            finding.line,
            finding.col,
            finding.message
            + f" [suppressing {finding.rule} requires a justification: "
            f"# simlint: disable={finding.rule}(reason)]",
        )
    report.suppressed += 1
    return None


def _charge(timings: dict[str, float], row: str, started: float) -> None:
    """Add the seconds since ``started`` to ``row``."""
    timings[row] = timings.get(row, 0.0) + time.perf_counter() - started


def _phase_seconds(timings: dict[str, float]) -> float:
    return sum(timings.get(phase, 0.0) for phase in PHASES)


def lint_files(
    files: Sequence[SourceFile],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
    baseline: "Baseline | None" = None,
) -> LintReport:
    """Run the active rules over parsed files and filter suppressions."""
    report = LintReport(files_checked=len(files))
    by_path = {src.path: src for src in files}
    rules = _active_rules(select, ignore)

    raw: list[tuple[Rule, Finding]] = []
    timings = report.timings
    for src in files:
        if src.parse_error is not None:
            report.findings.append(
                Finding("X000", src.path, 1, 1, f"syntax error: {src.parse_error}")
            )
            continue
        for r in rules:
            if r.project or not r.applies(src.path):
                continue
            started = time.perf_counter()
            for finding in r.check_file(src):
                raw.append((r, finding))
            _charge(timings, r.code, started)
    parseable = [src for src in files if src.parse_error is None]
    context = LintContext(parseable, timings)
    for r in rules:
        if not r.project:
            continue
        builds = _phase_seconds(timings)
        started = time.perf_counter()
        for finding in r.check_project(parseable, context):
            raw.append((r, finding))
        # Analyses this rule triggered were charged to their own rows.
        elapsed = time.perf_counter() - started
        timings[r.code] = timings.get(r.code, 0.0) + elapsed - (
            _phase_seconds(timings) - builds
        )

    for r, finding in raw:
        kept = _admit(finding, r, by_path, report)
        if kept is not None:
            report.findings.append(kept)
    report.findings.sort(key=Finding.sort_key)
    if baseline is not None:
        kept_findings, baselined, stale = baseline.apply(report.findings)
        report.findings = kept_findings
        report.baselined = baselined
        report.stale_baseline = stale
    return report


def _lint_parsed(
    files: Sequence[SourceFile],
    parse_started: float,
    select: "set[str] | None",
    ignore: "set[str] | None",
    baseline: "Baseline | None",
) -> LintReport:
    """Lint freshly built files, charging their construction to ``parse``."""
    parse_s = time.perf_counter() - parse_started
    report = lint_files(files, select=select, ignore=ignore, baseline=baseline)
    report.timings["parse"] = parse_s
    return report


def lint_sources(
    sources: Mapping[str, str],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
    baseline: "Baseline | None" = None,
) -> LintReport:
    """Lint in-memory ``{virtual_path: source_text}`` modules.

    The virtual path decides which rules apply — a fixture passed as
    ``repro/net/example.py`` is linted exactly as if it lived in the
    real ``repro.net`` package.
    """
    started = time.perf_counter()
    files = [SourceFile.from_text(text, path) for path, text in sources.items()]
    return _lint_parsed(files, started, select, ignore, baseline)


def lint_paths(
    paths: Sequence["str | os.PathLike[str]"],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
    baseline: "Baseline | None" = None,
) -> LintReport:
    """Lint files and directory trees on disk."""
    started = time.perf_counter()
    files = [SourceFile.from_disk(p) for p in walk_paths(paths)]
    return _lint_parsed(files, started, select, ignore, baseline)
