"""Interprocedural cache-purity analysis for the experiment layer.

The result cache (:mod:`repro.experiments.cache`) is keyed purely by a
job's content hash, so everything a scenario runner computes must be a
function of the :class:`~repro.experiments.jobs.Job` alone.  A runner
that reads a file, consults an environment variable or mutates module
state produces results the cache key does not capture — a cached replay
then silently diverges from a fresh run, which is the one corruption the
whole executor design exists to rule out.

This analysis walks the call graph from the cache-relevant entry points:

* functions decorated with ``@scenario(...)`` (the registered runners);
* module-level ``jobs()`` and ``reduce()`` functions in
  ``repro.experiments.*`` figure modules.

Each function in the linted file set gets a one-time summary (its own
impure operations plus its resolvable callees); a breadth-first walk
from the roots then reports every impure site that is reachable, with
the call chain that reaches it.  Calls that cannot be resolved inside
the linted files (stdlib, third-party, dynamic dispatch) are assumed
pure — the analysis under-approximates rather than drowning real
findings in noise.

Impure operations:

* ``io`` (F001) — ``open()``/``input()``, ``os``/``shutil``/
  ``subprocess``/``tempfile`` filesystem calls, pathlib read/write
  methods, ``json``/``pickle`` file (de)serialization;
* ``env`` (F001) — ``os.environ`` / ``os.getenv`` / ``sys.argv`` reads
  (state not derived from the Job);
* ``global`` (F002) — rebinding via ``global``, or mutating a
  module-level container (item/attribute stores, ``.append``-style
  calls) that the symbol tables identify as mutable module state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.lint.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    FunctionNode,
    ModuleTable,
    Program,
)
from repro.lint.astutil import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import SourceFile

__all__ = ["PurityAnalysis", "PurityEvent", "analyze_purity"]

#: Bare calls that are file/console I/O wherever they appear.
_IO_BUILTINS = {"open", "input"}

#: ``module.function`` calls that touch the filesystem or a process.
_IO_DOTTED_HEADS = {"shutil", "subprocess", "tempfile"}
_IO_DOTTED = {
    "os.remove", "os.unlink", "os.mkdir", "os.makedirs", "os.rmdir",
    "os.rename", "os.replace", "os.system", "os.popen", "os.chdir",
    "os.listdir", "os.scandir", "os.stat", "os.getcwd",
    "json.load", "json.dump", "pickle.load", "pickle.dump",
    "numpy.save", "numpy.load", "np.save", "np.load",
}

#: Attribute calls that are pathlib/file read-write regardless of receiver.
_IO_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
    "touch", "mkdir", "rmdir", "unlink", "iterdir", "glob", "rename",
}

#: Expression heads that read process state a Job does not capture.
_ENV_READS = {"os.environ", "os.environb", "os.getenv", "sys.argv"}

#: Method names that mutate a list/dict/set receiver in place.
_MUTATING_METHODS = {
    "append", "add", "extend", "insert", "update", "clear", "remove",
    "setdefault", "sort", "reverse", "pop", "popitem", "popleft",
    "appendleft", "discard",
}

#: Attribute-call names too generic to resolve without a receiver type.
_AMBIGUOUS_CALLEES = _MUTATING_METHODS | {
    "get", "items", "keys", "values", "copy", "count", "index", "join",
    "split", "build", "describe", "param", "tag",
}


@dataclass(frozen=True)
class ImpureSite:
    """One impure operation found inside a function body."""

    kind: str  # io | env | global
    node: ast.AST
    reason: str


@dataclass
class FunctionSummary:
    """What one function does locally, plus where it goes next."""

    info: FunctionInfo
    sites: list[ImpureSite] = field(default_factory=list)
    callees: list[FunctionInfo] = field(default_factory=list)


@dataclass(frozen=True)
class PurityEvent:
    """One reachable impure site, with the chain that reaches it."""

    kind: str  # io | env | global
    path: str
    node: ast.AST
    message: str
    chain: tuple[str, ...]


@dataclass
class PurityAnalysis:
    """Roots plus every impure site reachable from them."""

    roots: list[FunctionInfo] = field(default_factory=list)
    events: list[PurityEvent] = field(default_factory=list)


def _is_root(info: FunctionInfo) -> bool:
    if info.cls is not None:
        return False
    for name in info.decorator_names():
        if name == "scenario" or name.endswith(".scenario"):
            return True
    if info.name in ("jobs", "reduce"):
        dotted = info.module.dotted or ""
        return dotted.startswith("repro.experiments.")
    return False


def _local_names(src: "SourceFile", node: FunctionNode) -> set[str]:
    """Every name bound anywhere inside ``node`` (flow-insensitive)."""
    out: set[str] = set()
    for sub in (node, *src.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            out.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                out.add(arg.arg)
            if args.vararg:
                out.add(args.vararg.arg)
            if args.kwarg:
                out.add(args.kwarg.arg)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                out.add((alias.asname or alias.name).split(".")[0])
    return out


class _SummaryBuilder:
    """Builds one function's :class:`FunctionSummary`.

    The scan covers the whole function body *including* nested functions
    and lambdas: a closure defined inside a runner executes as part of
    the same job, so its effects belong to the runner's summary.
    """

    def __init__(self, program: Program, method_index: dict[str, list[FunctionInfo]]):
        self.program = program
        self.method_index = method_index

    def build(self, info: FunctionInfo) -> FunctionSummary:
        summary = FunctionSummary(info)
        src = info.module.source
        locals_ = _local_names(src, info.node)
        if info.cls is not None:
            locals_.add("self")
        globals_declared: set[str] = set()
        # The scope index holds the *body* only: decorator expressions and
        # annotations on the def itself run at import time, not when the
        # function does.
        body_nodes = list(src.walk(info.node))
        # Callee expressions are reported through _scan_call; scanning them
        # again as bare loads would double-report e.g. ``os.getenv(...)``.
        call_funcs = {
            id(node.func) for node in body_nodes if isinstance(node, ast.Call)
        }
        for node in body_nodes:
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
                summary.sites.append(
                    ImpureSite(
                        "global",
                        node,
                        f"declares global {', '.join(node.names)} for rebinding",
                    )
                )
            elif isinstance(node, ast.Call):
                self._scan_call(summary, info.module, node, locals_)
            elif isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                node.ctx, ast.Load
            ):
                if id(node) not in call_funcs:
                    self._scan_env_read(summary, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._scan_store(summary, info.module, node, locals_)
        return summary

    # -- individual site detectors -------------------------------------------

    def _scan_env_read(self, summary: FunctionSummary, node: ast.expr) -> None:
        name = dotted_name(node)
        if name in _ENV_READS:
            summary.sites.append(
                ImpureSite("env", node, f"reads process state via {name}")
            )

    def _scan_call(
        self,
        summary: FunctionSummary,
        module: ModuleTable,
        call: ast.Call,
        locals_: set[str],
    ) -> None:
        name = dotted_name(call.func)
        if name in _IO_BUILTINS and name not in locals_ and not (
            name in module.functions or name in module.imports
        ):
            summary.sites.append(
                ImpureSite("io", call, f"calls the {name}() builtin")
            )
            return
        if name is not None and "." in name:
            head = name.split(".")[0]
            if name in _IO_DOTTED or (
                head in _IO_DOTTED_HEADS and head not in locals_
            ):
                summary.sites.append(
                    ImpureSite("io", call, f"calls {name}()")
                )
                return
            if name in _ENV_READS:
                summary.sites.append(
                    ImpureSite("env", call, f"reads process state via {name}()")
                )
                return
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in _IO_METHODS:
                summary.sites.append(
                    ImpureSite("io", call, f"calls the file method .{attr}()")
                )
                return
            if attr in _MUTATING_METHODS:
                self._scan_mutating_method(summary, module, call, locals_)
        self._record_callee(summary, module, call, locals_)

    def _scan_mutating_method(
        self,
        summary: FunctionSummary,
        module: ModuleTable,
        call: ast.Call,
        locals_: set[str],
    ) -> None:
        assert isinstance(call.func, ast.Attribute)
        receiver = call.func.value
        if isinstance(receiver, ast.Name) and self._is_mutable_global(
            module, receiver.id, locals_
        ):
            summary.sites.append(
                ImpureSite(
                    "global",
                    call,
                    f"mutates module global {receiver.id!r} via "
                    f".{call.func.attr}()",
                )
            )

    def _scan_store(
        self,
        summary: FunctionSummary,
        module: ModuleTable,
        stmt: ast.stmt,
        locals_: set[str],
    ) -> None:
        targets: Sequence[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]  # type: ignore[list-item]
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if base is target:
                continue  # plain name store: a local binding
            if isinstance(base, ast.Name) and self._is_mutable_global(
                module, base.id, locals_
            ):
                summary.sites.append(
                    ImpureSite(
                        "global",
                        target,
                        f"stores into module global {base.id!r}",
                    )
                )

    def _is_mutable_global(
        self, module: ModuleTable, name: str, locals_: set[str]
    ) -> bool:
        if name in locals_:
            return False
        if name in module.mutable_globals:
            return True
        # ``from repro.experiments.jobs import SCENARIOS``-style imports of
        # another linted module's mutable global.
        target = module.imports.get(name)
        if target is None:
            return False
        split = self.program._split_dotted(target)
        if split is None:
            return False
        table, remainder = split
        return len(remainder) == 1 and remainder[0] in table.mutable_globals

    # -- call-graph edges ----------------------------------------------------

    def _record_callee(
        self,
        summary: FunctionSummary,
        module: ModuleTable,
        call: ast.Call,
        locals_: set[str],
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "self" and summary.info.cls is not None:
                method = self.program.find_method(summary.info.cls, func.attr)
                if method is not None:
                    summary.callees.append(method)
                    return
        name = dotted_name(func)
        if name is not None:
            head = name.split(".")[0]
            if head not in locals_ or head in module.imports:
                resolved = self.program.resolve(module, name)
                if isinstance(resolved, FunctionInfo):
                    summary.callees.append(resolved)
                    return
                if isinstance(resolved, ClassInfo):
                    init = self.program.find_method(resolved, "__init__")
                    if init is not None:
                        summary.callees.append(init)
                    return
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _AMBIGUOUS_CALLEES:
                return
            candidates = self.method_index.get(attr, [])
            if len(candidates) == 1:
                summary.callees.append(candidates[0])


def analyze_purity(
    program: Program, files: Sequence["SourceFile"]
) -> PurityAnalysis:
    """Walk the call graph from the cache-relevant roots."""
    method_index: dict[str, list[FunctionInfo]] = {}
    for table in program.modules.values():
        for cls in table.classes.values():
            for name, method in cls.methods.items():
                method_index.setdefault(name, []).append(method)
    builder = _SummaryBuilder(program, method_index)
    summaries: dict[int, FunctionSummary] = {}

    def summary_of(info: FunctionInfo) -> FunctionSummary:
        if id(info) not in summaries:
            summaries[id(info)] = builder.build(info)
        return summaries[id(info)]

    analysis = PurityAnalysis()
    for table in program.modules.values():
        for info in table.all_functions():
            if _is_root(info):
                analysis.roots.append(info)

    reported: set[tuple[int, str]] = set()
    visited: set[int] = set()
    for root in analysis.roots:
        queue: list[tuple[FunctionInfo, tuple[str, ...]]] = [
            (root, (root.qualname,))
        ]
        while queue:
            info, chain = queue.pop(0)
            if id(info) in visited:
                continue
            visited.add(id(info))
            summary = summary_of(info)
            for site in summary.sites:
                key = (id(site.node), site.kind)
                if key in reported:
                    continue
                reported.add(key)
                analysis.events.append(
                    PurityEvent(
                        kind=site.kind,
                        path=info.module.path,
                        node=site.node,
                        message=(
                            f"{site.reason}; reachable from cache-relevant "
                            f"entry point via {' -> '.join(chain)}"
                        ),
                        chain=chain,
                    )
                )
            for callee in summary.callees:
                if id(callee) not in visited:
                    queue.append((callee, chain + (callee.qualname,)))
    analysis.events.sort(
        key=lambda e: (
            e.path,
            getattr(e.node, "lineno", 0),
            getattr(e.node, "col_offset", 0),
        )
    )
    return analysis
