"""Units-of-measure inference and mismatch detection.

The checker pushes :class:`repro.units.Unit` vectors through expressions
using two anchor sources:

* ``Annotated`` aliases from :mod:`repro.units` on parameters, returns,
  attributes and dataclass fields;
* the repository's name-suffix convention (``_s``, ``_bps``, ``_bytes``,
  ``_pkts``, ...) on any parameter, attribute, variable or function name.

Inference is intraprocedural (one scope at a time, via the dataflow
walker) but the *anchors* are whole-program: a call's argument units are
checked against the callee's declared parameter units wherever the
callee resolves inside the linted file set, and an attribute like
``cfg.rtt_s`` carries its unit into any module that touches it.

Unit algebra follows :class:`repro.units.Unit`; the one special case is
the literal ``8`` / ``8.0``, which in a product or quotient against a
bit- or byte-carrying operand is read as the conversion factor
``bit/byte`` (so ``bytes * 8`` is bits, ``bits / 8`` is bytes and
``8.0 / bandwidth_bps`` is seconds-per-byte).  Any other product mixing
``bit`` and ``byte`` is reported.

Four event kinds come out, one per U-rule:

* ``arith`` (U001) — incompatible units added, subtracted, compared,
  assigned or returned;
* ``mix`` (U002) — bit/byte mixing without the factor-8 conversion;
* ``arg`` (U003) — argument unit conflicts with the parameter's;
* ``suffix`` (U004) — a name's suffix conflicts with its annotation.

Unknown units propagate silently: the checker only speaks when *both*
sides of an operation are known, so partial annotation coverage can
never manufacture a false mismatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.lint.analysis.dataflow import DataflowWalker
from repro.lint.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleTable,
    Program,
)
from repro.lint.astutil import dotted_name
from repro.units import BITS_PER_BYTE, SUFFIX_UNITS, Unit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import SourceFile

__all__ = ["UnitEvent", "analyze_units"]

#: Alias names exported by :mod:`repro.units`, resolved by final component.
_ALIAS_UNITS = {
    "Seconds": Unit.of(s=1),
    "Bits": Unit.of(bit=1),
    "Bytes": Unit.of(byte=1),
    "Packets": Unit.of(pkt=1),
    "Ratio": Unit.of(),
    "BitsPerSecond": Unit.of(bit=1, s=-1),
    "BytesPerSecond": Unit.of(byte=1, s=-1),
    "PacketsPerSecond": Unit.of(pkt=1, s=-1),
    "PerSecond": Unit.of(s=-1),
    "SecondsPerByte": Unit.of(s=1, byte=-1),
}

#: Contract aliases from :mod:`repro.contracts` carry a Unit too (they
#: compose Unit + Range metadata), so a ``PositiveSeconds`` parameter
#: anchors the unit inference exactly like a ``Seconds`` one.
from repro.contracts import ALIAS_UNITS as _CONTRACT_ALIAS_UNITS  # noqa: E402

#: Module prefixes an alias may resolve to, per alias table.
_ALIAS_SOURCES: "tuple[tuple[dict[str, Unit], str], ...]" = (
    (_ALIAS_UNITS, "repro.units"),
    (_CONTRACT_ALIAS_UNITS, "repro.contracts"),
)

#: Conversion helpers in :mod:`repro.units`: call -> result unit.
_CONVERSION_CALLS = {
    "bytes_to_bits": Unit.of(bit=1),
    "bits_to_bytes": Unit.of(byte=1),
    "bps_to_bytes_per_s": Unit.of(byte=1, s=-1),
    "bytes_per_s_to_bps": Unit.of(bit=1, s=-1),
}

#: Builtins through which a unit passes unchanged.
_PASSTHROUGH_CALLS = {"abs", "float", "int", "round", "min", "max"}

#: Longest suffixes first, so ``_per_s`` wins over ``_s``.
_SUFFIXES = sorted(SUFFIX_UNITS, key=len, reverse=True)

#: Method names that collide with builtin container methods; attribute
#: calls on *untyped* receivers never resolve through these (a bare
#: ``some_list.append(x)`` must not borrow TimeSeries.append's units).
_AMBIGUOUS_METHOD_NAMES = {
    "append", "add", "extend", "insert", "pop", "popleft", "update", "get",
    "items", "keys", "values", "clear", "remove", "sort", "index", "count",
    "copy", "join", "split", "open", "read", "write", "load", "send",
    "record", "sample", "increment", "start", "stop", "run", "build",
}


@dataclass(frozen=True)
class UnitEvent:
    """One unit inconsistency, before rule-code assignment."""

    kind: str  # arith | mix | arg | suffix
    path: str
    node: ast.AST
    message: str


def suffix_unit(name: Optional[str]) -> Optional[Unit]:
    """The unit a name's suffix declares, if any."""
    if not name:
        return None
    for suffix in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return SUFFIX_UNITS[suffix]
    return None


@dataclass(frozen=True)
class Literal:
    """A bare numeric constant: a transparent scalar (maybe the 8)."""

    value: float

    @property
    def is_eight(self) -> bool:
        return self.value == 8


#: Inference results are Unit, Literal, or None (unknown).
Inferred = "Unit | Literal | None"


@dataclass
class Signature:
    """Declared units of one function's parameters and return value."""

    info: FunctionInfo
    param_names: list[str]
    param_units: dict[str, Optional[Unit]]
    return_unit: Optional[Unit]
    has_vararg: bool


class UnitWorld:
    """Whole-program unit anchors: signatures and attribute units."""

    def __init__(self, program: Program):
        self.program = program
        self.signatures: dict[int, Signature] = {}  # id(FunctionInfo)
        self.class_attrs: dict[int, dict[str, Optional[Unit]]] = {}  # id(ClassInfo)
        #: attribute name -> unit, when every declaration in the program
        #: agrees; conflicting names are mapped to None and never used.
        self.attr_units: dict[str, Optional[Unit]] = {}
        #: function/method name -> return unit, when unambiguous.
        self.return_units: dict[str, Optional[Unit]] = {}
        for table in program.modules.values():
            for info in table.all_functions():
                self._index_function(info)
            for cls in table.classes.values():
                self._index_class_attrs(cls)
        self._merge_global_indexes()

    # -- construction --------------------------------------------------------

    def annotation_unit(
        self, module: ModuleTable, annotation: Optional[ast.expr]
    ) -> Optional[Unit]:
        """The :class:`Unit` an annotation expression declares, if any."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Subscript):
            # Optional[Seconds] / Sequence[Seconds] style wrappers: look
            # through one level when the head is a typing construct.
            head = dotted_name(annotation.value)
            if head is not None and head.split(".")[-1] in ("Optional", "Annotated"):
                inner = annotation.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.annotation_unit(module, inner)
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            left = self.annotation_unit(module, annotation.left)
            return left if left is not None else self.annotation_unit(
                module, annotation.right
            )
        name = dotted_name(annotation)
        if name is None:
            return None
        leaf = name.split(".")[-1]
        head = name.split(".")[0]
        target = module.imports.get(head)
        for aliases, source in _ALIAS_SOURCES:
            if leaf not in aliases:
                continue
            # Only honor the alias when it actually resolves to its
            # defining module (or is used inside that module itself).
            if target is None:
                return aliases[leaf] if module.dotted == source else None
            full = target + (
                "." + ".".join(name.split(".")[1:]) if "." in name else ""
            )
            if full.startswith(source):
                return aliases[leaf]
            return None
        return None

    def declared_unit(
        self, module: ModuleTable, name: Optional[str], annotation: Optional[ast.expr]
    ) -> Optional[Unit]:
        """Annotation unit if present, else the name-suffix unit."""
        unit = self.annotation_unit(module, annotation)
        if unit is not None:
            return unit
        return suffix_unit(name)

    def _index_function(self, info: FunctionInfo) -> None:
        args = info.node.args
        params = list(args.posonlyargs) + list(args.args)
        names: list[str] = []
        units: dict[str, Optional[Unit]] = {}
        for arg in params + list(args.kwonlyargs):
            unit = self.declared_unit(info.module, arg.arg, arg.annotation)
            units[arg.arg] = unit
        names = [a.arg for a in params]
        return_unit = self.declared_unit(
            info.module, info.node.name, info.node.returns
        )
        self.signatures[id(info)] = Signature(
            info=info,
            param_names=names,
            param_units=units,
            return_unit=return_unit,
            has_vararg=args.vararg is not None,
        )

    def _index_class_attrs(self, cls: ClassInfo) -> None:
        attrs: dict[str, Optional[Unit]] = {}

        def record(name: str, unit: Optional[Unit]) -> None:
            if unit is None:
                return
            if name in attrs and attrs[name] is not None and attrs[name] != unit:
                attrs[name] = None  # conflicting declarations: unusable
            else:
                attrs.setdefault(name, unit)

        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                record(
                    stmt.target.id,
                    self.declared_unit(cls.module, stmt.target.id, stmt.annotation),
                )
        for method in cls.methods.values():
            sig = self.signatures.get(id(method))
            for node in cls.module.source.walk(method.node):
                target: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, annotation, value = node.target, node.annotation, node.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    unit = self.declared_unit(cls.module, target.attr, annotation)
                    if unit is None and isinstance(value, ast.Name) and sig:
                        unit = sig.param_units.get(value.id)
                    record(target.attr, unit)
        self.class_attrs[id(cls)] = attrs

    def _merge_global_indexes(self) -> None:
        for attrs in self.class_attrs.values():
            for name, unit in attrs.items():
                if unit is None:
                    continue
                if name in self.attr_units and self.attr_units[name] != unit:
                    self.attr_units[name] = None
                else:
                    self.attr_units.setdefault(name, unit)
        for sig in self.signatures.values():
            name = sig.info.node.name
            if sig.return_unit is None:
                continue
            if name in self.return_units and self.return_units[name] != sig.return_unit:
                self.return_units[name] = None
            else:
                self.return_units.setdefault(name, sig.return_unit)

    # -- queries -------------------------------------------------------------

    def class_attr_unit(self, cls: ClassInfo, attr: str) -> Optional[Unit]:
        for candidate in self.program.mro(cls):
            attrs = self.class_attrs.get(id(candidate), {})
            if attr in attrs:
                return attrs[attr]
        return None

    def signature_of(self, info: FunctionInfo) -> Optional[Signature]:
        return self.signatures.get(id(info))


@dataclass
class _Scope:
    """One scope being checked: its env and enclosing class, if any."""

    module: ModuleTable
    units: dict[str, Optional[Unit]] = field(default_factory=dict)
    types: dict[str, ClassInfo] = field(default_factory=dict)
    cls: Optional[ClassInfo] = None
    return_unit: Optional[Unit] = None
    return_label: str = ""


class _ScopeChecker(DataflowWalker):
    """Checks one scope (module body or one function) for unit events."""

    def __init__(
        self,
        world: UnitWorld,
        src: "SourceFile",
        scope: _Scope,
        events: list[UnitEvent],
        seen: set[tuple[int, str]],
    ):
        self.world = world
        self.src = src
        self.scope = scope
        self.events = events
        self._seen = seen
        self._memo: dict[int, "Unit | Literal | None"] = {}

    # -- event plumbing ------------------------------------------------------

    def _emit(self, kind: str, node: ast.AST, message: str) -> None:
        key = (id(node), kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self.events.append(UnitEvent(kind, self.src.path, node, message))

    # -- name/attribute anchors ----------------------------------------------

    def name_unit(self, name: str) -> Optional[Unit]:
        unit = self.scope.units.get(name)
        if unit is not None:
            return unit
        return suffix_unit(name)

    def attribute_unit(self, node: ast.Attribute) -> Optional[Unit]:
        unit = suffix_unit(node.attr)
        if unit is not None:
            return unit
        receiver_cls = self._receiver_class(node.value)
        if receiver_cls is not None:
            return self.world.class_attr_unit(receiver_cls, node.attr)
        return self.world.attr_units.get(node.attr)

    def _receiver_class(self, receiver: ast.expr) -> Optional[ClassInfo]:
        if isinstance(receiver, ast.Name):
            return self.scope.types.get(receiver.id)
        return None

    # -- inference -----------------------------------------------------------

    def infer(self, node: Optional[ast.expr]) -> "Unit | Literal | None":
        if node is None:
            return None
        key = id(node)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle/duplicate guard while computing
        result = self._infer(node)
        self._memo[key] = result
        return result

    def _infer(self, node: ast.expr) -> "Unit | Literal | None":
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return Literal(float(node.value))
        if isinstance(node, ast.Name):
            return self.name_unit(node.id)
        if isinstance(node, ast.Attribute):
            return self.attribute_unit(node)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            for sub in [node.left, *node.comparators]:
                self.infer(sub)
            return None
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            if isinstance(body, Unit) and isinstance(orelse, Unit):
                return body if body.compatible(orelse) else None
            if isinstance(body, Unit):
                return body
            if isinstance(orelse, Unit):
                return orelse
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.BoolOp):
            for sub in node.values:
                self.infer(sub)
            return None
        # Anything else (subscripts, comprehensions, f-strings...) is
        # unknown; walk children so nested operations are still checked.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and not isinstance(node, ast.Lambda):
                self.infer(child)
        return None

    def _infer_binop(self, node: ast.BinOp) -> "Unit | Literal | None":
        left = self.infer(node.left)
        right = self.infer(node.right)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if isinstance(left, Unit) and isinstance(right, Unit):
                if not left.compatible(right):
                    self._emit(
                        "arith",
                        node,
                        f"{'adds' if isinstance(op, ast.Add) else 'subtracts'} "
                        f"incompatible units: {left} and {right}"
                        + self._conversion_hint(left, right),
                    )
                    return None
                return left
            if isinstance(left, Unit) and isinstance(right, Literal):
                return left
            if isinstance(right, Unit) and isinstance(left, Literal):
                return right
            if isinstance(left, Literal) and isinstance(right, Literal):
                return None
            return None
        if isinstance(op, (ast.Mult, ast.Div, ast.FloorDiv)):
            return self._infer_product(node, op, left, right)
        if isinstance(op, ast.Mod):
            return left if isinstance(left, Unit) else None
        return None

    def _infer_product(
        self,
        node: ast.BinOp,
        op: ast.operator,
        left: "Unit | Literal | None",
        right: "Unit | Literal | None",
    ) -> "Unit | Literal | None":
        dividing = isinstance(op, (ast.Div, ast.FloorDiv))
        # The factor-8 conversion: a literal 8 against a bit/byte-carrying
        # operand is the unit bit/byte, oriented so the product cancels.
        if isinstance(left, Literal) and isinstance(right, Unit):
            lit_unit = self._eight_unit(left, right)
            if lit_unit is not None:
                left = lit_unit
            else:
                return right.inverse() if dividing else right
        elif isinstance(right, Unit) and left is None:
            return None
        if isinstance(right, Literal) and isinstance(left, Unit):
            lit_unit = self._eight_unit(right, left)
            if lit_unit is not None:
                right = lit_unit
            else:
                return left
        if isinstance(left, Unit) and isinstance(right, Unit):
            result = left.div(right) if dividing else left.mul(right)
            if result.mixes_bits_and_bytes:
                self._emit(
                    "mix",
                    node,
                    f"{'divides' if dividing else 'multiplies'} {left} "
                    f"{'by' if dividing else 'and'} {right} leaving "
                    f"{result}: bits and bytes mixed without the "
                    "factor-8 conversion (see repro.units.CONVERSIONS)",
                )
                return None
            return result
        return None

    def _eight_unit(self, literal: Literal, other: Unit) -> Optional[Unit]:
        """``bit/byte`` (or its inverse) when the 8 cancels; else None."""
        if not literal.is_eight:
            return None
        if other.exponent("bit") == 0 and other.exponent("byte") == 0:
            return None
        return BITS_PER_BYTE

    def _conversion_hint(self, a: Unit, b: Unit) -> str:
        bitty = {Unit.of(bit=1), Unit.of(byte=1)}
        if {a, b} == bitty:
            return " (convert with repro.units.bytes_to_bits / bits_to_bytes)"
        return ""

    def _check_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        comparable = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, comparable):
                continue
            left, right = self.infer(lhs), self.infer(rhs)
            if (
                isinstance(left, Unit)
                and isinstance(right, Unit)
                and not left.compatible(right)
            ):
                self._emit(
                    "arith",
                    node,
                    f"compares incompatible units: {left} vs {right}"
                    + self._conversion_hint(left, right),
                )

    # -- call checking (U003) ------------------------------------------------

    def _infer_call(self, call: ast.Call) -> "Unit | Literal | None":
        for arg in call.args:
            self.infer(arg)
        for kw in call.keywords:
            self.infer(kw.value)
        name = dotted_name(call.func)
        if name in _PASSTHROUGH_CALLS and call.args:
            units = [
                u for u in (self.infer(a) for a in call.args) if isinstance(u, Unit)
            ]
            if units and all(units[0].compatible(u) for u in units[1:]):
                return units[0]
            return None
        resolved = self._resolve_call(call)
        if isinstance(resolved, Unit):  # conversion helper
            return resolved
        if isinstance(resolved, ClassInfo):
            return None
        if isinstance(resolved, FunctionInfo):
            sig = self.world.signature_of(resolved)
            return sig.return_unit if sig else None
        # Unresolved: fall back to the callee name's own suffix, then to
        # the unambiguous global return-unit index.
        if isinstance(call.func, ast.Attribute):
            unit = suffix_unit(call.func.attr)
            if unit is not None:
                return unit
            if call.func.attr not in _AMBIGUOUS_METHOD_NAMES:
                return self.world.return_units.get(call.func.attr)
        elif isinstance(call.func, ast.Name):
            return suffix_unit(call.func.id)
        return None

    def _resolve_call(
        self, call: ast.Call
    ) -> "FunctionInfo | ClassInfo | Unit | None":
        """The callee, resolved as far as the symbol tables allow."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.world.program.resolve(self.scope.module, func.id)
            if isinstance(resolved, (FunctionInfo, ClassInfo)):
                return self._maybe_conversion(resolved) or resolved
            return None
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if self.scope.cls is not None:
                    method = self.world.program.find_method(
                        self.scope.cls, func.attr
                    )
                    if method is not None:
                        return method
                return None
            receiver_cls = self._receiver_class(receiver)
            if receiver_cls is not None:
                return self.world.program.find_method(receiver_cls, func.attr)
            name = dotted_name(func)
            if name is not None:
                resolved = self.world.program.resolve(self.scope.module, name)
                if isinstance(resolved, (FunctionInfo, ClassInfo)):
                    return self._maybe_conversion(resolved) or resolved
        return None

    def _maybe_conversion(
        self, resolved: "FunctionInfo | ClassInfo"
    ) -> Optional[Unit]:
        if (
            isinstance(resolved, FunctionInfo)
            and resolved.module.dotted == "repro.units"
        ):
            return _CONVERSION_CALLS.get(resolved.node.name)
        return None

    def on_call(self, call: ast.Call) -> None:
        resolved = self._resolve_call(call)
        sig: Optional[Signature] = None
        skip_self = False
        if isinstance(resolved, FunctionInfo):
            sig = self.world.signature_of(resolved)
            skip_self = resolved.cls is not None and not isinstance(
                call.func, ast.Name
            )
        elif isinstance(resolved, ClassInfo):
            init = self.world.program.find_method(resolved, "__init__")
            sig = self.world.signature_of(init) if init else None
            skip_self = True
        if sig is None:
            return
        params = sig.param_names[1:] if skip_self and sig.param_names else sig.param_names
        for position, arg in enumerate(call.args):
            if position >= len(params):
                break  # varargs or miscounted: stop, don't guess
            self._check_arg(sig, params[position], arg)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in sig.param_units:
                self._check_arg(sig, kw.arg, kw.value)

    def _check_arg(self, sig: Signature, param: str, arg: ast.expr) -> None:
        declared = sig.param_units.get(param)
        if declared is None:
            return
        actual = self.infer(arg)
        if isinstance(actual, Unit) and not actual.compatible(declared):
            self._emit(
                "arg",
                arg,
                f"passes {actual} where parameter {param!r} of "
                f"{sig.info.qualname}() expects {declared}"
                + self._conversion_hint(actual, declared),
            )

    # -- statement hooks -----------------------------------------------------

    def on_statement(self, stmt: ast.stmt) -> None:
        # Infer over every expression root so checks fire in conditions,
        # calls and bare expressions, not only in assignments/returns.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.infer(child)

    def on_assign(
        self, target: ast.expr, value: Optional[ast.expr], stmt: ast.stmt
    ) -> None:
        annotation = stmt.annotation if isinstance(stmt, ast.AnnAssign) else None
        inferred = self.infer(value) if value is not None else None
        if isinstance(target, ast.Name):
            declared = self.world.declared_unit(
                self.scope.module, target.id, annotation
            )
            self._check_declaration(target, target.id, annotation)
            if (
                declared is not None
                and isinstance(inferred, Unit)
                and not inferred.compatible(declared)
            ):
                self._emit(
                    "arith",
                    target,
                    f"assigns {inferred} to {target.id!r}, which is "
                    f"declared {declared}" + self._conversion_hint(inferred, declared),
                )
            unit = declared if declared is not None else (
                inferred if isinstance(inferred, Unit) else None
            )
            self.scope.units[target.id] = unit
            cls = self._constructed_class(value)
            if cls is not None:
                self.scope.types[target.id] = cls
            elif target.id in self.scope.types:
                del self.scope.types[target.id]
        elif isinstance(target, ast.Attribute):
            declared = self.world.annotation_unit(self.scope.module, annotation)
            if declared is None:
                declared = self.attribute_unit(target)
            if (
                declared is not None
                and isinstance(inferred, Unit)
                and not inferred.compatible(declared)
            ):
                self._emit(
                    "arith",
                    target,
                    f"assigns {inferred} to attribute {target.attr!r}, "
                    f"which is declared {declared}"
                    + self._conversion_hint(inferred, declared),
                )

    def on_aug_assign(
        self, target: ast.expr, op: ast.operator, value: ast.expr, stmt: ast.stmt
    ) -> None:
        if not isinstance(op, (ast.Add, ast.Sub)):
            return
        if isinstance(target, ast.Name):
            declared = self.name_unit(target.id)
        elif isinstance(target, ast.Attribute):
            declared = self.attribute_unit(target)
        else:
            return
        inferred = self.infer(value)
        if (
            declared is not None
            and isinstance(inferred, Unit)
            and not inferred.compatible(declared)
        ):
            verb = "adds" if isinstance(op, ast.Add) else "subtracts"
            self._emit(
                "arith",
                stmt,
                f"{verb} {inferred} in place to a {declared} quantity"
                + self._conversion_hint(inferred, declared),
            )

    def on_return(self, value: Optional[ast.expr], stmt: ast.stmt) -> None:
        inferred = self.infer(value) if value is not None else None
        declared = self.scope.return_unit
        if (
            declared is not None
            and isinstance(inferred, Unit)
            and not inferred.compatible(declared)
        ):
            self._emit(
                "arith",
                stmt,
                f"returns {inferred} from {self.scope.return_label}, "
                f"which is declared to return {declared}"
                + self._conversion_hint(inferred, declared),
            )

    # -- declaration conflicts (U004) ----------------------------------------

    def _check_declaration(
        self, node: ast.AST, name: str, annotation: Optional[ast.expr]
    ) -> None:
        from_suffix = suffix_unit(name)
        from_annotation = self.world.annotation_unit(self.scope.module, annotation)
        if (
            from_suffix is not None
            and from_annotation is not None
            and not from_suffix.compatible(from_annotation)
        ):
            self._emit(
                "suffix",
                node,
                f"name {name!r} says {from_suffix} but its annotation "
                f"says {from_annotation}; rename or fix the annotation",
            )

    def _constructed_class(self, value: Optional[ast.expr]) -> Optional[ClassInfo]:
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        resolved = self.world.program.resolve(self.scope.module, name)
        return resolved if isinstance(resolved, ClassInfo) else None


def _function_scope(
    world: UnitWorld,
    info: FunctionInfo,
) -> _Scope:
    scope = _Scope(module=info.module, cls=info.cls)
    sig = world.signature_of(info)
    if sig is not None:
        scope.units.update(sig.param_units)
        scope.return_unit = sig.return_unit
    scope.return_label = f"{info.qualname}()"
    if info.cls is not None:
        scope.types["self"] = info.cls
    args = info.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        cls = _annotation_class(world, info.module, arg.annotation)
        if cls is not None:
            scope.types[arg.arg] = cls
    return scope


def _annotation_class(
    world: UnitWorld, module: ModuleTable, annotation: Optional[ast.expr]
) -> Optional[ClassInfo]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    name = dotted_name(annotation)
    if name is None:
        return None
    return world.program.resolve_class(module, name)


def _check_signature_declarations(
    world: UnitWorld,
    src: "SourceFile",
    info: FunctionInfo,
    events: list[UnitEvent],
    seen: set[tuple[int, str]],
) -> None:
    """U004 on parameter and return declarations of one function."""
    checker = _ScopeChecker(world, src, _Scope(module=info.module), events, seen)
    args = info.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        checker._check_declaration(arg, arg.arg, arg.annotation)
    checker._check_declaration(info.node, info.node.name, info.node.returns)


def analyze_units(
    program: Program,
    files: Sequence["SourceFile"],
    scope_paths: Sequence[str],
) -> list[UnitEvent]:
    """Run unit checking over the files whose paths sit in ``scope_paths``.

    Anchors (signatures, attribute units) come from the whole program;
    events are only reported for in-scope files.
    """
    from repro.lint.registry import in_package

    world = UnitWorld(program)
    events: list[UnitEvent] = []
    for src in files:
        if src.tree is None or not in_package(src.path, *scope_paths):
            continue
        table = program.table(src.path)
        if table is None:
            continue
        seen: set[tuple[int, str]] = set()
        module_scope = _Scope(module=table)
        _ScopeChecker(world, src, module_scope, events, seen).walk(table.tree)  # type: ignore[arg-type]
        for info in table.all_functions():
            _check_signature_declarations(world, src, info, events, seen)
            scope = _function_scope(world, info)
            _ScopeChecker(world, src, scope, events, seen).walk(info.node)
        for cls in table.classes.values():
            checker = _ScopeChecker(
                world, src, _Scope(module=table, cls=cls), events, seen
            )
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    checker._check_declaration(
                        stmt.target, stmt.target.id, stmt.annotation
                    )
    events.sort(
        key=lambda e: (e.path, getattr(e.node, "lineno", 0), getattr(e.node, "col_offset", 0))
    )
    return events
