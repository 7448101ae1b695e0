"""Spatial program specifications: functions, recurrences, and directives.

A :class:`SpatialSpec` is a purely declarative object: named functions with
tuple-valued piecewise recurrences over integer loop variables, inclusive
``lower:step:upper`` bounds that may reference outer variables, and the
scheduling directives (channel, unroll, relay, store) that the simulator
interprets.  :func:`builtin_qr_spec` returns the Givens-QR program over an
augmented input matrix; :func:`validate` checks any spec exhaustively at
concrete constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Union


class UnboundNameError(LookupError):
    """An expression referenced a name with no binding."""


class ExprTypeError(ValueError):
    """An expression combined operands of the wrong kind."""


# --- expressions ------------------------------------------------------------

class Expr:
    """Base for the tiny integer/boolean expression language.

    Arithmetic composes through operators (``a + 1``, ``M - col``); the
    comparison and conjunction forms are methods (``eq``, ``ne``, ``lt``,
    ``le``, ``&``) so that dataclass equality on the nodes stays intact.
    """

    def __add__(self, other: "Expr | int") -> "Expr":
        return BinOp("+", self, as_expr(other))

    def __sub__(self, other: "Expr | int") -> "Expr":
        return BinOp("-", self, as_expr(other))

    def __mul__(self, other: "Expr | int") -> "Expr":
        return BinOp("*", self, as_expr(other))

    def __and__(self, other: "Expr") -> "Expr":
        return BinOp("&&", self, as_expr(other))

    def eq(self, other: "Expr | int") -> "Expr":
        return BinOp("==", self, as_expr(other))

    def ne(self, other: "Expr | int") -> "Expr":
        return BinOp("!=", self, as_expr(other))

    def lt(self, other: "Expr | int") -> "Expr":
        return BinOp("<", self, as_expr(other))

    def le(self, other: "Expr | int") -> "Expr":
        return BinOp("<=", self, as_expr(other))


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class Name(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr


_ARITH_OPS = {"+", "-", "*"}
_COMPARE_OPS = {"==", "!=", "<", "<="}


def as_expr(value: Union[Expr, int]) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return IntLit(value)
    raise ExprTypeError(f"cannot use {value!r} as an expression")


def eval_expr(e: Expr, bindings: Mapping[str, int]) -> Union[int, bool]:
    """Evaluate under a complete binding; returns an int or a bool."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Name):
        try:
            return bindings[e.name]
        except KeyError:
            raise UnboundNameError(e.name) from None
    if isinstance(e, BinOp):
        lhs = eval_expr(e.lhs, bindings)
        rhs = eval_expr(e.rhs, bindings)
        if e.op in _ARITH_OPS:
            if isinstance(lhs, bool) or isinstance(rhs, bool):
                raise ExprTypeError(f"arithmetic {e.op} on boolean operand")
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            return lhs * rhs
        if e.op in _COMPARE_OPS:
            if isinstance(lhs, bool) or isinstance(rhs, bool):
                raise ExprTypeError(f"comparison {e.op} on boolean operand")
            if e.op == "==":
                return lhs == rhs
            if e.op == "!=":
                return lhs != rhs
            if e.op == "<":
                return lhs < rhs
            return lhs <= rhs
        if e.op == "&&":
            if not isinstance(lhs, bool) or not isinstance(rhs, bool):
                raise ExprTypeError("&& needs boolean operands")
            return lhs and rhs
    raise ExprTypeError(f"unknown expression node {e!r}")


def expr_names(e: Expr) -> set[str]:
    if isinstance(e, Name):
        return {e.name}
    if isinstance(e, BinOp):
        return expr_names(e.lhs) | expr_names(e.rhs)
    return set()


# --- bounds and domains -----------------------------------------------------

@dataclass(frozen=True)
class BoundSpec:
    """Inclusive ``lower:step:upper`` range for one loop variable."""

    var: str
    lower: Expr
    step: int
    upper: Expr

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError(f"bound for {self.var!r} has zero step")

    def enumerate(self, bindings: Mapping[str, int]) -> list[int]:
        lo = eval_expr(self.lower, bindings)
        up = eval_expr(self.upper, bindings)
        if isinstance(lo, bool) or isinstance(up, bool):
            raise ExprTypeError(f"bound for {self.var!r} evaluated to a boolean")
        if self.step > 0:
            return list(range(lo, up + 1, self.step))
        return list(range(lo, up - 1, self.step))


# --- recurrence right-hand sides ---------------------------------------------

KERNEL_ELIMINATE = "eliminate"
KERNEL_UPDATE = "update"

# kernel tag -> (input arity, output tuple arity)
KERNEL_ARITY: dict[str, tuple[int, int]] = {
    KERNEL_ELIMINATE: (2, 4),
    KERNEL_UPDATE: (4, 2),
}


@dataclass(frozen=True)
class MemoryRef:
    """Load from a named external 2-D input at (row, col)."""

    input: str
    row: Expr
    col: Expr


@dataclass(frozen=True)
class CallRef:
    """One element of another iteration's returned tuple."""

    func: str
    coords: tuple[Expr, ...]
    index: int


@dataclass(frozen=True)
class ConstRef:
    value: float


Arg = Union[MemoryRef, CallRef, ConstRef]


@dataclass(frozen=True)
class RecurrenceCase:
    """One guarded definition: when ``guard`` holds, fire ``kernel(args...)``."""

    label: str
    guard: Expr
    kernel: str
    args: tuple[Arg, ...]


# --- directives ---------------------------------------------------------------

@dataclass(frozen=True)
class ChannelDirective:
    """Values called from the named functions arrive via bounded channels."""

    callees: tuple[str, ...]


@dataclass(frozen=True)
class UnrollDirective:
    var: str


@dataclass(frozen=True)
class RelayDirective:
    """Forward selected tuple elements of ``source`` calls hop-by-hop along ``vector``."""

    source: str
    indices: tuple[int, ...]
    vector: tuple[int, ...]


@dataclass(frozen=True)
class StoreDirective:
    """Emit selected tuple elements as final results when ``condition`` holds."""

    indices: tuple[int, ...]
    condition: Expr


Directive = Union[ChannelDirective, UnrollDirective, RelayDirective, StoreDirective]


# --- functions and the whole spec ----------------------------------------------

@dataclass(frozen=True)
class FuncSpec:
    """A tuple-valued function over an integer iteration domain.

    ``cell_map`` records, per tuple index, which input-matrix cell that
    element is the updated value of (or None for pure parameters such as the
    rotation coefficients); it drives result drains and trace rendering.
    """

    name: str
    dims: tuple[str, ...]
    bounds: tuple[BoundSpec, ...]
    tuple_arity: int
    cases: tuple[RecurrenceCase, ...]
    directives: tuple[Directive, ...] = ()
    cell_map: tuple[tuple[Expr, Expr] | None, ...] = ()

    def stores(self) -> list[StoreDirective]:
        return [d for d in self.directives if isinstance(d, StoreDirective)]

    def relay(self) -> RelayDirective | None:
        for d in self.directives:
            if isinstance(d, RelayDirective):
                return d
        return None

    def unrolled_dims(self) -> tuple[str, ...]:
        return tuple(d.var for d in self.directives if isinstance(d, UnrollDirective))

    def channel_callees(self) -> tuple[str, ...]:
        names: list[str] = []
        for d in self.directives:
            if isinstance(d, ChannelDirective):
                names.extend(d.callees)
        return tuple(names)


@dataclass(frozen=True)
class SpatialSpec:
    constants: tuple[str, ...]
    inputs: tuple[str, ...]
    funcs: tuple[FuncSpec, ...]

    def func(self, name: str) -> FuncSpec:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def has_func(self, name: str) -> bool:
        return any(f.name == name for f in self.funcs)


def enumerate_domain(func: FuncSpec, bindings: Mapping[str, int]) -> list[tuple[int, ...]]:
    """All iteration points of ``func`` in loop-nest order (outermost first)."""
    points: list[tuple[int, ...]] = []

    def descend(level: int, partial: dict[str, int]) -> None:
        if level == len(func.dims):
            points.append(tuple(partial[d] for d in func.dims))
            return
        for value in func.bounds[level].enumerate(partial):
            partial[func.bounds[level].var] = value
            descend(level + 1, partial)
            del partial[func.bounds[level].var]

    descend(0, dict(bindings))
    return points


def firing_case(func: FuncSpec, bindings: Mapping[str, int]) -> RecurrenceCase:
    """The unique case whose guard holds at the bound iteration point."""
    hits = [c for c in func.cases if eval_expr(c.guard, bindings) is True]
    if len(hits) != 1:
        raise ValueError(
            f"{func.name}{tuple(bindings[d] for d in func.dims)}: "
            f"{len(hits)} case guards hold, expected exactly 1"
        )
    return hits[0]


# --- the built-in Givens-QR program ---------------------------------------------

A_PRIME = "A'"
COL = Name("col")
ROW = Name("row")
K = Name("k")
M = Name("M")
N = Name("N")


def builtin_qr_spec() -> SpatialSpec:
    """The Givens-QR elimination expressed as two spatial functions.

    ``X(col, row)`` computes the rotation for eliminating A'[row, col] and
    returns (c, s, zeroed A'[row, col], updated A'[row-1, col]).  ``Y(col,
    row, k)`` applies that rotation to the remaining columns and returns
    (updated A'[row, k], updated A'[row-1, k]).  The directives place every
    unrolled iteration on its own processing element, relay the (c, s) pair
    rightward through each row of Y, and drain the surviving upper-triangle
    values.
    """
    one = IntLit(1)

    x_cases = (
        RecurrenceCase(
            "a",
            COL.eq(1) & ROW.eq(M),
            KERNEL_ELIMINATE,
            (MemoryRef(A_PRIME, M, one), MemoryRef(A_PRIME, M - 1, one)),
        ),
        RecurrenceCase(
            "b",
            COL.eq(1) & ROW.ne(M),
            KERNEL_ELIMINATE,
            (CallRef("X", (one, ROW + 1), 3), MemoryRef(A_PRIME, ROW - 1, one)),
        ),
        RecurrenceCase(
            "c",
            COL.ne(1) & ROW.eq(M),
            KERNEL_ELIMINATE,
            (CallRef("Y", (COL - 1, M, COL), 0), CallRef("Y", (COL - 1, M - 1, COL), 0)),
        ),
        RecurrenceCase(
            "d",
            COL.ne(1) & ROW.ne(M),
            KERNEL_ELIMINATE,
            (CallRef("X", (COL, ROW + 1), 3), CallRef("Y", (COL - 1, ROW - 1, COL), 0)),
        ),
    )
    x = FuncSpec(
        name="X",
        dims=("col", "row"),
        bounds=(
            BoundSpec("col", IntLit(1), 1, N),
            BoundSpec("row", M, -1, COL + 1),
        ),
        tuple_arity=4,
        cases=x_cases,
        directives=(
            ChannelDirective(("X", "Y")),
            UnrollDirective("col"),
            UnrollDirective("row"),
            StoreDirective((3,), ROW.eq(COL + 1)),
        ),
        cell_map=(None, None, (ROW, COL), (ROW - 1, COL)),
    )

    y_cases = (
        RecurrenceCase(
            "a",
            COL.eq(1) & ROW.eq(M),
            KERNEL_UPDATE,
            (
                CallRef("X", (one, M), 0),
                CallRef("X", (one, M), 1),
                MemoryRef(A_PRIME, M, K),
                MemoryRef(A_PRIME, M - 1, K),
            ),
        ),
        RecurrenceCase(
            "b",
            COL.eq(1) & ROW.ne(M),
            KERNEL_UPDATE,
            (
                CallRef("X", (one, ROW), 0),
                CallRef("X", (one, ROW), 1),
                CallRef("Y", (one, ROW + 1, K), 1),
                MemoryRef(A_PRIME, ROW - 1, K),
            ),
        ),
        RecurrenceCase(
            "c",
            COL.ne(1) & ROW.eq(M),
            KERNEL_UPDATE,
            (
                CallRef("X", (COL, M), 0),
                CallRef("X", (COL, M), 1),
                CallRef("Y", (COL - 1, M, K), 0),
                CallRef("Y", (COL - 1, M - 1, K), 0),
            ),
        ),
        RecurrenceCase(
            "d",
            COL.ne(1) & ROW.ne(M),
            KERNEL_UPDATE,
            (
                CallRef("X", (COL, ROW), 0),
                CallRef("X", (COL, ROW), 1),
                CallRef("Y", (COL, ROW + 1, K), 1),
                CallRef("Y", (COL - 1, ROW - 1, K), 0),
            ),
        ),
    )
    y = FuncSpec(
        name="Y",
        dims=("col", "row", "k"),
        bounds=(
            BoundSpec("col", IntLit(1), 1, N),
            BoundSpec("row", M, -1, COL + 1),
            BoundSpec("k", COL + 1, 1, N + 1),
        ),
        tuple_arity=2,
        cases=y_cases,
        directives=(
            ChannelDirective(("X", "Y")),
            UnrollDirective("col"),
            UnrollDirective("row"),
            UnrollDirective("k"),
            RelayDirective("X", (0, 1), (0, 0, 1)),
            StoreDirective((1,), ROW.eq(COL + 1)),
            StoreDirective((0,), ROW.eq(COL + 1) & ROW.eq(M)),
        ),
        cell_map=((ROW, K), (ROW - 1, K)),
    )

    return SpatialSpec(constants=("M", "N"), inputs=(A_PRIME,), funcs=(x, y))


# --- validation -------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    rule: str
    func: str | None
    coords: tuple[int, ...] | None
    message: str

    def __str__(self) -> str:
        where = self.func or "<spec>"
        if self.coords is not None:
            where += str(self.coords)
        return f"[{self.rule}] {where}: {self.message}"


@dataclass
class ValidationReport:
    m: int
    n: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def validate(spec: SpatialSpec, m: int, n: int) -> ValidationReport:
    """Exhaustively check the spec at concrete constants.

    Collects every violation rather than stopping at the first: structural
    problems (unknown names, bad indices, malformed relay vectors), guard
    exclusivity/exhaustiveness over each enumerated domain, and call
    coordinates that land outside the callee's domain.
    """
    if m < 1 or n < 1:
        raise ValueError(f"constants must be >= 1, got M={m}, N={n}")
    consts = {"M": m, "N": n}
    report = ValidationReport(m, n)
    bad = report.violations.append

    domains: dict[str, set[tuple[int, ...]]] = {}
    orders: dict[str, list[tuple[int, ...]]] = {}
    for func in spec.funcs:
        try:
            pts = enumerate_domain(func, consts)
        except (UnboundNameError, ExprTypeError) as exc:
            bad(Violation("bound-eval", func.name, None, f"cannot enumerate bounds: {exc}"))
            pts = []
        orders[func.name] = pts
        domains[func.name] = set(pts)

    for func in spec.funcs:
        _validate_structure(spec, func, report)
        arity = KERNEL_ARITY
        for point in orders[func.name]:
            bindings = dict(consts)
            bindings.update(zip(func.dims, point))
            hits = []
            for case in func.cases:
                try:
                    if eval_expr(case.guard, bindings) is True:
                        hits.append(case)
                except (UnboundNameError, ExprTypeError) as exc:
                    bad(Violation("guard-eval", func.name, point, f"case {case.label}: {exc}"))
            if len(hits) > 1:
                labels = ", ".join(c.label for c in hits)
                bad(Violation("guard-overlap", func.name, point, f"cases {labels} all hold"))
                continue
            if not hits:
                bad(Violation("guard-gap", func.name, point, "no case guard holds"))
                continue
            case = hits[0]
            in_arity, _ = arity[case.kernel]
            if len(case.args) != in_arity:
                bad(Violation(
                    "arg-arity", func.name, point,
                    f"case {case.label}: kernel {case.kernel} takes {in_arity} args, got {len(case.args)}",
                ))
            for slot, arg in enumerate(case.args):
                if isinstance(arg, MemoryRef):
                    if arg.input not in spec.inputs:
                        bad(Violation("memref-unknown-input", func.name, point,
                                      f"case {case.label} arg {slot}: no input {arg.input!r}"))
                elif isinstance(arg, CallRef):
                    if not spec.has_func(arg.func):
                        bad(Violation("callref-unknown-func", func.name, point,
                                      f"case {case.label} arg {slot}: no function {arg.func!r}"))
                        continue
                    callee = spec.func(arg.func)
                    if not (0 <= arg.index < callee.tuple_arity):
                        bad(Violation("callref-tuple-index", func.name, point,
                                      f"case {case.label} arg {slot}: index {arg.index} "
                                      f"outside {arg.func}'s tuple arity {callee.tuple_arity}"))
                    if len(arg.coords) != len(callee.dims):
                        bad(Violation("callref-rank", func.name, point,
                                      f"case {case.label} arg {slot}: {len(arg.coords)} coords "
                                      f"for {len(callee.dims)}-dim {arg.func}"))
                        continue
                    try:
                        target = tuple(eval_expr(c, bindings) for c in arg.coords)
                    except (UnboundNameError, ExprTypeError) as exc:
                        bad(Violation("callref-eval", func.name, point,
                                      f"case {case.label} arg {slot}: {exc}"))
                        continue
                    if target not in domains[arg.func]:
                        bad(Violation("callref-out-of-domain", func.name, point,
                                      f"case {case.label} arg {slot}: "
                                      f"{arg.func}{target} is outside its domain"))
    return report


def _validate_structure(spec: SpatialSpec, func: FuncSpec, report: ValidationReport) -> None:
    bad = report.violations.append
    if len(func.bounds) != len(func.dims) or any(
        b.var != d for b, d in zip(func.bounds, func.dims)
    ):
        bad(Violation("bounds-shape", func.name, None,
                      "bounds must name each dim once, in dim order"))
    if func.cell_map and len(func.cell_map) != func.tuple_arity:
        bad(Violation("cell-map-arity", func.name, None,
                      f"cell_map has {len(func.cell_map)} entries for arity {func.tuple_arity}"))
    for d in func.directives:
        if isinstance(d, ChannelDirective):
            for callee in d.callees:
                if not spec.has_func(callee):
                    bad(Violation("channel-unknown-func", func.name, None,
                                  f"channel names unknown function {callee!r}"))
        elif isinstance(d, UnrollDirective):
            if d.var not in func.dims:
                bad(Violation("unroll-unknown-dim", func.name, None,
                              f"unroll names unknown dim {d.var!r}"))
        elif isinstance(d, RelayDirective):
            if not spec.has_func(d.source):
                bad(Violation("relay-unknown-func", func.name, None,
                              f"relay names unknown function {d.source!r}"))
            else:
                src_arity = spec.func(d.source).tuple_arity
                for idx in d.indices:
                    if not (0 <= idx < src_arity):
                        bad(Violation("relay-tuple-index", func.name, None,
                                      f"relay index {idx} outside {d.source}'s arity {src_arity}"))
            if len(d.vector) != len(func.dims):
                bad(Violation("relay-vector", func.name, None,
                              f"relay vector rank {len(d.vector)} != {len(func.dims)} dims"))
            elif sorted(abs(v) for v in d.vector) != [0] * (len(d.vector) - 1) + [1]:
                bad(Violation("relay-vector", func.name, None,
                              "relay vector must have exactly one entry of magnitude 1"))
        elif isinstance(d, StoreDirective):
            for idx in d.indices:
                if not (0 <= idx < func.tuple_arity):
                    bad(Violation("store-tuple-index", func.name, None,
                                  f"store index {idx} outside tuple arity {func.tuple_arity}"))
                elif idx < len(func.cell_map) and func.cell_map[idx] is None:
                    bad(Violation("store-no-cell", func.name, None,
                                  f"store index {idx} has no output cell"))


# --- JSON serialization ------------------------------------------------------------

SPEC_SCHEMA = 1


def _expr_to_obj(e: Expr) -> object:
    if isinstance(e, IntLit):
        return {"int": e.value}
    if isinstance(e, Name):
        return {"name": e.name}
    if isinstance(e, BinOp):
        return {"op": e.op, "lhs": _expr_to_obj(e.lhs), "rhs": _expr_to_obj(e.rhs)}
    raise ExprTypeError(f"cannot serialize {e!r}")


def _field(obj: object, key: str, kind: type | tuple[type, ...] = object):
    """``obj[key]`` checked to be a ``kind``; a ValueError naming the key otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"spec JSON: expected an object with key {key!r}, "
                         f"got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"spec JSON: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"spec JSON: key {key!r} has type {type(value).__name__}")
    return value


def _ints(obj: object, key: str) -> tuple[int, ...]:
    values = _field(obj, key, list)
    if not all(isinstance(v, int) for v in values):
        raise ValueError(f"spec JSON: key {key!r} must hold integers")
    return tuple(values)


def _expr_from_obj(obj: object) -> Expr:
    if not isinstance(obj, dict):
        raise ValueError(f"bad expression node {obj!r}")
    if "int" in obj:
        return IntLit(_field(obj, "int", int))
    if "name" in obj:
        return Name(_field(obj, "name", str))
    if "op" in obj:
        return BinOp(_field(obj, "op", str), _expr_from_obj(_field(obj, "lhs")),
                     _expr_from_obj(_field(obj, "rhs")))
    raise ValueError(f"bad expression node {obj!r}")


def _arg_to_obj(arg: Arg) -> object:
    if isinstance(arg, MemoryRef):
        return {"memory": {"input": arg.input, "row": _expr_to_obj(arg.row),
                           "col": _expr_to_obj(arg.col)}}
    if isinstance(arg, CallRef):
        return {"call": {"func": arg.func, "coords": [_expr_to_obj(c) for c in arg.coords],
                         "index": arg.index}}
    return {"const": arg.value}


def _arg_from_obj(obj: object) -> Arg:
    if not isinstance(obj, dict):
        raise ValueError(f"bad argument {obj!r}")
    if "memory" in obj:
        d = obj["memory"]
        return MemoryRef(_field(d, "input", str), _expr_from_obj(_field(d, "row")),
                         _expr_from_obj(_field(d, "col")))
    if "call" in obj:
        d = obj["call"]
        return CallRef(_field(d, "func", str),
                       tuple(_expr_from_obj(c) for c in _field(d, "coords", list)),
                       _field(d, "index", int))
    if "const" in obj:
        return ConstRef(float(_field(obj, "const", (int, float))))
    raise ValueError(f"bad argument {obj!r}")


def _directive_to_obj(d: Directive) -> object:
    if isinstance(d, ChannelDirective):
        return {"channel": list(d.callees)}
    if isinstance(d, UnrollDirective):
        return {"unroll": d.var}
    if isinstance(d, RelayDirective):
        return {"relay": {"source": d.source, "indices": list(d.indices),
                          "vector": list(d.vector)}}
    return {"store": {"indices": list(d.indices), "condition": _expr_to_obj(d.condition)}}


def _directive_from_obj(obj: object) -> Directive:
    if not isinstance(obj, dict):
        raise ValueError(f"bad directive {obj!r}")
    if "channel" in obj:
        return ChannelDirective(tuple(_field(obj, "channel", list)))
    if "unroll" in obj:
        return UnrollDirective(_field(obj, "unroll", str))
    if "relay" in obj:
        d = obj["relay"]
        return RelayDirective(_field(d, "source", str), _ints(d, "indices"), _ints(d, "vector"))
    if "store" in obj:
        d = obj["store"]
        return StoreDirective(_ints(d, "indices"), _expr_from_obj(_field(d, "condition")))
    raise ValueError(f"bad directive {obj!r}")


def spec_to_json(spec: SpatialSpec) -> str:
    obj = {
        "schema": SPEC_SCHEMA,
        "constants": list(spec.constants),
        "inputs": list(spec.inputs),
        "funcs": [
            {
                "name": f.name,
                "dims": list(f.dims),
                "bounds": [
                    {"var": b.var, "lower": _expr_to_obj(b.lower), "step": b.step,
                     "upper": _expr_to_obj(b.upper)}
                    for b in f.bounds
                ],
                "tuple_arity": f.tuple_arity,
                "cases": [
                    {"label": c.label, "guard": _expr_to_obj(c.guard), "kernel": c.kernel,
                     "args": [_arg_to_obj(a) for a in c.args]}
                    for c in f.cases
                ],
                "directives": [_directive_to_obj(d) for d in f.directives],
                "cell_map": [
                    None if cell is None
                    else {"row": _expr_to_obj(cell[0]), "col": _expr_to_obj(cell[1])}
                    for cell in f.cell_map
                ],
            }
            for f in spec.funcs
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def spec_from_json(text: str) -> SpatialSpec:
    """Parse :func:`spec_to_json` output; malformed input raises ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"spec JSON: expected an object, got {type(obj).__name__}")
    if obj.get("schema") != SPEC_SCHEMA:
        raise ValueError(f"unsupported spec schema {obj.get('schema')!r}")
    funcs = []
    for f in _field(obj, "funcs", list):
        funcs.append(FuncSpec(
            name=_field(f, "name", str),
            dims=tuple(_field(f, "dims", list)),
            bounds=tuple(
                BoundSpec(_field(b, "var", str), _expr_from_obj(_field(b, "lower")),
                          _field(b, "step", int), _expr_from_obj(_field(b, "upper")))
                for b in _field(f, "bounds", list)
            ),
            tuple_arity=_field(f, "tuple_arity", int),
            cases=tuple(
                RecurrenceCase(_field(c, "label", str), _expr_from_obj(_field(c, "guard")),
                               _field(c, "kernel", str),
                               tuple(_arg_from_obj(a) for a in _field(c, "args", list)))
                for c in _field(f, "cases", list)
            ),
            directives=tuple(_directive_from_obj(d) for d in _field(f, "directives", list)),
            cell_map=tuple(
                None if cell is None
                else (_expr_from_obj(_field(cell, "row")), _expr_from_obj(_field(cell, "col")))
                for cell in _field(f, "cell_map", list)
            ),
        ))
    return SpatialSpec(
        constants=tuple(_field(obj, "constants", list)),
        inputs=tuple(_field(obj, "inputs", list)),
        funcs=tuple(funcs),
    )
