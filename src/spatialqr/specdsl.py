"""Spatial program specifications: functions, recurrences, and directives.

A :class:`SpatialSpec` is a purely declarative object: named functions with
tuple-valued piecewise recurrences over integer loop variables, inclusive
``lower:step:upper`` bounds that may reference outer variables, and the
scheduling directives (unroll, relay, store) that the simulator interprets.
:data:`KERNELS` is the one table of the kernels a case can fire.
:func:`builtin_qr_spec` returns the Givens-QR program over an augmented input
matrix; :func:`walk` evaluates any spec at concrete constants, checking it
exhaustively on the way.  The walk runs, per function, a walker generated from
the spec's expressions and compiled once per spec object; the expression
interpreter :func:`eval_expr` evaluates only the functions the generator
rejects, and reports their violations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Union

from spatialqr import numeric


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

# kernel tag -> (function, input arity, output tuple arity)
KERNELS: dict[str, tuple[Callable[..., tuple[float, ...]], int, int]] = {
    KERNEL_ELIMINATE: (numeric.kernel_eliminate, 2, 4),
    KERNEL_UPDATE: (numeric.kernel_update, 4, 2),
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
class UnrollDirective:
    var: str


@dataclass(frozen=True)
class RelayDirective:
    """Forward the rotation pair every case reads, hop by hop along ``vector``."""

    vector: tuple[int, ...]


@dataclass(frozen=True)
class StoreDirective:
    """Emit selected tuple elements as final results when ``condition`` holds."""

    indices: tuple[int, ...]
    condition: Expr


Directive = Union[UnrollDirective, RelayDirective, StoreDirective]


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

    def pair_reads(self, case: RecurrenceCase) -> dict[int, CallRef]:
        """Per port, the arguments of ``case`` that read a rotation pair: element
        0 or 1 of a function whose every case eliminates."""
        eliminators = {f.name for f in self.funcs
                       if f.cases and all(c.kernel == KERNEL_ELIMINATE for c in f.cases)}
        return {port: a for port, a in enumerate(case.args)
                if isinstance(a, CallRef) and a.func in eliminators and a.index in (0, 1)}

    @cached_property
    def walkers(self) -> tuple["_Walker | None", ...]:
        """Per function, its compiled walker, or None where the interpreter walks it.

        Derived state of this frozen spec, generated on first use.
        """
        return tuple(_compile_walker(self, func) for func in self.funcs)


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
            UnrollDirective("col"),
            UnrollDirective("row"),
            UnrollDirective("k"),
            RelayDirective((0, 0, 1)),
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


@dataclass(frozen=True, slots=True)
class Firing:
    """One iteration point as :func:`walk` resolved it at concrete constants."""

    func: str
    coords: tuple[int, ...]
    case: RecurrenceCase
    sources: tuple[tuple[int, ...] | None, ...]  # per arg: memory (row, col), callee coords, None
    cells: tuple[int, ...]  # flat (tuple index, row, col) triples, one per cell_map entry
    stores: tuple[int, ...]  # likewise, for the elements the store directives drain here


def validate(spec: SpatialSpec, m: int, n: int) -> ValidationReport:
    """Exhaustively check the spec at concrete constants; see :func:`walk`."""
    report = ValidationReport(m, n)
    for _ in walk(spec, m, n, report):
        pass
    return report


def walk(spec: SpatialSpec, m: int, n: int, report: ValidationReport) -> Iterator[Firing]:
    """Evaluate the spec at every iteration point, checking it on the way.

    Appends every violation to ``report`` rather than stopping at the first:
    structural problems (repeated or unknown names, bounds that do not name
    the dims, bad indices, malformed relay vectors, rotation pairs not read
    or relayed whole), guard exclusivity/exhaustiveness over each domain,
    call coordinates that land outside the callee's domain, and memory
    references, cell-map entries and store conditions that cannot be
    evaluated or point outside the M x (N+1) input.  Yields a :class:`Firing` for each point with
    exactly one firing case, in function then loop-nest order; they
    describe the spec only if ``report`` ends ok.

    Each function runs its compiled walker (:attr:`SpatialSpec.walkers`).
    A walker accepts only points with nothing to report; at the first other
    point it gives up, and the interpreter walks that function again from
    its first point, so the violations and their order are the interpreter's.
    """
    if m < 1 or n < 1:
        raise ValueError(f"constants must be >= 1, got M={m}, N={n}")
    consts = {"M": m, "N": n}
    walkers = spec.walkers

    names = [f.name for f in spec.funcs]
    for name in dict.fromkeys(names):
        if names.count(name) > 1:
            report.violations.append(Violation("func-duplicate", name, None,
                                               f"{names.count(name)} functions have this name"))
    # only the first function of each name is walked
    funcs = [(f, w) for k, (f, w) in enumerate(zip(spec.funcs, walkers))
             if names.index(f.name) == k]

    orders: dict[str, list[tuple[int, ...]]] = {}
    domains: dict[str, set[tuple[int, ...]]] = {}
    for func, walker in funcs:
        if walker is not None:
            pts = walker.domain(m, n)
        elif not _bounds_match(func):
            pts = []  # bounds-shape, reported below
        else:
            try:
                pts = enumerate_domain(func, consts)
            except (UnboundNameError, ExprTypeError) as exc:
                report.violations.append(Violation("bound-eval", func.name, None,
                                                   f"cannot enumerate bounds: {exc}"))
                pts = []
        orders[func.name] = pts
        domains[func.name] = set(pts)

    for func, walker in funcs:
        _validate_structure(spec, func, report)
        firings = None
        if walker is not None:
            firings = walker.fire(m, n, orders[func.name],
                                  tuple(domains[name] for name in walker.callees),
                                  func.cases, func.name)
        if firings is None:
            firings = _interpret(spec, func, orders[func.name], domains, consts, report)
        yield from firings


def _interpret(
    spec: SpatialSpec,
    func: FuncSpec,
    points: list[tuple[int, ...]],
    domains: dict[str, set[tuple[int, ...]]],
    consts: dict[str, int],
    report: ValidationReport,
) -> Iterator[Firing]:
    """:func:`walk` over one function by the expression interpreter."""
    m, n = consts["M"], consts["N"]
    bad = report.violations.append
    store_directives = func.stores()
    for point in points:
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
        _, in_arity, _ = KERNELS.get(case.kernel, (None, None, None))
        if in_arity is None:
            bad(Violation("kernel-unknown", func.name, point,
                          f"case {case.label}: no kernel {case.kernel!r}"))
        elif len(case.args) != in_arity:
            bad(Violation(
                "arg-arity", func.name, point,
                f"case {case.label}: kernel {case.kernel} takes {in_arity} args, got {len(case.args)}",
            ))
        sources: list[tuple[int, ...] | None] = [None] * len(case.args)
        for slot, arg in enumerate(case.args):
            if isinstance(arg, MemoryRef):
                if arg.input not in spec.inputs:
                    bad(Violation("memref-unknown-input", func.name, point,
                                  f"case {case.label} arg {slot}: no input {arg.input!r}"))
                try:
                    pos = (eval_expr(arg.row, bindings), eval_expr(arg.col, bindings))
                except (UnboundNameError, ExprTypeError) as exc:
                    bad(Violation("memref-eval", func.name, point,
                                  f"case {case.label} arg {slot}: {exc}"))
                    continue
                if not (1 <= pos[0] <= m and 1 <= pos[1] <= n + 1):
                    bad(Violation("memref-out-of-range", func.name, point,
                                  f"case {case.label} arg {slot}: {arg.input}{pos} "
                                  f"is outside the {m}x{n + 1} input"))
                sources[slot] = pos
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
                sources[slot] = target

        cells: dict[int, tuple[int, int]] = {}
        for idx, cell in enumerate(func.cell_map):
            if cell is None:
                continue
            try:
                pos = (eval_expr(cell[0], bindings), eval_expr(cell[1], bindings))
            except (UnboundNameError, ExprTypeError) as exc:
                bad(Violation("cell-eval", func.name, point, f"cell_map[{idx}]: {exc}"))
                continue
            if not (1 <= pos[0] <= m and 1 <= pos[1] <= n + 1):
                bad(Violation("cell-out-of-range", func.name, point,
                              f"cell_map[{idx}] {pos} is outside the {m}x{n + 1} input"))
            cells[idx] = pos
        stores: list[int] = []
        for directive in store_directives:
            try:
                holds = eval_expr(directive.condition, bindings) is True
            except (UnboundNameError, ExprTypeError) as exc:
                bad(Violation("cell-eval", func.name, point, f"store condition: {exc}"))
                continue
            if holds:
                # an index without a resolved cell is already a violation
                stores.extend(v for idx in directive.indices if idx in cells
                              for v in (idx, *cells[idx]))
        yield Firing(func.name, point, case, tuple(sources),
                     tuple(v for idx, pos in cells.items() for v in (idx, *pos)),
                     tuple(stores))


# --- generated walkers ----------------------------------------------------------------

# the expression language's operators, spelled in Python
_PY_OPS = {"+": "+", "-": "-", "*": "*", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
           "&&": "and"}
# deeper expressions are left to the interpreter; CPython's parser stops at 200
# nested parentheses
_MAX_DEPTH = 64


class _Unlowerable(Exception):
    """The generator leaves this function to the interpreter."""


@dataclass(frozen=True)
class _Walker:
    """One function's compiled walk; see :func:`_walker_source`."""

    domain: Callable[[int, int], list[tuple[int, ...]]]
    fire: Callable[..., list[Firing] | None]
    callees: tuple[str, ...]  # whose domains ``fire`` checks calls against, in order


def _compile_walker(spec: SpatialSpec, func: FuncSpec) -> _Walker | None:
    """Generate and compile ``func``'s walker; None leaves it to the interpreter."""
    try:
        source, callees = _walker_source(spec, func)
        namespace: dict = {"__builtins__": {}, "range": range, "Firing": Firing}
        exec(compile(source, "<spatialqr walker>", "exec"), namespace)
    except (_Unlowerable, SyntaxError, ValueError, RecursionError, MemoryError):
        return None
    return _Walker(namespace["domain"], namespace["fire"], callees)


def _lower_expr(e: Expr, slots: Mapping[str, str], depth: int = 0) -> tuple[str, type]:
    """Python source for ``e`` and its static type, int or bool.

    The source holds only text the generator chose: a name becomes its local
    slot, an int literal (``type(v) is int``) its repr, an operator one of
    :data:`_PY_OPS`.  Whatever the interpreter might reject, a boolean in
    arithmetic for one, raises :class:`_Unlowerable`; a well-typed
    expression cannot fail, so evaluating it needs no checks.
    """
    if depth > _MAX_DEPTH:
        raise _Unlowerable
    if isinstance(e, IntLit):
        if type(e.value) is int:
            return f"({e.value!r})", int
        if type(e.value) is bool:
            return repr(e.value), bool
    elif isinstance(e, Name):
        if isinstance(e.name, str) and e.name in slots:
            return slots[e.name], int
    elif isinstance(e, BinOp) and isinstance(e.op, str) and e.op in _PY_OPS:
        lhs, lhs_type = _lower_expr(e.lhs, slots, depth + 1)
        rhs, rhs_type = _lower_expr(e.rhs, slots, depth + 1)
        operand = bool if e.op == "&&" else int
        if lhs_type is operand and rhs_type is operand:
            result = int if e.op in _ARITH_OPS else bool
            return f"({lhs} {_PY_OPS[e.op]} {rhs})", result
    raise _Unlowerable


def _typed(e: Expr, slots: Mapping[str, str], kind: type) -> str:
    source, actual = _lower_expr(e, slots)
    if actual is not kind:
        raise _Unlowerable
    return source


def _walker_source(spec: SpatialSpec, func: FuncSpec) -> tuple[str, tuple[str, ...]]:
    """Source of ``domain(m, n)`` and ``fire(m, n, points, domains, cases, name)``.

    ``domain`` lists the iteration points in loop-nest order.  ``fire``
    returns one :class:`Firing` per point, or None at the first point that
    the interpreter would report on: no or several guards holding, a memory
    reference or a cell outside the input, a call outside its callee's
    domain.  Everything else the interpreter checks is static, and a
    function that fails it is not lowered.  Constants, loop variables,
    callee domains and cases are locals named by position, so no text of the
    spec reaches the source.
    """
    if (not func.cases or any(type(d) is not str for d in func.dims)
            or any(type(b.step) is not int for b in func.bounds)
            or any(type(i) is not int for d in func.stores() for i in d.indices)):
        raise _Unlowerable
    structure = ValidationReport(0, 0)
    _validate_structure(spec, func, structure)
    if structure.violations:
        raise _Unlowerable
    rank = len(func.dims)
    point = "".join(f"d{i}, " for i in range(rank))
    slots = {"M": "m", "N": "n"}

    lines = ["def domain(m, n):", "    points = []", "    add = points.append"]
    for i, bound in enumerate(func.bounds):
        end = "+ 1" if bound.step > 0 else "- 1"
        lines.append(f"{'    ' * (i + 1)}for d{i} in range({_typed(bound.lower, slots, int)}, "
                     f"{_typed(bound.upper, slots, int)} {end}, ({bound.step!r})):")
        slots[func.dims[i]] = f"d{i}"
    lines += [f"{'    ' * (rank + 1)}add(({point}))", "    return points"]

    callees: dict[str, int] = {}
    body: list[str] = []

    def within(row: str, col: str) -> str:
        return f"if not (1 <= {row} <= m and 1 <= {col} <= n + 1): return None"

    guards = [_typed(case.guard, slots, bool) for case in func.cases]
    body += [f"g{j} = {g}" for j, g in enumerate(guards)]
    body.append(f"if {' + '.join(f'g{j}' for j in range(len(guards)))} != 1: return None")
    cells = []
    for idx, cell in enumerate(func.cell_map):
        if cell is not None:
            body.append(f"r{idx} = {_typed(cell[0], slots, int)}")
            body.append(f"c{idx} = {_typed(cell[1], slots, int)}")
            body.append(within(f"r{idx}", f"c{idx}"))
            cells.append(f"{idx}, r{idx}, c{idx}, ")
    body.append(f"cells = ({''.join(cells)})")
    body.append("stores = ()")
    for directive in func.stores():
        stored = "".join(f"{idx}, r{idx}, c{idx}, " for idx in directive.indices)
        body.append(f"if {_typed(directive.condition, slots, bool)}: stores += ({stored})")
    for j, case in enumerate(func.cases):
        _, arity, _ = KERNELS.get(case.kernel, (None, None, None))
        if arity != len(case.args):
            raise _Unlowerable
        body.append(f"{'if' if j == 0 else 'elif'} g{j}:")
        sources = []
        for slot, arg in enumerate(case.args):
            if isinstance(arg, MemoryRef):
                if arg.input not in spec.inputs:
                    raise _Unlowerable
                body.append(f"    a{slot} = ({_typed(arg.row, slots, int)}, "
                            f"{_typed(arg.col, slots, int)})")
                body.append("    " + within(f"a{slot}[0]", f"a{slot}[1]"))
            elif isinstance(arg, CallRef):
                if not spec.has_func(arg.func):
                    raise _Unlowerable
                callee = spec.func(arg.func)
                if not 0 <= arg.index < callee.tuple_arity or len(arg.coords) != len(callee.dims):
                    raise _Unlowerable
                coords = "".join(f"{_typed(c, slots, int)}, " for c in arg.coords)
                dom = callees.setdefault(arg.func, len(callees))
                body.append(f"    a{slot} = ({coords})")
                body.append(f"    if a{slot} not in dom{dom}: return None")
            elif isinstance(arg, ConstRef):
                body.append(f"    a{slot} = None")
            else:
                raise _Unlowerable
            sources.append(f"a{slot}, ")
        body.append(f"    add(Firing(name, point, case{j}, ({''.join(sources)}), cells, stores))")

    lines += [
        "def fire(m, n, points, domains, cases, name):",
        f"    ({''.join(f'dom{k}, ' for k in range(len(callees)))}) = domains",
        f"    ({''.join(f'case{j}, ' for j in range(len(func.cases)))}) = cases",
        "    out = []",
        "    add = out.append",
        "    for point in points:",
        f"        ({point}) = point",
        *("        " + line for line in body),
        "    return out",
    ]
    return "\n".join(lines) + "\n", tuple(callees)


def _bounds_match(func: FuncSpec) -> bool:
    return [b.var for b in func.bounds] == list(func.dims) and len(set(func.dims)) == len(func.dims)


def _validate_structure(spec: SpatialSpec, func: FuncSpec, report: ValidationReport) -> None:
    bad = report.violations.append
    if not _bounds_match(func):
        bad(Violation("bounds-shape", func.name, None,
                      "bounds must name each dim once, in dim order"))
    if func.cell_map and len(func.cell_map) != func.tuple_arity:
        bad(Violation("cell-map-arity", func.name, None,
                      f"cell_map has {len(func.cell_map)} entries for arity {func.tuple_arity}"))
    for case in func.cases:
        kernel = KERNELS.get(case.kernel)  # an unknown kernel is reported where it fires
        if kernel is not None and kernel[2] != func.tuple_arity:
            bad(Violation("kernel-output-arity", func.name, None,
                          f"case {case.label}: kernel {case.kernel} returns {kernel[2]} "
                          f"values, not tuple arity {func.tuple_arity}"))
    for d in func.directives:
        if isinstance(d, UnrollDirective):
            if d.var not in func.dims:
                bad(Violation("unroll-unknown-dim", func.name, None,
                              f"unroll names unknown dim {d.var!r}"))
        elif isinstance(d, RelayDirective):
            # the pair relayed is the one each case reads, so every case reads a pair,
            # and all of them one function's
            reads = [[a.func for a in spec.pair_reads(c).values()] for c in func.cases]
            unread = [c.label for c, funcs in zip(func.cases, reads) if not funcs]
            read = list(dict.fromkeys(f for funcs in reads for f in funcs))
            if unread or len(read) > 1:
                why = (f"case {unread[0]} reads no rotation pair" if unread
                       else f"cases read the rotation pairs of {', '.join(map(str, read))}")
                bad(Violation("relay-pair-mismatch", func.name, None, f"relay: {why}"))
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
                elif idx >= len(func.cell_map) or func.cell_map[idx] is None:
                    bad(Violation("store-no-cell", func.name, None,
                                  f"store index {idx} has no output cell"))
    for case in func.cases:
        reads = list(spec.pair_reads(case).values())
        if reads and not (len(reads) == 2 and reads[0].index != reads[1].index
                          and (reads[0].func, reads[0].coords) == (reads[1].func, reads[1].coords)):
            names = ", ".join(f"{a.func}.{a.index}" for a in reads)
            bad(Violation("pair-shape", func.name, None, f"case {case.label} reads {names}: a "
                          "rotation pair is read as one .0 and one .1 at the same coordinates"))


# --- JSON serialization ------------------------------------------------------------

SPEC_SCHEMA = 2


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
    if isinstance(d, UnrollDirective):
        return {"unroll": d.var}
    if isinstance(d, RelayDirective):
        return {"relay": {"vector": list(d.vector)}}
    return {"store": {"indices": list(d.indices), "condition": _expr_to_obj(d.condition)}}


def _directive_from_obj(obj: object) -> Directive:
    if not isinstance(obj, dict):
        raise ValueError(f"bad directive {obj!r}")
    if "unroll" in obj:
        return UnrollDirective(_field(obj, "unroll", str))
    if "relay" in obj:
        return RelayDirective(_ints(obj["relay"], "vector"))
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
