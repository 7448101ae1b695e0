"""Spatial program specifications: functions, recurrences, and directives.

A :class:`SpatialSpec` is a purely declarative tuple of functions.  Each
holds tuple-valued piecewise recurrences over integer loop variables, the
inclusive ``lower:step:upper`` bounds that name those variables, outermost
first, and may reference outer ones, and its three spatial directives: the
dims kept unrolled, the relay vector and the stores.  A case's arguments are
calls and memory references, which read the one augmented input A', and M and
N are the only constants.  :data:`KERNELS` is the one table of the kernels.
:func:`builtin_qr_spec` returns the Givens-QR program; :func:`walk`
evaluates any spec at concrete constants, checking it exhaustively on the
way.  Each expression has one meaning, the Python text it is lowered to:
per function, the static checks (names, types, references) run once and a
walker is generated and compiled, both once per spec object, and the walker
is the only thing that evaluates the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Union

from spatialqr import numeric


class ExprTypeError(ValueError):
    """An expression names nothing in scope or combines operands of the wrong kind."""


class _TooDeep(ExprTypeError):
    """An expression is nested deeper than :data:`_MAX_DEPTH`."""


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


def as_expr(value: Union[Expr, int]) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return IntLit(value)
    raise ExprTypeError(f"cannot use {value!r} as an expression")


# --- bounds and domains -----------------------------------------------------

@dataclass(frozen=True)
class BoundSpec:
    """Inclusive ``lower:step:upper`` range for one loop variable."""

    var: str
    lower: Expr
    step: int
    upper: Expr

    def __post_init__(self) -> None:
        if type(self.step) is not int or self.step == 0:
            raise ValueError(f"bound for {self.var!r} has step {self.step!r}, not a nonzero int")


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
    """Load from the augmented input :data:`A_PRIME` at (row, col)."""

    row: Expr
    col: Expr


@dataclass(frozen=True)
class CallRef:
    """One element of another iteration's returned tuple."""

    func: str
    coords: tuple[Expr, ...]
    index: int


Arg = Union[MemoryRef, CallRef]


@dataclass(frozen=True)
class RecurrenceCase:
    """One guarded definition: when ``guard`` holds, fire ``kernel(args...)``."""

    label: str
    guard: Expr
    kernel: str
    args: tuple[Arg, ...]


# --- functions and the whole spec ----------------------------------------------

@dataclass(frozen=True)
class StoreDirective:
    """Emit selected tuple elements as final results when ``condition`` holds."""

    indices: tuple[int, ...]
    condition: Expr


@dataclass(frozen=True)
class FuncSpec:
    """A tuple-valued function over an integer iteration domain.

    ``unroll`` names the dims kept spatial, one PE per value; ``relay``, when
    set, forwards the rotation pair every case reads hop by hop along that
    vector; ``stores`` drain final results.  ``cell_map`` records, per tuple
    index, which input-matrix cell, one (row, col) pair, that element is the
    updated value of (or None for pure parameters such as the rotation
    coefficients); it drives result drains and trace rendering.
    """

    name: str
    bounds: tuple[BoundSpec, ...]
    tuple_arity: int
    cases: tuple[RecurrenceCase, ...]
    unroll: tuple[str, ...] = ()
    relay: tuple[int, ...] | None = None
    stores: tuple[StoreDirective, ...] = ()
    cell_map: tuple[tuple[Expr, Expr] | None, ...] = ()

    @property
    def dims(self) -> tuple[str, ...]:
        """The loop variables, outermost first: each bound's ``var``."""
        return tuple(b.var for b in self.bounds)


@dataclass(frozen=True)
class SpatialSpec:
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
        eliminators = {f.name for f in self.funcs if isinstance(f.cases, tuple) and f.cases
                       and all(isinstance(c, RecurrenceCase) and c.kernel == KERNEL_ELIMINATE
                               for c in f.cases)}
        return {port: a for port, a in enumerate(case.args)
                if isinstance(a, CallRef) and a.func in eliminators and a.index in (0, 1)}

    @cached_property
    def walkers(self) -> tuple["_Walker", ...]:
        """Per function, its static faults and compiled walker.

        Derived state of this frozen spec, generated on first use.
        """
        return tuple(_compile_walker(self, func) for func in self.funcs)


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
            (MemoryRef(M, one), MemoryRef(M - 1, one)),
        ),
        RecurrenceCase(
            "b",
            COL.eq(1) & ROW.ne(M),
            KERNEL_ELIMINATE,
            (CallRef("X", (one, ROW + 1), 3), MemoryRef(ROW - 1, one)),
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
        bounds=(
            BoundSpec("col", IntLit(1), 1, N),
            BoundSpec("row", M, -1, COL + 1),
        ),
        tuple_arity=4,
        cases=x_cases,
        unroll=("col", "row"),
        stores=(StoreDirective((3,), ROW.eq(COL + 1)),),
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
                MemoryRef(M, K),
                MemoryRef(M - 1, K),
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
                MemoryRef(ROW - 1, K),
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
        bounds=(
            BoundSpec("col", IntLit(1), 1, N),
            BoundSpec("row", M, -1, COL + 1),
            BoundSpec("k", COL + 1, 1, N + 1),
        ),
        tuple_arity=2,
        cases=y_cases,
        unroll=("col", "row", "k"),
        relay=(0, 0, 1),
        stores=(StoreDirective((1,), ROW.eq(COL + 1)),
                StoreDirective((0,), ROW.eq(COL + 1) & ROW.eq(M))),
        cell_map=((ROW, K), (ROW - 1, K)),
    )

    return SpatialSpec((x, y))


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

    Appends every violation to ``report`` rather than stopping at the first.
    The static ones come once per function, with no coordinates: structural
    problems (repeated or unknown names, loop variables that repeat, bad
    argument kinds, indices, arities and ranks, malformed relay vectors,
    rotation pairs not read or relayed whole), and expressions that name
    something out of scope, have the wrong type or nest too deep.  The dynamic
    ones come per point: guard exclusivity/exhaustiveness over each domain,
    call coordinates outside the callee's domain, memory references and cells
    outside the M x (N+1) input, and a result position stored again, by any
    function earlier in walk order or by the same point.  Yields a
    :class:`Firing` per point with exactly one firing case, in function then
    loop-nest order; they describe the spec only if ``report`` ends ok.

    Each function runs its compiled walker (:attr:`SpatialSpec.walkers`),
    which reports each dynamic violation but ``store-duplicate`` through a
    ``bad`` callback.
    """
    if m < 1 or n < 1:
        raise ValueError(f"constants must be >= 1, got M={m}, N={n}")
    names = [f.name for f in spec.funcs]
    for name in dict.fromkeys(names):
        if names.count(name) > 1:
            report.violations.append(Violation("func-duplicate", name, None,
                                               f"{names.count(name)} functions have this name"))
    # only the first function of each name is walked
    funcs = [(f, w) for k, (f, w) in enumerate(zip(spec.funcs, spec.walkers))
             if names.index(f.name) == k]
    orders = {func.name: walker.domain(m, n) for func, walker in funcs}
    domains = {name: set(points) for name, points in orders.items()}
    stored: set[tuple[int, int]] = set()  # the result positions stored so far

    for func, walker in funcs:
        report.violations.extend(walker.faults)

        def bad(site: int, point: tuple[int, ...], value: tuple) -> None:
            rule, prefix = walker.sites[site]
            if rule == "guard-gap":  # value holds every guard
                held = [str(c.label) for c, g in zip(func.cases, value) if g]
                message = f"cases {', '.join(held)} all hold" if held else "no case guard holds"
                rule = "guard-overlap" if held else rule
            elif rule == "callref-out-of-domain":
                message = f"{prefix}{value} is outside its domain"
            else:
                message = f"{prefix}{value} is outside the {m}x{n + 1} input"
            report.violations.append(Violation(rule, func.name, point, message))

        firings = walker.fire(m, n, orders[func.name],
                              tuple(domains[name] for name in walker.callees),
                              func.cases, func.name, bad)
        for firing in [f for f in firings if f.stores]:  # most firings store nothing
            for position in zip(firing.stores[1::3], firing.stores[2::3]):
                if position in stored:
                    report.violations.append(Violation(
                        "store-duplicate", func.name, firing.coords,
                        f"result position {position} is stored again"))
                stored.add(position)
        yield from firings


# --- generated walkers ----------------------------------------------------------------

# the expression language's operators, spelled in Python
_PY_OPS = {"+": "+", "-": "-", "*": "*", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
           "&&": "and"}
# deeper expressions are an expr-depth violation; CPython's parser stops at 200
# nested parentheses
_MAX_DEPTH = 64


@dataclass(frozen=True)
class _Walker:
    """One function's static faults and compiled walk; see :func:`_walker_source`."""

    domain: Callable[[int, int], list[tuple[int, ...]]]
    fire: Callable[..., list[Firing]]
    callees: tuple[str, ...]  # whose domains ``fire`` checks calls against, in order
    faults: tuple[Violation, ...]
    sites: tuple[tuple[str, str], ...]  # per site ``fire`` passes to ``bad``: rule, message prefix


def _compile_walker(spec: SpatialSpec, func: FuncSpec) -> _Walker:
    """Check ``func`` statically, then generate and compile its walker."""
    faults = _validate_structure(spec, func)
    sites: list[tuple[str, str]] = []
    source, callees = _walker_source(spec, func, faults, sites)
    namespace: dict = {"__builtins__": {}, "range": range, "Firing": Firing}
    exec(compile(source, "<spatialqr walker>", "exec"), namespace)
    return _Walker(namespace["domain"], namespace["fire"], callees, tuple(faults), tuple(sites))


def _lower_expr(e: Expr, slots: Mapping[str, str], depth: int = 0) -> tuple[str, type]:
    """Python source for ``e`` and its static type, int or bool.

    The source holds only text the generator chose: a name becomes its local
    slot, an int literal (``type(v) is int``) its repr, an operator one of
    :data:`_PY_OPS`.  An expression that does not type-check raises
    :class:`ExprTypeError` for its first fault in evaluation order (operands
    before their operator): a name with no slot, an unknown operator or
    node, a boolean in arithmetic or a comparison, an integer under ``&&``.
    A well-typed expression cannot fail, so evaluating it needs no checks.
    """
    if depth > _MAX_DEPTH:
        raise _TooDeep(f"nested more than {_MAX_DEPTH} deep")
    if isinstance(e, IntLit):
        if type(e.value) is int:
            return f"({e.value!r})", int
        if type(e.value) is bool:
            return repr(e.value), bool
    elif isinstance(e, Name):
        if isinstance(e.name, str) and e.name in slots:
            return slots[e.name], int
        raise ExprTypeError(e.name)
    elif isinstance(e, BinOp):
        lhs, lhs_type = _lower_expr(e.lhs, slots, depth + 1)
        rhs, rhs_type = _lower_expr(e.rhs, slots, depth + 1)
        if isinstance(e.op, str) and e.op in _PY_OPS:
            if e.op == "&&":
                if lhs_type is not bool or rhs_type is not bool:
                    raise ExprTypeError("&& needs boolean operands")
            elif lhs_type is not int or rhs_type is not int:
                kind = "arithmetic" if e.op in _ARITH_OPS else "comparison"
                raise ExprTypeError(f"{kind} {e.op} on boolean operand")
            result = int if e.op in _ARITH_OPS else bool
            return f"({lhs} {_PY_OPS[e.op]} {rhs})", result
    raise ExprTypeError(f"unknown expression node {e!r}")


def _walker_source(spec: SpatialSpec, func: FuncSpec, faults: list[Violation] | None = None,
                   sites: list[tuple[str, str]] | None = None) -> tuple[str, tuple[str, ...]]:
    """Source of ``domain(m, n)`` and ``fire(m, n, points, domains, cases, name, bad)``.

    ``domain`` lists the iteration points in loop-nest order.  ``fire``
    returns one :class:`Firing` per point.  It calls ``bad(site, point,
    value)`` at each dynamic violation: no or several guards holding, a
    memory reference or a cell outside the input, a call outside its
    callee's domain.  ``sites[site]`` is the violation's rule and message
    prefix, appended here; a guard violation skips the point.

    An expression that does not type-check is appended to ``faults`` and
    lowered as the walk treats it: a guard or store condition that never
    holds, a memory, call or cell coordinate that yields no source or cell, a
    bound that empties the domain.  Constants, loop variables, callee domains
    and cases are locals named by position, so no text of the spec reaches
    the source.
    """
    faults = [] if faults is None else faults
    sites = [] if sites is None else sites
    if _field_faults(func) or not _bounds_shaped(func):  # nothing to walk, nothing in scope
        return "def domain(m, n):\n    return []\ndef fire(*args):\n    return []\n", ()
    rank = len(func.dims)
    point = "".join(f"d{i}, " for i in range(rank))
    slots = {"M": "m", "N": "n"}

    def lowered(exprs, kind: type, rule: str, where: str) -> list[str] | None:
        """The sources of ``exprs``, or None once one is not a ``kind``, reported as ``rule``."""
        try:
            sources = [_lower_expr(e, slots) for e in exprs]
            for _, actual in sources:
                if actual is not kind:
                    raise ExprTypeError(f"{'a bool' if actual is bool else 'an int'} where "
                                        f"{'an int' if kind is int else 'a bool'} is needed")
        except ValueError as exc:  # an ExprTypeError, or an int literal too long to print
            faults.append(Violation("expr-depth" if isinstance(exc, _TooDeep) else rule,
                                    func.name, None, f"{where}: {exc}"))
            return None
        return [source for source, _ in sources]

    def fault(rule: str, prefix: str, value: str) -> str:
        """The statement that meets a dynamic violation of ``rule``."""
        sites.append((rule, prefix))
        return f"bad({len(sites) - 1}, point, {value})"

    def within(row: str, col: str, rule: str, prefix: str, value: str) -> str:
        return f"if not (1 <= {row} <= m and 1 <= {col} <= n + 1): {fault(rule, prefix, value)}"

    lines = ["def domain(m, n):", "    points = []", "    add = points.append"]
    loops = []
    for i, bound in enumerate(func.bounds):
        ends = lowered((bound.lower, bound.upper), int, "bound-eval", "cannot enumerate bounds")
        if ends is not None:
            loops.append(f"{'    ' * (i + 1)}for d{i} in range({ends[0]}, {ends[1]} "
                         f"{'+ 1' if bound.step > 0 else '- 1'}, ({bound.step!r})):")
        slots[bound.var] = f"d{i}"
    if len(loops) == rank:  # else a bound is bad and the domain empty
        lines += loops + [f"{'    ' * (rank + 1)}add(({point}))"]
    lines.append("    return points")

    callees: dict[str, int] = {}
    body: list[str] = []
    guards = [lowered((case.guard,), bool, "guard-eval", f"case {case.label}")
              for case in func.cases]
    body += [f"g{j} = {'False' if g is None else g[0]}" for j, g in enumerate(guards)]
    held = " + ".join(f"g{j}" for j in range(len(guards))) or "0"
    values = "".join(f"g{j}, " for j in range(len(guards)))
    body.append(f"if {held} != 1: {fault('guard-gap', '', f'({values})')}; continue")
    cells = {}
    for idx, cell in enumerate(func.cell_map):
        # an entry that is not one (row, col) pair is already a violation
        pos = (None if cell is None or len(cell) != 2
               else lowered(cell, int, "cell-eval", f"cell_map[{idx}]"))
        if pos is not None:
            body.append(f"r{idx} = {pos[0]}")
            body.append(f"c{idx} = {pos[1]}")
            body.append(within(f"r{idx}", f"c{idx}", "cell-out-of-range", f"cell_map[{idx}] ",
                               f"(r{idx}, c{idx})"))
            cells[idx] = f"{idx}, r{idx}, c{idx}, "
    body.append(f"cells = ({''.join(cells.values())})")
    body.append("stores = ()")
    for directive in func.stores:
        condition = lowered((directive.condition,), bool, "cell-eval", "store condition")
        # an index without a cell is already a violation
        stored = "".join(cells[idx] for idx in directive.indices
                         if type(idx) is int and idx in cells)
        if condition is not None:
            body.append(f"if {condition[0]}: stores += ({stored})")
    for j, case in enumerate(func.cases):
        body.append(f"{'if' if j == 0 else 'elif'} g{j}:")
        sources = []
        for slot, arg in enumerate(case.args):
            where, source = f"case {case.label} arg {slot}", None
            if isinstance(arg, MemoryRef):
                pos = lowered((arg.row, arg.col), int, "memref-eval", where)
                if pos is not None:
                    source = f"({pos[0]}, {pos[1]})"
                    check = within(f"a{slot}[0]", f"a{slot}[1]", "memref-out-of-range",
                                   f"{where}: {A_PRIME}", f"a{slot}")
            elif (isinstance(arg, CallRef) and _well_typed(spec, arg.func)
                  and len(arg.coords) == len(spec.func(arg.func).dims)):
                coords = lowered(arg.coords, int, "callref-eval", where)
                if coords is not None:
                    source = f"({''.join(f'{c}, ' for c in coords)})"
                    dom = callees.setdefault(arg.func, len(callees))
                    check = (f"if a{slot} not in dom{dom}: "
                             + fault("callref-out-of-domain", f"{where}: {arg.func}", f"a{slot}"))
            body.append(f"    a{slot} = {source or 'None'}")
            if source:
                body.append(f"    {check}")
            sources.append(f"a{slot}, ")
        body.append(f"    add(Firing(name, point, case{j}, ({''.join(sources)}), cells, stores))")

    lines += [
        "def fire(m, n, points, domains, cases, name, bad):",
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


def _field_faults(func: FuncSpec) -> list[Violation]:
    """A violation per field of ``func`` that is not of its declared type.

    The other checks and the walker read these fields, so a function with
    any of them is checked no further and walks nothing.
    """
    def tuple_of(value, kind) -> bool:
        return isinstance(value, tuple) and all(isinstance(v, kind) for v in value)

    cases = tuple_of(func.cases, RecurrenceCase)
    checks = (
        ("bounds-shape", tuple_of(func.bounds, BoundSpec), "bounds are not a tuple of BoundSpecs"),
        ("field-type", type(func.tuple_arity) is int,
         f"tuple_arity {func.tuple_arity!r} is not an int"),
        ("field-type", cases, "cases are not a tuple of RecurrenceCases"),
        ("field-type", not cases or all(isinstance(c.args, tuple) for c in func.cases),
         "a case's args are not a tuple"),
        ("kernel-unknown", not cases or all(isinstance(c.kernel, str) for c in func.cases),
         "a case's kernel is not a str"),
        ("field-type", isinstance(func.unroll, tuple), "unroll is not a tuple"),
        ("relay-vector", func.relay is None or tuple_of(func.relay, int),
         "relay is neither None nor a tuple of ints"),
        ("field-type", tuple_of(func.stores, StoreDirective)
         and all(isinstance(s.indices, tuple) for s in func.stores),
         "stores are not a tuple of StoreDirectives with tuple indices"),
        ("cell-map-arity", tuple_of(func.cell_map, (tuple, type(None))),
         "cell_map is not a tuple of tuples and Nones"),
    )
    return [Violation(rule, func.name, None, message) for rule, ok, message in checks if not ok]


def _well_typed(spec: SpatialSpec, name: str) -> bool:
    """Whether ``spec`` has a function ``name`` and its fields are of their types."""
    return spec.has_func(name) and not _field_faults(spec.func(name))


def _bounds_shaped(func: FuncSpec) -> bool:
    """Whether the bounds name distinct string dims, at most the 20 loops CPython nests."""
    dims = func.dims
    return all(type(d) is str for d in dims) and len(set(dims)) == len(dims) <= 20


def _validate_structure(spec: SpatialSpec, func: FuncSpec) -> list[Violation]:
    """``func``'s static faults but those of its expressions, which the generator reports."""
    faults = _field_faults(func)
    if faults:
        return faults
    bad = faults.append
    if not _bounds_shaped(func):
        bad(Violation("bounds-shape", func.name, None,
                      "bounds must name distinct dims, at most 20"))
    if func.cell_map and len(func.cell_map) != func.tuple_arity:
        bad(Violation("cell-map-arity", func.name, None,
                      f"cell_map has {len(func.cell_map)} entries for arity {func.tuple_arity}"))
    for idx, cell in enumerate(func.cell_map):
        if cell is not None and len(cell) != 2:
            bad(Violation("cell-map-arity", func.name, None,
                          f"cell_map[{idx}] has {len(cell)} coordinates, not (row, col)"))
    for case in func.cases:
        kernel = KERNELS.get(case.kernel)
        if kernel is None:
            bad(Violation("kernel-unknown", func.name, None,
                          f"case {case.label}: no kernel {case.kernel!r}"))
        elif kernel[1] != len(case.args):
            bad(Violation("arg-arity", func.name, None, f"case {case.label}: kernel "
                          f"{case.kernel} takes {kernel[1]} args, got {len(case.args)}"))
        if kernel is not None and kernel[2] != func.tuple_arity:
            bad(Violation("kernel-output-arity", func.name, None,
                          f"case {case.label}: kernel {case.kernel} returns {kernel[2]} "
                          f"values, not tuple arity {func.tuple_arity}"))
        for slot, arg in enumerate(case.args):
            where = f"case {case.label} arg {slot}"
            if not isinstance(arg, (MemoryRef, CallRef)):
                bad(Violation("arg-kind", func.name, None,
                              f"{where}: {type(arg).__name__} is not a MemoryRef or CallRef"))
            elif isinstance(arg, CallRef) and not spec.has_func(arg.func):
                bad(Violation("callref-unknown-func", func.name, None,
                              f"{where}: no function {arg.func!r}"))
            elif isinstance(arg, CallRef) and _well_typed(spec, arg.func):  # else faulted there
                callee = spec.func(arg.func)
                if not (type(arg.index) is int and 0 <= arg.index < callee.tuple_arity):
                    bad(Violation("callref-tuple-index", func.name, None, f"{where}: index "
                                  f"{arg.index} outside {arg.func}'s tuple arity {callee.tuple_arity}"))
                if len(arg.coords) != len(callee.dims):
                    bad(Violation("callref-rank", func.name, None, f"{where}: {len(arg.coords)} "
                                  f"coords for {len(callee.dims)}-dim {arg.func}"))
    for var in func.unroll:
        if var not in func.dims:
            bad(Violation("unroll-unknown-dim", func.name, None,
                          f"unroll names unknown dim {var!r}"))
    if func.relay is not None:
        # the pair relayed is the one each case reads, so every case reads a pair,
        # and all of them one function's
        reads = [[a.func for a in spec.pair_reads(c).values()] for c in func.cases]
        unread = [c.label for c, funcs in zip(func.cases, reads) if not funcs]
        read = list(dict.fromkeys(f for funcs in reads for f in funcs))
        if unread or len(read) > 1:
            why = (f"case {unread[0]} reads no rotation pair" if unread
                   else f"cases read the rotation pairs of {', '.join(map(str, read))}")
            bad(Violation("relay-pair-mismatch", func.name, None, f"relay: {why}"))
        if len(func.relay) != len(func.dims):
            bad(Violation("relay-vector", func.name, None,
                          f"relay vector rank {len(func.relay)} != {len(func.dims)} dims"))
        elif sorted(abs(v) for v in func.relay) != [0] * (len(func.relay) - 1) + [1]:
            bad(Violation("relay-vector", func.name, None,
                          "relay vector must have exactly one entry of magnitude 1"))
    for store in func.stores:
        for idx in store.indices:
            if not (type(idx) is int and 0 <= idx < func.tuple_arity):
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
    return faults
