"""Hostile expressions: names that read as Python code, unknown operators,
booleans in arithmetic and deep nesting.

Specs are evaluated by generated, compiled walkers, so these tests pin that
no spec text is ever executed, that a static fault is reported once per
function, and that the dynamic violations and the firings are the ones the
expression interpreter gave before it was deleted
(``fixtures/walk_oracle.json``).  Each spec is built directly and again
through ``spec_from_json``.
"""

import builtins
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from spatialqr.numeric import AugmentedMatrix, random_matrix
from spatialqr.simulator import SimConfig, WiringError, compile_design, report_to_json, run
from spatialqr.specdsl import (
    A_PRIME,
    COL,
    M,
    ROW,
    BinOp,
    BoundSpec,
    CallRef,
    IntLit,
    MemoryRef,
    Name,
    StoreDirective,
    UnrollDirective,
    ValidationReport,
    Violation,
    _walker_source,
    builtin_qr_spec,
    spec_from_json,
    spec_to_json,
    validate,
    walk,
)

SENTINEL = "spatialqr_hostile_spec_ran"
CODE = f"__import__('builtins').setattr(__import__('builtins'), '{SENTINEL}', 1) or 1"
SPEC = builtin_qr_spec()
X = SPEC.func("X")
Y = SPEC.func("Y")


def with_func(func):
    return dataclasses.replace(
        SPEC, funcs=tuple(func if f.name == func.name else f for f in SPEC.funcs))


def with_case(func, index, **changes):
    case = dataclasses.replace(func.cases[index], **changes)
    return with_func(dataclasses.replace(
        func, cases=func.cases[:index] + (case,) + func.cases[index + 1:]))


def deep(expr, depth):
    for _ in range(depth):
        expr = expr + 0
    return expr


CODE_NAME = Name(CODE)

HOSTILE = {
    "code_name_guard": with_case(X, 0, guard=CODE_NAME.eq(1) & ROW.eq(M)),
    "code_name_memref": with_case(
        X, 1, args=(X.cases[1].args[0], MemoryRef(A_PRIME, CODE_NAME, IntLit(1)))),
    "code_name_call": with_case(
        Y, 3, args=Y.cases[3].args[:2] + (CallRef("Y", (COL, CODE_NAME, ROW), 1),)
        + Y.cases[3].args[3:]),
    "code_name_cell_and_store": with_func(dataclasses.replace(
        X, cell_map=X.cell_map[:3] + ((CODE_NAME, COL),),
        directives=X.directives + (StoreDirective((2,), CODE_NAME.eq(1)),))),
    "code_name_bound": with_func(dataclasses.replace(
        X, bounds=(X.bounds[0], BoundSpec("row", CODE_NAME, -1, COL + 1)))),
    "code_name_input": with_case(
        X, 0, args=(MemoryRef(CODE, M, IntLit(1)), X.cases[0].args[1])),
    "unknown_op": with_case(X, 0, guard=BinOp("**", COL, IntLit(2)).eq(1) & ROW.eq(M)),
    "code_op": with_case(X, 2, guard=BinOp(CODE, COL, IntLit(1)) & ROW.eq(M)),
    "bool_in_arithmetic": with_case(
        X, 1, args=(X.cases[1].args[0], MemoryRef(A_PRIME, BinOp("+", ROW, IntLit(True)),
                                                   IntLit(1)))),
    "bool_guard_operand": with_case(X, 0, guard=COL.eq(1) & IntLit(True)),
    "int_guard": with_case(X, 3, guard=COL - ROW),
}

# validate(spec, 4, 3) with CODE written as <CODE>: the static faults once per
# function, then the dynamic ones per point as the expression interpreter reported them
EXPECTED = {
    'bool_guard_operand': [
        '[guard-overlap] X(1, 3): cases a, b all hold',
        '[guard-overlap] X(1, 2): cases a, b all hold',
    ],
    'bool_in_arithmetic': [
        '[memref-eval] X: case b arg 1: arithmetic + on boolean operand',
    ],
    'code_name_bound': [
        '[bound-eval] X: cannot enumerate bounds: <CODE>',
        '[callref-out-of-domain] Y(1, 4, 2): case a arg 0: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 4, 2): case a arg 1: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 4, 3): case a arg 0: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 4, 3): case a arg 1: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 4, 4): case a arg 0: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 4, 4): case a arg 1: X(1, 4) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 2): case b arg 0: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 2): case b arg 1: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 3): case b arg 0: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 3): case b arg 1: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 4): case b arg 0: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 3, 4): case b arg 1: X(1, 3) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 2): case b arg 0: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 2): case b arg 1: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 3): case b arg 0: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 3): case b arg 1: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 4): case b arg 0: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(1, 2, 4): case b arg 1: X(1, 2) is outside its domain',
        '[callref-out-of-domain] Y(2, 4, 3): case c arg 0: X(2, 4) is outside its domain',
        '[callref-out-of-domain] Y(2, 4, 3): case c arg 1: X(2, 4) is outside its domain',
        '[callref-out-of-domain] Y(2, 4, 4): case c arg 0: X(2, 4) is outside its domain',
        '[callref-out-of-domain] Y(2, 4, 4): case c arg 1: X(2, 4) is outside its domain',
        '[callref-out-of-domain] Y(2, 3, 3): case d arg 0: X(2, 3) is outside its domain',
        '[callref-out-of-domain] Y(2, 3, 3): case d arg 1: X(2, 3) is outside its domain',
        '[callref-out-of-domain] Y(2, 3, 4): case d arg 0: X(2, 3) is outside its domain',
        '[callref-out-of-domain] Y(2, 3, 4): case d arg 1: X(2, 3) is outside its domain',
        '[callref-out-of-domain] Y(3, 4, 4): case c arg 0: X(3, 4) is outside its domain',
        '[callref-out-of-domain] Y(3, 4, 4): case c arg 1: X(3, 4) is outside its domain',
    ],
    'code_name_call': [
        '[callref-eval] Y: case d arg 2: <CODE>',
    ],
    'code_name_cell_and_store': [
        '[cell-eval] X: cell_map[3]: <CODE>',
        '[cell-eval] X: store condition: <CODE>',
    ],
    'code_name_guard': [
        '[guard-eval] X: case a: <CODE>',
        '[guard-gap] X(1, 4): no case guard holds',
    ],
    'code_name_input': [
        '[memref-unknown-input] X: case a arg 0: no input "<CODE>"',
    ],
    'code_name_memref': [
        '[memref-eval] X: case b arg 1: <CODE>',
    ],
    'code_op': [
        '[guard-eval] X: case c: unknown expression node BinOp(op="<CODE>", lhs=Name(name=\'col\'), rhs=IntLit(value=1))',
        '[guard-gap] X(2, 4): no case guard holds',
        '[guard-gap] X(3, 4): no case guard holds',
    ],
    'int_guard': [
        '[guard-eval] X: case d: an int where a bool is needed',
        '[guard-gap] X(2, 3): no case guard holds',
    ],
    'unknown_op': [
        "[guard-eval] X: case a: unknown expression node BinOp(op='**', lhs=Name(name='col'), rhs=IntLit(value=2))",
        '[guard-gap] X(1, 4): no case guard holds',
    ],
}


def built(name, how):
    spec = HOSTILE[name]
    return spec if how == "direct" else spec_from_json(spec_to_json(spec))


@pytest.fixture(autouse=True)
def nothing_ran():
    yield
    assert not hasattr(builtins, SENTINEL)


@pytest.mark.parametrize("how", ["direct", "json"])
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_violations_match_interpreter(name, how):
    """The static faults once per function; the dynamic ones as the interpreter gave them."""
    report = validate(built(name, how), 4, 3)
    assert [str(v).replace(CODE, "<CODE>") for v in report.violations] == EXPECTED[name]


@pytest.mark.parametrize("how", ["direct", "json"])
def test_boolean_coordinate_is_a_memref_fault(how):
    """A memory row of ``(row + 0) == row`` is a bool, not row 1."""
    b = X.cases[1]
    spec = with_case(X, 1, args=(b.args[0], MemoryRef(A_PRIME, (ROW + 0).eq(ROW), IntLit(1))))
    if how == "json":
        spec = spec_from_json(spec_to_json(spec))
    assert [str(v) for v in validate(spec, 4, 3).violations] == [
        "[memref-eval] X: case b arg 1: a bool where an int is needed",
    ]
    aug = AugmentedMatrix.from_parts(random_matrix(4, 3, 9), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"^spec does not validate at \(4, 3\): \[memref-eval\]"):
        run(spec, SimConfig(), aug)


def test_json_form_is_the_hostile_one():
    obj = json.loads(spec_to_json(HOSTILE["bool_in_arithmetic"]))
    row = obj["funcs"][0]["cases"][1]["args"][1]["memory"]["row"]
    assert row == {"op": "+", "lhs": {"name": "row"}, "rhs": {"int": True}}


# a guard nested too deep is one violation, and case a then never holds
DEEP_GUARD = [Violation("expr-depth", "X", None, "case a: nested more than 64 deep"),
              Violation("guard-gap", "X", (1, 4), "no case guard holds")]


@pytest.mark.parametrize("how", ["direct", "json"])
def test_deep_guard_is_an_expr_depth_violation(how):
    spec = with_case(X, 0, guard=deep(COL, 299).eq(1) & ROW.eq(M))
    if how == "json":
        spec = spec_from_json(spec_to_json(spec))
    assert validate(spec, 4, 3).violations == DEEP_GUARD
    aug = AugmentedMatrix.from_parts(random_matrix(4, 3, 9), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"^spec does not validate at \(4, 3\): \[expr-depth\]"):
        run(spec, SimConfig(), aug)


def test_guard_deeper_than_the_recursion_limit():
    """Built in Python, it is the same violation; as spec JSON, a ValueError."""
    spec = with_case(X, 0, guard=deep(COL, 2000).eq(1) & ROW.eq(M))
    assert validate(spec, 4, 3).violations == DEEP_GUARD
    obj = json.loads(spec_to_json(SPEC))
    obj["funcs"][0]["cases"][0]["guard"] = "GUARD"
    guard = '{"op": "+", "lhs": ' * 2000 + '{"name": "col"}' + ', "rhs": {"int": 0}}' * 2000
    with pytest.raises(ValueError, match="^spec JSON: "):
        spec_from_json(json.dumps(obj).replace('"GUARD"', guard))


def test_literal_too_long_to_print_is_a_guard_fault():
    spec = with_case(X, 0, guard=COL.eq(IntLit(10 ** 5000)) & ROW.eq(M))
    assert [(v.rule, v.coords) for v in validate(spec, 4, 3).violations] == [
        ("guard-eval", None), ("guard-gap", (1, 4))]


@pytest.mark.parametrize("relay", [True, False])
def test_rows_rising_break_the_push_order(relay):
    """With X's rows rising, Y(col=1) feeds X(col=2) its rows in the opposite
    order from the one X(col=2) pops them in, so no channel can carry them."""
    spec = with_func(dataclasses.replace(X, bounds=(X.bounds[0], BoundSpec("row", COL + 1, 1, M))))
    cfg = SimConfig(unroll={"X": ("col",), "Y": ("col",)}, relay_enabled=relay)
    with pytest.raises(WiringError) as exc:
        compile_design(spec, cfg, 4, 3)
    assert str(exc.value) == ("channel Y(col=1).t0->X(col=2).p1: "
                              "push order does not match pop order")


def renamed(e, text):
    """``e`` with the name ``col`` replaced by ``text``."""
    if isinstance(e, Name):
        return Name(text) if e.name == "col" else e
    if isinstance(e, BinOp):
        return BinOp(e.op, renamed(e.lhs, text), renamed(e.rhs, text))
    return e


def with_dim_named(text):
    """The built-in spec with X's loop variable ``col`` renamed to ``text``."""
    def arg(a):
        if isinstance(a, MemoryRef):
            return MemoryRef(a.input, renamed(a.row, text), renamed(a.col, text))
        if isinstance(a, CallRef):
            return CallRef(a.func, tuple(renamed(c, text) for c in a.coords), a.index)
        return a

    def directive(d):
        if isinstance(d, UnrollDirective) and d.var == "col":
            return UnrollDirective(text)
        if isinstance(d, StoreDirective):
            return StoreDirective(d.indices, renamed(d.condition, text))
        return d

    return with_func(dataclasses.replace(
        X,
        dims=(text, "row"),
        bounds=tuple(BoundSpec(text if b.var == "col" else b.var, renamed(b.lower, text),
                               b.step, renamed(b.upper, text)) for b in X.bounds),
        cases=tuple(dataclasses.replace(c, guard=renamed(c.guard, text),
                                        args=tuple(arg(a) for a in c.args)) for c in X.cases),
        directives=tuple(directive(d) for d in X.directives),
        cell_map=tuple(None if cell is None else
                       (renamed(cell[0], text), renamed(cell[1], text))
                       for cell in X.cell_map),
    ))


@pytest.mark.parametrize("how", ["direct", "json"])
def test_code_named_dim_is_a_slot(how):
    spec = with_dim_named(CODE)
    if how == "json":
        spec = spec_from_json(spec_to_json(spec))
    assert spec.walkers[0] is not None
    source, _ = _walker_source(spec, spec.funcs[0])
    assert CODE not in source and "col" not in source
    aug = AugmentedMatrix.from_parts(random_matrix(4, 3, 9), [1.0, 2.0, 3.0, 4.0])

    def event_lines_and_report(spec):
        lines = []
        report = run(spec, SimConfig(), aug, lines.append)
        return [*lines, report_to_json(report)]

    got = event_lines_and_report(spec)
    assert [text.replace(CODE, "col") for text in got] == event_lines_and_report(SPEC)


def mutated_expr(e, rnd):
    """``e`` with one subexpression replaced: a name, a literal or an operator."""
    roll = rnd.random()
    if roll < 0.2:
        return Name(rnd.choice(["col", "row", "k", "M", "N", "q", CODE]))
    if roll < 0.35:
        return IntLit(rnd.choice([0, 1, 2, -1, 5, True, False]))
    if isinstance(e, BinOp):
        if roll < 0.5:
            return BinOp(rnd.choice(["+", "-", "*", "==", "!=", "<", "<=", "&&", "**"]),
                         e.lhs, e.rhs)
        if rnd.random() < 0.5:
            return BinOp(e.op, mutated_expr(e.lhs, rnd), e.rhs)
        return BinOp(e.op, e.lhs, mutated_expr(e.rhs, rnd))
    return e


def mutated_spec(rnd):
    """The built-in spec with one guard, argument, bound, cell or store condition mutated."""
    func = rnd.choice([X, Y])
    what = rnd.randrange(5)
    if what == 0:
        j = rnd.randrange(len(func.cases))
        return with_case(func, j, guard=mutated_expr(func.cases[j].guard, rnd))
    if what == 1:
        j = rnd.randrange(len(func.cases))
        args = list(func.cases[j].args)
        slot = rnd.randrange(len(args))
        a = args[slot]
        if isinstance(a, MemoryRef):
            args[slot] = MemoryRef(a.input, mutated_expr(a.row, rnd), mutated_expr(a.col, rnd))
        else:
            c = rnd.randrange(len(a.coords))
            coords = a.coords[:c] + (mutated_expr(a.coords[c], rnd),) + a.coords[c + 1:]
            args[slot] = CallRef(a.func, coords, a.index)
        return with_case(func, j, args=tuple(args))
    if what == 2:
        b = rnd.randrange(len(func.bounds))
        bound = func.bounds[b]
        bound = BoundSpec(bound.var, mutated_expr(bound.lower, rnd), bound.step,
                          mutated_expr(bound.upper, rnd))
        return with_func(dataclasses.replace(
            func, bounds=func.bounds[:b] + (bound,) + func.bounds[b + 1:]))
    if what == 3:
        cells = list(func.cell_map)
        c = rnd.randrange(len(cells))
        if cells[c] is not None:
            cells[c] = (mutated_expr(cells[c][0], rnd), mutated_expr(cells[c][1], rnd))
        return with_func(dataclasses.replace(func, cell_map=tuple(cells)))
    return with_func(dataclasses.replace(func, directives=tuple(
        StoreDirective(d.indices, mutated_expr(d.condition, rnd))
        if isinstance(d, StoreDirective) else d for d in func.directives)))


ORACLE = Path(__file__).parent / "fixtures" / "walk_oracle.json"
DYNAMIC = {"guard-gap", "guard-overlap", "memref-out-of-range", "cell-out-of-range",
           "callref-out-of-domain"}
LET_THROUGH = "a type the interpreter let through"


def oracle_specs():
    """The specs of the walk oracle, in its order: (id, spec, m, n)."""
    rnd = random.Random(6)
    for i in range(300):
        spec = mutated_spec(rnd)
        m = rnd.randint(1, 5)
        yield f"mutated-{i}", spec, m, rnd.randint(1, m)
    for name in sorted(HOSTILE):
        for how in ("direct", "json"):
            yield f"{name}-{how}", built(name, how), 4, 3


def walked(spec, m, n):
    """The (rule, function) pairs, the points of each dynamic rule and a digest of the firings."""
    report = ValidationReport(m, n)
    firings = [[f.func, f.coords, f.case.label, f.sources, f.cells, f.stores]
               for f in walk(spec, m, n, report)]
    dynamic = {}
    for v in report.violations:
        if v.rule in DYNAMIC:
            dynamic.setdefault(v.rule, []).append([v.func, list(v.coords)])
    return ({(v.rule, v.func) for v in report.violations}, dynamic,
            hashlib.sha256(json.dumps(firings).encode()).hexdigest())


def test_compiled_walk_matches_interpreter_on_mutated_specs():
    """The walk against what the expression interpreter gave at the fixture's commit.

    A spec whose static faults the interpreter never reported lists them
    under "new", with the reason; one with a type the interpreter let
    through may also drop pairs ("gone") and differ in its points and firings.
    """
    oracle = json.loads(ORACLE.read_text())["specs"]
    for (name, spec, m, n), pinned in zip(oracle_specs(), oracle, strict=True):
        assert (name, m, n) == (pinned["id"], pinned["m"], pinned["n"])
        rules, dynamic, firings = walked(spec, m, n)
        expected = ({tuple(pair) for pair in pinned["rules"]}
                    - {(rule, func) for rule, func, _ in pinned.get("gone", [])}
                    | {(rule, func) for rule, func, _ in pinned.get("new", [])})
        assert rules == expected, name
        if all(why != LET_THROUGH for _, _, why in pinned.get("new", [])):
            assert (dynamic, firings) == (pinned["dynamic"], pinned["firings"]), name
