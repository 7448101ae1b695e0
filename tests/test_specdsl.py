import dataclasses
import functools
import json
import operator
import random
import re
from pathlib import Path

import pytest

from spatialqr import numeric, specdsl
from spatialqr.dataflow import build_graph, graph_to_json
from spatialqr.numeric import AugmentedMatrix, random_matrix
from spatialqr.simulator import SimConfig, run
from spatialqr.specdsl import (
    A_PRIME,
    COL,
    K,
    M,
    ROW,
    BinOp,
    BoundSpec,
    CallRef,
    ConstRef,
    ExprTypeError,
    IntLit,
    MemoryRef,
    Name,
    RecurrenceCase,
    RelayDirective,
    StoreDirective,
    builtin_qr_spec,
    ValidationReport,
    Violation,
    as_expr,
    spec_from_json,
    spec_to_json,
    validate,
    walk,
)


def replace_func(spec, name, **changes):
    funcs = tuple(
        dataclasses.replace(f, **changes) if f.name == name else f for f in spec.funcs
    )
    return dataclasses.replace(spec, funcs=funcs)


def x_domain(m, n):
    """X's points in loop-nest order: 1 <= col <= N, row running down from M to col + 1."""
    return [(col, row) for col in range(1, n + 1) for row in range(m, col, -1)]


def y_domain(m, n):
    """Y's points: X's, each with col + 1 <= k <= N + 1."""
    return [(col, row, k) for col, row in x_domain(m, n) for k in range(col + 1, n + 2)]


def walked_coords(spec, m, n):
    """Per function, the coordinates of its firings in walk order."""
    report = ValidationReport(m, n)
    coords = {f.name: [] for f in spec.funcs}
    for firing in walk(spec, m, n, report):
        coords[firing.func].append(firing.coords)
    assert report.ok
    return coords


class TestEvalExpr:
    def test_bound_range_inner(self):
        # k: col + 1 .. N + 1
        y = walked_coords(builtin_qr_spec(), 4, 4)["Y"]
        assert [k for col, row, k in y if (col, row) == (3, 4)] == [4, 5]

    def test_bound_range_descending(self):
        # row: M .. col + 1, step -1
        x = walked_coords(builtin_qr_spec(), 4, 3)["X"]
        assert [row for col, row in x if col == 1] == [4, 3, 2]

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            BoundSpec("x", IntLit(1), 0, IntLit(3))


class TestBuiltinSpec:
    def test_validates_at_4x4(self):
        assert validate(builtin_qr_spec(), 4, 4).ok

    def test_validates_all_small_sizes(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                report = validate(spec, m, n)
                assert report.ok, f"violations at ({m},{n}): {report.violations}"

    def test_iteration_counts_at_4x4(self):
        coords = walked_coords(builtin_qr_spec(), 4, 4)
        assert coords == {"X": x_domain(4, 4), "Y": y_domain(4, 4)}
        assert len(coords["X"]) == 6
        assert len(coords["Y"]) == 20

    def test_guard_partition_at_4x4(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        labels = {}
        for firing in walk(spec, 4, 4, ValidationReport(4, 4)):
            if firing.func == x.name:
                labels.setdefault(firing.case.label, []).append(firing.coords)
        assert labels["a"] == [(1, 4)]
        assert sorted(labels["b"]) == [(1, 2), (1, 3)]
        # one boundary point per non-first column with a full-height row range
        assert sorted(labels["c"]) == [(2, 4), (3, 4)]
        assert labels["d"] == [(2, 3)]

    def test_guards_exclusive_and_exhaustive(self):
        # exactly one firing per point of each domain, in loop-nest order
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                assert walked_coords(spec, m, n) == {"X": x_domain(m, n), "Y": y_domain(m, n)}

    def test_empty_domain_is_legal(self):
        spec = builtin_qr_spec()
        # col = N contributes nothing when M = N: row range M..col+1 is empty
        x = walked_coords(spec, 4, 4)["X"]
        assert x and all(col != 4 for col, row in x)
        assert walked_coords(spec, 1, 1) == {"X": [], "Y": []}


class TestInjectedFaults:
    def test_duplicate_guard_is_overlap(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        dup = x.cases[0]
        clone = dataclasses.replace(dup, label="a2")
        spec2 = replace_func(spec, "X", cases=x.cases + (clone,))
        report = validate(spec2, 4, 4)
        assert "guard-overlap" in report.rules()
        overlapping = [v.coords for v in report.violations if v.rule == "guard-overlap"]
        assert (1, 4) in overlapping

    def test_overlap_names_a_label_that_is_not_a_string(self):
        x = builtin_qr_spec().func("X")
        clone = dataclasses.replace(x.cases[0], label=5)
        report = validate(replace_func(builtin_qr_spec(), "X", cases=x.cases + (clone,)), 4, 4)
        assert "[guard-overlap] X(1, 4): cases a, 5 all hold" in map(str, report.violations)

    def test_missing_case_is_gap(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        spec2 = replace_func(spec, "X", cases=x.cases[:-1])
        report = validate(spec2, 4, 4)
        assert "guard-gap" in report.rules()
        gaps = [v.coords for v in report.violations if v.rule == "guard-gap"]
        assert gaps == [(2, 3)]

    def test_invalid_spec_compiles_each_walker_once(self, monkeypatch):
        """A spec that never validates keeps its walkers, so a walk at a new
        size reports every violation without compiling anything."""
        x = builtin_qr_spec().func("X")
        spec = replace_func(builtin_qr_spec(), "X", cases=x.cases[:-1])
        assert [v.coords for v in validate(spec, 4, 4).violations] == [(2, 3)]

        def no_compile(*args):
            raise AssertionError("a walker was compiled again")

        monkeypatch.setattr(specdsl, "_compile_walker", no_compile)
        report = validate(spec, 5, 5)
        assert report.rules() == {"guard-gap"}
        assert [v.coords for v in report.violations] == [(2, 4), (2, 3), (3, 4)]

    def test_out_of_domain_callref(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        # Rewrite case (b) to reach into the previous column without excluding col=1.
        bad_case = RecurrenceCase(
            "b",
            x.cases[1].guard,
            x.cases[1].kernel,
            (CallRef("Y", (COL - 1, ROW - 1, COL), 0), x.cases[1].args[1]),
        )
        spec2 = replace_func(spec, "X", cases=(x.cases[0], bad_case) + x.cases[2:])
        report = validate(spec2, 4, 4)
        assert "callref-out-of-domain" in report.rules()

    def test_bad_tuple_index(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        bad_case = dataclasses.replace(
            x.cases[1],
            args=(CallRef("X", (IntLit(1), ROW + 1), 7), x.cases[1].args[1]),
        )
        spec2 = replace_func(spec, "X", cases=(x.cases[0], bad_case) + x.cases[2:])
        report = validate(spec2, 4, 4)
        assert "callref-tuple-index" in report.rules()

    def test_unknown_callee(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        bad_case = dataclasses.replace(
            x.cases[1],
            args=(CallRef("Z", (IntLit(1), ROW + 1), 0), x.cases[1].args[1]),
        )
        spec2 = replace_func(spec, "X", cases=(x.cases[0], bad_case) + x.cases[2:])
        assert "callref-unknown-func" in validate(spec2, 4, 4).rules()

    def test_bad_store_index(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        from spatialqr.specdsl import StoreDirective

        spec2 = replace_func(
            spec, "X",
            directives=x.directives + (StoreDirective((9,), ROW.eq(COL + 1)),),
        )
        assert "store-tuple-index" in validate(spec2, 4, 4).rules()

    def test_bad_relay_vector(self):
        spec = builtin_qr_spec()
        y = spec.func("Y")
        from spatialqr.specdsl import RelayDirective

        fixed = tuple(
            RelayDirective((0, 1, 1)) if isinstance(d, RelayDirective) else d
            for d in y.directives
        )
        spec2 = replace_func(spec, "Y", directives=fixed)
        assert "relay-vector" in validate(spec2, 4, 4).rules()

    def test_validation_collects_everything(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        clone = dataclasses.replace(x.cases[0], label="a2")
        bad_case = dataclasses.replace(
            x.cases[1],
            args=(CallRef("X", (IntLit(1), ROW + 1), 7), x.cases[1].args[1]),
        )
        spec2 = replace_func(spec, "X", cases=(x.cases[0], bad_case, clone) + x.cases[2:])
        report = validate(spec2, 4, 4)
        assert {"guard-overlap", "callref-tuple-index"} <= report.rules()


Y_FUNC = builtin_qr_spec().func("Y")


def with_y_case(index, args):
    case = dataclasses.replace(Y_FUNC.cases[index], args=args)
    return replace_func(builtin_qr_spec(), "Y",
                        cases=Y_FUNC.cases[:index] + (case,) + Y_FUNC.cases[index + 1:])


A_ARGS = Y_FUNC.cases[0].args  # X(1, M).0, X(1, M).1, then two memory loads


def two_eliminators():
    """Y's case b reads its pair from X2, a copy of X that stores nothing."""
    spec = builtin_qr_spec()
    x, y = spec.funcs
    x2 = dataclasses.replace(x, name="X2", directives=x.directives[:2])
    b = y.cases[1]
    pair = tuple(CallRef("X2", a.coords, a.index) for a in b.args[:2])
    y = dataclasses.replace(y, cases=(y.cases[0], dataclasses.replace(b, args=pair + b.args[2:]),
                                      *y.cases[2:]))
    return dataclasses.replace(spec, funcs=(x, x2, y))


class TestRotationPairs:
    """A case reads a rotation pair whole, and a relay forwards the one pair its cases read."""

    @pytest.mark.parametrize("args", [
        A_ARGS[:2] + (A_ARGS[0],) + A_ARGS[3:],  # .0 twice
        (A_ARGS[0],) + A_ARGS[2:] + (A_ARGS[3],),  # .0 alone
        (A_ARGS[0], CallRef("X", (IntLit(1), M - 1), 1)) + A_ARGS[2:],  # two eliminations
    ], ids=["extra-c", "no-s", "split"])
    @pytest.mark.parametrize("relay", [True, False])
    def test_malformed_pair_is_rejected(self, args, relay):
        spec = with_y_case(0, args)
        assert [v.rule for v in validate(spec, 4, 4).violations] == ["pair-shape"]
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        with pytest.raises(ValueError, match=r"^spec does not validate at \(4, 4\): \[pair-shape"):
            run(spec, SimConfig(relay_enabled=relay), aug)

    def test_swapped_ports_read_the_pair(self, monkeypatch):
        """c and s arrive on the ports that read them, relayed or not."""
        swapped = tuple(dataclasses.replace(case, args=(case.args[1], case.args[0]) + case.args[2:])
                        for case in Y_FUNC.cases)
        spec = replace_func(builtin_qr_spec(), "Y", cases=swapped)
        assert validate(spec, 4, 4).ok
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        expected = run(builtin_qr_spec(), SimConfig(), aug).output
        # the update kernel, taking s before c
        monkeypatch.setitem(specdsl.KERNELS, "update",
                            (lambda s, c, a, b: numeric.kernel_update(c, s, a, b), 4, 2))
        for relay in (True, False):
            assert run(spec, SimConfig(relay_enabled=relay), aug).output == expected

    @pytest.mark.parametrize("spec,message", [
        (with_y_case(0, (ConstRef(1.0), ConstRef(0.0)) + A_ARGS[2:]),
         "case a reads no rotation pair"),
        (two_eliminators(), "cases read the rotation pairs of X, X2"),
    ], ids=["no-pair", "two-sources"])
    def test_relay_must_name_the_pair_read(self, spec, message):
        violations = validate(spec, 4, 4).violations
        assert [v.rule for v in violations] == ["relay-pair-mismatch"]
        assert message in violations[0].message

    def test_builtin_spec_is_clean(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                assert not {"pair-shape", "relay-pair-mismatch"} & validate(spec, m, n).rules()


X_FUNC = builtin_qr_spec().func("X")


def with_memref(row):
    a = X_FUNC.cases[0]
    case = dataclasses.replace(a, args=(MemoryRef(A_PRIME, row, IntLit(1)), a.args[1]))
    return with_x(cases=(case,) + X_FUNC.cases[1:])


def with_x(**changes):
    return replace_func(builtin_qr_spec(), "X", **changes)


class TestEvaluatedExpressions:
    """Every expression the walk evaluates is checked, so such a spec stops
    at validation instead of failing inside a later layer."""

    @pytest.mark.parametrize("spec,rule", [
        (with_memref(Name("q")), "memref-eval"),
        (with_memref(M + 1), "memref-out-of-range"),
        (with_x(cell_map=X_FUNC.cell_map[:2] + ((ROW, Name("q")), X_FUNC.cell_map[3])),
         "cell-eval"),
        (with_x(directives=X_FUNC.directives + (StoreDirective((2,), Name("q").eq(1)),)),
         "cell-eval"),
        (replace_func(builtin_qr_spec(), "Y", cell_map=((ROW, K + 1), (ROW - 1, K))),
         "cell-out-of-range"),
        (with_x(cell_map=()), "store-no-cell"),
        (with_x(cases=(dataclasses.replace(X_FUNC.cases[0], kernel="rotate"),) + X_FUNC.cases[1:]),
         "kernel-unknown"),
    ])
    def test_rule_fires_and_run_rejects(self, spec, rule):
        assert rule in validate(spec, 4, 4).rules()
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        with pytest.raises(ValueError, match=r"does not validate at \(4, 4\)"):
            run(spec, SimConfig(), aug)

    def test_out_of_range_names_the_point(self):
        report = validate(with_memref(M + 1), 4, 4)
        assert [(v.rule, v.coords) for v in report.violations] == [
            ("memref-out-of-range", (1, 4)),
        ]
        assert "A'(5, 1) is outside the 4x5 input" in report.violations[0].message


class TestJsonRoundTrip:
    def test_byte_identical(self):
        spec = builtin_qr_spec()
        text = spec_to_json(spec)
        again = spec_to_json(spec_from_json(text))
        assert again == text

    def test_roundtrip_preserves_semantics(self):
        spec = spec_from_json(spec_to_json(builtin_qr_spec()))
        assert spec == builtin_qr_spec()
        assert validate(spec, 5, 3).ok

    def test_every_comparison_product_and_constant_survives(self):
        """The built-in spec rewritten with ``le``, ``lt``, ``*`` and a
        constant argument, which it does not use itself, round-trips through
        JSON and still lowers to the built-in spec's graph."""
        def rewrite(expr):
            if expr == COL.eq(1):
                return COL.le(1)
            if expr == ROW.ne(M):
                return ROW.lt(M)
            if isinstance(expr, BinOp):
                return BinOp(expr.op, rewrite(expr.lhs), rewrite(expr.rhs))
            return expr

        builtin = builtin_qr_spec()
        x, y = builtin.funcs
        a, b, *rest = x.cases
        assert b.args[0] == CallRef("X", (IntLit(1), ROW + 1), 3)
        b = dataclasses.replace(b, args=(CallRef("X", (IntLit(1), ROW * 1 + 1), 3), b.args[1]))
        never = RecurrenceCase("never", COL.lt(1), "eliminate", (ConstRef(0.5), ConstRef(2.0)))
        funcs = (dataclasses.replace(x, cases=(a, b, *rest, never)), y)
        spec = dataclasses.replace(builtin, funcs=tuple(
            dataclasses.replace(f, cases=tuple(dataclasses.replace(c, guard=rewrite(c.guard))
                                               for c in f.cases))
            for f in funcs))
        text = spec_to_json(spec)
        assert all(f'"op": "{op}"' in text for op in ("<=", "<", "*"))
        assert '"const": 0.5' in text
        assert spec_from_json(text) == spec
        for m, n in ((1, 1), (4, 4), (5, 3), (6, 6)):
            assert graph_to_json(build_graph(spec, m, n)) == \
                graph_to_json(build_graph(builtin, m, n))

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            spec_from_json('{"schema": 99}')

    def test_rejects_schema_1(self):
        obj = json.loads(spec_to_json(builtin_qr_spec()))
        obj["schema"] = 1
        with pytest.raises(ValueError, match="unsupported spec schema 1"):
            spec_from_json(json.dumps(obj))

    def test_relay_is_its_vector(self):
        obj = json.loads(spec_to_json(builtin_qr_spec()))
        assert [d for f in obj["funcs"] for d in f["directives"] if "relay" in d] == [
            {"relay": {"vector": [0, 0, 1]}},
        ]
        assert not [d for f in obj["funcs"] for d in f["directives"] if "channel" in d]


class TestJsonErrors:
    def corrupt(self, edit):
        obj = json.loads(spec_to_json(builtin_qr_spec()))
        edit(obj)
        return json.dumps(obj)

    @pytest.mark.parametrize("edit,key", [
        (lambda o: o.pop("funcs"), "funcs"),
        (lambda o: o["funcs"][0].pop("bounds"), "bounds"),
        (lambda o: o["funcs"][1]["bounds"][0].pop("step"), "step"),
        (lambda o: o["funcs"][0]["cases"][1]["args"][0]["call"].pop("coords"), "coords"),
        (lambda o: o["funcs"][0]["cell_map"][2].pop("row"), "row"),
        (lambda o: o["funcs"][0]["directives"][2]["store"].pop("condition"), "condition"),
    ])
    def test_missing_key_names_it(self, edit, key):
        with pytest.raises(ValueError, match=f"spec JSON: missing key '{key}'"):
            spec_from_json(self.corrupt(edit))

    @pytest.mark.parametrize("edit,key", [
        (lambda o: o.__setitem__("funcs", 5), "funcs"),
        (lambda o: o["funcs"][0].__setitem__("name", 3), "name"),
        (lambda o: o["funcs"][0].__setitem__("tuple_arity", None), "tuple_arity"),
        (lambda o: o["funcs"][0]["bounds"][0].__setitem__("step", "1"), "step"),
        (lambda o: o["funcs"][1]["directives"][3]["relay"].__setitem__("vector", [0, None]),
         "vector"),
    ])
    def test_wrong_type_names_key(self, edit, key):
        with pytest.raises(ValueError, match=f"spec JSON: key '{key}'"):
            spec_from_json(self.corrupt(edit))

    def test_non_object_elements(self):
        with pytest.raises(ValueError, match="spec JSON: expected an object"):
            spec_from_json(self.corrupt(lambda o: o["funcs"].append([])))
        with pytest.raises(ValueError, match="spec JSON: expected an object"):
            spec_from_json("[1, 2]")


class TestRejectedArguments:
    """Values no valid spec holds, each rejected with a typed error naming it."""

    def test_as_expr_rejects_a_float(self):
        with pytest.raises(ExprTypeError, match="cannot use 1.5 as an expression"):
            as_expr(1.5)

    def test_func_of_an_unknown_name(self):
        with pytest.raises(KeyError, match="no function named 'Z'"):
            builtin_qr_spec().func("Z")

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0)])
    def test_validate_needs_constants_of_at_least_one(self, m, n):
        with pytest.raises(ValueError, match=f"constants must be >= 1, got M={m}, N={n}"):
            validate(builtin_qr_spec(), m, n)

    def test_spec_to_json_rejects_a_guard_that_is_no_expression(self):
        spec = with_x(cases=(dataclasses.replace(X_FUNC.cases[0], guard=True),) + X_FUNC.cases[1:])
        with pytest.raises(ExprTypeError, match="cannot serialize True"):
            spec_to_json(spec)


class TestMalformedFunctions:
    """Functions that cannot be enumerated or told apart end in violations."""

    @pytest.mark.parametrize("bounds", [
        (X_FUNC.bounds[0], dataclasses.replace(X_FUNC.bounds[1], var="r")),
        X_FUNC.bounds[:1],
    ], ids=["misnamed", "missing"])
    def test_bounds_not_naming_dims_are_reported(self, bounds):
        spec = with_x(bounds=bounds)
        assert "bounds-shape" in validate(spec, 4, 4).rules()
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        with pytest.raises(ValueError, match=r"does not validate at \(4, 4\)"):
            run(spec, SimConfig(), aug)

    def test_repeated_dim_is_reported(self):
        bounds = Y_FUNC.bounds[:2] + (dataclasses.replace(Y_FUNC.bounds[2], var="row"),)
        spec = replace_func(builtin_qr_spec(), "Y", dims=("col", "row", "row"), bounds=bounds)
        assert "bounds-shape" in validate(spec, 4, 4).rules()
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        with pytest.raises(ValueError, match=r"does not validate at \(4, 4\)"):
            run(spec, SimConfig(), aug)

    def test_more_dims_than_python_nests_is_reported(self):
        dims = tuple(f"d{i}" for i in range(21))
        z = dataclasses.replace(X_FUNC, name="Z", dims=dims, directives=(), cell_map=(),
                                bounds=tuple(BoundSpec(d, IntLit(1), 1, IntLit(1)) for d in dims))
        spec = dataclasses.replace(builtin_qr_spec(), funcs=builtin_qr_spec().funcs + (z,))
        assert [(v.rule, v.func) for v in validate(spec, 4, 4).violations] == [("bounds-shape", "Z")]

    def test_tuple_arity_must_match_the_kernel(self):
        """X claims a fifth element, which a Y case reads but no eliminate returns."""
        spec = with_x(tuple_arity=5, cell_map=X_FUNC.cell_map + (None,))
        d = Y_FUNC.cases[3]
        case = dataclasses.replace(d, args=d.args[:3] + (CallRef("X", (COL, ROW), 4),))
        spec = replace_func(spec, "Y", cases=Y_FUNC.cases[:3] + (case,))
        violations = validate(spec, 4, 4).violations
        assert [(v.rule, v.func) for v in violations] == [("kernel-output-arity", "X")] * 4
        assert "case a: kernel eliminate returns 4 values, not tuple arity 5" in violations[0].message
        aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
        with pytest.raises(ValueError, match=r"^spec does not validate at \(4, 4\): "
                                             r"\[kernel-output-arity\]"):
            run(spec, SimConfig(), aug)

    def test_duplicate_name_is_reported_once(self):
        spec = builtin_qr_spec()
        x, y = spec.funcs
        spec2 = dataclasses.replace(spec, funcs=(x, y, x, x))
        assert [(v.rule, v.func) for v in validate(spec2, 3, 2).violations] == [
            ("func-duplicate", "X"),
        ]
        aug = AugmentedMatrix.from_parts(random_matrix(3, 2, 0), [1.0] * 3)
        with pytest.raises(ValueError, match=r"does not validate at \(3, 2\)"):
            run(spec2, SimConfig(), aug)


def readme_rules():
    """The rule ids in the README's rule table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| checked | rule ids |"):]
    table = table[:table.index("\n\n")]
    return {rule for row in table.splitlines()[2:]
            for rule in re.findall(r"`([a-z]+(?:-[a-z]+)+)`", row.split("|")[2])}


def test_readme_rule_table_matches_the_code():
    """Every rule id in the README's rule table is one that specdsl raises, and back."""
    # rule ids are the only hyphenated string literals in specdsl
    source = Path(specdsl.__file__).read_text()
    raised = set(re.findall(r'"([a-z]+(?:-[a-z]+)+)"', source))
    assert readme_rules() == raised


def json_paths(obj):
    """(path, value) of every node below ``obj``, the root excluded."""
    nodes = [((), obj)]
    for path, value in nodes:  # grows as it goes
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        nodes.extend((path + (key,), child) for key, child in items)
    return nodes[1:]


SPEC_TEXT = spec_to_json(builtin_qr_spec())
PATHS = json_paths(json.loads(SPEC_TEXT))
CASES = [p for p, _ in PATHS if p[-1] == "cases"]
LISTS = [p for p, v in PATHS if isinstance(v, list) and v]
DICTS = [p for p, v in PATHS if isinstance(v, dict) and v]
INTS = [p for p, v in PATHS if type(v) is int]


def structurally_mutated(rnd):
    """The built-in spec's JSON with one structural edit."""
    obj = json.loads(SPEC_TEXT)
    what = rnd.randrange(4)
    if what == 0:  # drop or duplicate a case, or an element of another list
        path = rnd.choice(CASES if rnd.random() < 0.5 else LISTS)
        items = functools.reduce(operator.getitem, path, obj)
        i = rnd.randrange(len(items))
        if rnd.random() < 0.5:
            del items[i]
        else:
            items.insert(i, json.loads(json.dumps(items[i])))
    elif what == 1:  # delete a key
        d = functools.reduce(operator.getitem, rnd.choice(DICTS), obj)
        del d[rnd.choice(sorted(d))]
    else:  # shift an int, or replace a node
        *path, key = rnd.choice(INTS) if what == 2 else rnd.choice(PATHS)[0]
        container = functools.reduce(operator.getitem, path, obj)
        if what == 2:
            container[key] += rnd.choice([-2, -1, 1, 2])
        else:
            container[key] = rnd.choice([None, [], {}, "x", 1.5])
    return json.dumps(obj)


def test_structural_json_mutations_end_in_violations_or_spec_json_errors():
    rules = readme_rules()
    rnd = random.Random(12)
    outcomes = {"violations": 0, "ok": 0, "error": 0}
    for _ in range(500):
        mutated = structurally_mutated(rnd)
        try:
            spec = spec_from_json(mutated)
        except ValueError as exc:
            assert str(exc).startswith("spec JSON: "), (mutated, exc)
            outcomes["error"] += 1
            continue
        report = validate(spec, 4, 3)
        assert all(isinstance(v, Violation) and v.rule in rules for v in report.violations)
        outcomes["violations" if report.violations else "ok"] += 1
    assert min(outcomes.values()) > 0, outcomes
