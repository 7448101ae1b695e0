import dataclasses
import json

import pytest

from spatialqr.specdsl import (
    COL,
    M,
    N,
    ROW,
    BoundSpec,
    CallRef,
    IntLit,
    RecurrenceCase,
    UnboundNameError,
    builtin_qr_spec,
    enumerate_domain,
    eval_expr,
    firing_case,
    spec_from_json,
    spec_to_json,
    validate,
)


def replace_func(spec, name, **changes):
    funcs = tuple(
        dataclasses.replace(f, **changes) if f.name == name else f for f in spec.funcs
    )
    return dataclasses.replace(spec, funcs=funcs)


class TestEvalExpr:
    def test_arithmetic(self):
        assert eval_expr(M - COL, {"M": 4, "col": 1}) == 3

    def test_store_condition_guard(self):
        cond = ROW.eq(COL + 1) & ROW.eq(M)
        assert eval_expr(cond, {"row": 4, "col": 3, "M": 4}) is True
        assert eval_expr(cond, {"row": 4, "col": 2, "M": 4}) is False

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError):
            eval_expr(M - COL, {"M": 4})

    def test_bound_range_inner(self):
        b = BoundSpec("k", COL + 1, 1, N + 1)
        assert b.enumerate({"col": 3, "N": 4}) == [4, 5]

    def test_bound_range_descending(self):
        b = BoundSpec("row", M, -1, COL + 1)
        assert b.enumerate({"M": 4, "col": 1}) == [4, 3, 2]

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
        spec = builtin_qr_spec()
        x_pts = enumerate_domain(spec.func("X"), {"M": 4, "N": 4})
        y_pts = enumerate_domain(spec.func("Y"), {"M": 4, "N": 4})
        assert len(x_pts) == 6
        assert len(y_pts) == 20

    def test_guard_partition_at_4x4(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        labels = {}
        for point in enumerate_domain(x, {"M": 4, "N": 4}):
            bindings = {"M": 4, "N": 4, "col": point[0], "row": point[1]}
            labels.setdefault(firing_case(x, bindings).label, []).append(point)
        assert labels["a"] == [(1, 4)]
        assert sorted(labels["b"]) == [(1, 2), (1, 3)]
        # one boundary point per non-first column with a full-height row range
        assert sorted(labels["c"]) == [(2, 4), (3, 4)]
        assert labels["d"] == [(2, 3)]

    def test_guards_exclusive_and_exhaustive(self):
        spec = builtin_qr_spec()
        for m in range(1, 9):
            for n in range(1, m + 1):
                for func in spec.funcs:
                    for point in enumerate_domain(func, {"M": m, "N": n}):
                        bindings = {"M": m, "N": n}
                        bindings.update(zip(func.dims, point))
                        firing_case(func, bindings)  # raises unless exactly one

    def test_empty_domain_is_legal(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        # col = N contributes nothing when M = N: row range M..col+1 is empty
        pts = enumerate_domain(x, {"M": 4, "N": 4})
        assert all(p[0] != 4 for p in pts)
        assert enumerate_domain(x, {"M": 1, "N": 1}) == []


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

    def test_missing_case_is_gap(self):
        spec = builtin_qr_spec()
        x = spec.func("X")
        spec2 = replace_func(spec, "X", cases=x.cases[:-1])
        report = validate(spec2, 4, 4)
        assert "guard-gap" in report.rules()
        gaps = [v.coords for v in report.violations if v.rule == "guard-gap"]
        assert gaps == [(2, 3)]

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
            RelayDirective("X", (0, 1), (0, 1, 1)) if isinstance(d, RelayDirective) else d
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

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            spec_from_json('{"schema": 99}')


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
        (lambda o: o["funcs"][0]["directives"][3]["store"].pop("condition"), "condition"),
    ])
    def test_missing_key_names_it(self, edit, key):
        with pytest.raises(ValueError, match=f"spec JSON: missing key '{key}'"):
            spec_from_json(self.corrupt(edit))

    @pytest.mark.parametrize("edit,key", [
        (lambda o: o.__setitem__("funcs", 5), "funcs"),
        (lambda o: o["funcs"][0].__setitem__("name", 3), "name"),
        (lambda o: o["funcs"][0].__setitem__("tuple_arity", None), "tuple_arity"),
        (lambda o: o["funcs"][0]["bounds"][0].__setitem__("step", "1"), "step"),
        (lambda o: o["funcs"][1]["directives"][4]["relay"].__setitem__("vector", [0, None]),
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
