import math

import pytest
from hypothesis import given, strategies as st

from spatialqr.numeric import (
    AugmentedMatrix,
    DimensionError,
    Matrix,
    NonFiniteError,
    SingularMatrixError,
    back_substitute,
    format_matrix_csv,
    format_matrix_text,
    kernel_eliminate,
    kernel_update,
    parse_matrix_csv,
    parse_matrix_text,
    qr_givens_reference,
    random_matrix,
    read_vector,
    solve,
    verify_qr,
    write_matrix,
)

# systems whose solution is not finite: (a's rows, z, the entry named)
NON_FINITE_SOLUTIONS = [([[math.nan]], [1.0], "nan in R at (1, 1)"),
                        ([[math.inf]], [1.0], "inf in R at (1, 1)"),
                        ([[1.0, 0.0], [0.0, 1e-320]], [1.0, 1e10], "nan in y at index 1")]
finite = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


def random_well_conditioned(n: int, seed: int) -> Matrix:
    """Random square matrix made safely nonsingular by a diagonal boost."""
    m = random_matrix(n, n, seed)
    for i in range(1, n + 1):
        m.set(i, i, m.get(i, i) + float(n))
    return m


def aug_from(a: Matrix, z=None) -> AugmentedMatrix:
    return AugmentedMatrix.from_parts(a, z if z is not None else [0.0] * a.rows)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def poisoned_args(draw, count):
    """``count`` floats of any finite size, one of them NaN or infinite."""
    args = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=count, max_size=count))
    args[draw(st.integers(0, count - 1))] = draw(non_finite)
    return args


class TestComputeRotation:
    """``kernel_eliminate(bottom, top)``: the rotation that zeroes bottom against top."""

    def test_nothing_to_eliminate(self):
        assert kernel_eliminate(0.0, 1.0) == (1.0, 0.0, 0.0, 1.0)

    def test_degenerate_zero_input(self):
        assert kernel_eliminate(0.0, 0.0) == (1.0, 0.0, 0.0, 0.0)

    def test_three_four_five(self):
        c, s, zero, r = kernel_eliminate(4.0, 3.0)
        assert (c, s, zero, r) == (0.6, 0.8, 0.0, 5.0)
        assert abs(c**2 + s**2 - 1.0) <= 1e-12
        bottom, top = kernel_update(c, s, 4.0, 3.0)
        assert top == r
        # The annihilated slot lands within a ulp of zero, never exactly on it
        # in general; the elimination kernel writes the literal 0.0 instead.
        assert abs(bottom) <= 1e-15

    def test_tiny_input_is_rescaled(self):
        """Below the smallest normal float, the inputs are scaled up first:
        the naive quotient would give c = s = 1.0, a pair of norm sqrt(2)."""
        tiny = 5e-324
        assert tiny / math.hypot(tiny, tiny) == 1.0
        c, s, zero, r = kernel_eliminate(tiny, tiny)
        assert c == s and zero == 0.0 and r > 0.0
        assert abs(c * c + s * s - 1.0) <= 1e-15

    @given(poisoned_args(2))
    def test_non_finite_input_gives_non_finite_output(self, args):
        """So checking kernel outputs alone catches every non-finite input."""
        assert not all(map(math.isfinite, kernel_eliminate(*args)))

    @given(finite, finite)
    def test_unit_norm_and_annihilation(self, x, y):
        c, s, zero, r = kernel_eliminate(y, x)
        assert zero == 0.0
        if r > 0.0:
            assert abs(c**2 + s**2 - 1.0) <= 1e-12
            bottom, top = kernel_update(c, s, y, x)
            assert abs(top - r) <= 4 * math.ulp(r)
            assert abs(bottom) <= 4 * math.ulp(max(abs(x), abs(y)))
        else:
            assert (c, s) == (1.0, 0.0)


class TestApplyRotation:
    """``kernel_update(c, s, bottom, top)``: the (new bottom, new top) rotation of a row pair."""

    def test_identity(self):
        assert kernel_update(1.0, 0.0, -2.0, 7.0) == (-2.0, 7.0)

    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (-3.5, 0.25), (0.0, -1.0)])
    def test_quarter_turn(self, a, b):
        assert kernel_update(0.0, 1.0, b, a) == (-a, b)

    def test_three_four_alignment(self):
        bottom, top = kernel_update(0.6, 0.8, 4.0, 3.0)
        assert top == 5.0
        assert abs(bottom) <= 1e-15

    @given(poisoned_args(4))
    def test_non_finite_input_gives_non_finite_output(self, args):
        assert not all(map(math.isfinite, kernel_update(*args)))

    @given(finite, finite, st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_norm_preserved(self, x, y, a, b):
        c, s, _, r = kernel_eliminate(y, x)
        if r == 0.0:
            return
        bottom, top = kernel_update(c, s, b, a)
        before = math.hypot(a, b)
        after = math.hypot(top, bottom)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-300)


class TestQrReference:
    def test_identity_input_is_fixed_point(self):
        a = Matrix.identity(4)
        aug = aug_from(a, [1.0, 2.0, 3.0, 4.0])
        res = qr_givens_reference(aug)
        assert res.r_aug.inner.data == aug.inner.data

    def test_upper_triangular_input_is_fixed_point(self):
        a = Matrix.from_rows([[2.0, 1.0, 3.0], [0.0, 1.5, -1.0], [0.0, 0.0, 0.5]])
        aug = aug_from(a, [1.0, 1.0, 1.0])
        res = qr_givens_reference(aug)
        assert res.r_aug.inner.data == aug.inner.data

    def test_random_roundtrip(self):
        a = random_matrix(4, 4, 0)
        aug = aug_from(a, [1.0] * 4)
        res = qr_givens_reference(aug, accumulate_q=True)
        rep = verify_qr(aug, res, 1e-12)
        assert rep.passed

    def test_strict_lower_triangle_exact_zero(self):
        for m, n in [(4, 4), (8, 8), (6, 4), (5, 2)]:
            aug = aug_from(random_matrix(m, n, m * 10 + n))
            res = qr_givens_reference(aug)
            for j in range(1, n + 1):
                for i in range(j + 1, m + 1):
                    assert res.r_aug.inner.get(i, j) == 0.0

    def test_r_factor_matches_numpy_up_to_row_signs(self):
        np = pytest.importorskip("numpy")
        a = random_matrix(6, 6, 4)
        res = qr_givens_reference(aug_from(a))
        r_np = np.linalg.qr(
            np.array(a.data).reshape(6, 6), mode="r"
        )
        # R factors of a full-rank matrix agree up to per-row signs.
        for i in range(1, 7):
            for j in range(i, 7):
                mine = abs(res.r_aug.inner.get(i, j))
                theirs = abs(float(r_np[i - 1, j - 1]))
                assert mine == pytest.approx(theirs, rel=1e-10, abs=1e-12)

    def test_deterministic_bitwise(self):
        aug = aug_from(random_matrix(8, 8, 3), [1.0] * 8)
        r1 = qr_givens_reference(aug, accumulate_q=True)
        r2 = qr_givens_reference(aug, accumulate_q=True)
        assert r1.r_aug.inner.data == r2.r_aug.inner.data
        assert r1.q.data == r2.q.data

    def test_input_not_mutated(self):
        aug = aug_from(random_matrix(4, 4, 1))
        before = list(aug.inner.data)
        qr_givens_reference(aug)
        assert aug.inner.data == before


class TestVerifyQr:
    def test_self_consistency(self):
        for seed in range(3):
            aug = aug_from(random_matrix(5, 5, seed), [1.0] * 5)
            res = qr_givens_reference(aug, accumulate_q=True)
            assert verify_qr(aug, res, 1e-10).passed

    def test_detects_corruption(self):
        aug = aug_from(random_matrix(4, 4, 2))
        res = qr_givens_reference(aug, accumulate_q=True)
        res.r_aug.inner.set(1, 2, res.r_aug.inner.get(1, 2) + 1e-3)
        rep = verify_qr(aug, res, 1e-10)
        assert not rep.reconstruction_ok

    def test_identity_passes_at_zero_tolerance(self):
        aug = aug_from(Matrix.identity(3))
        res = qr_givens_reference(aug, accumulate_q=True)
        assert verify_qr(aug, res, 0.0).passed

    def test_nan_below_diagonal_is_reported(self):
        aug = aug_from(random_matrix(4, 4, 2))
        res = qr_givens_reference(aug, accumulate_q=True)
        res.r_aug.inner.set(3, 1, math.nan)
        rep = verify_qr(aug, res, 1e-10)
        assert math.isnan(rep.lower_triangle_max_abs)
        assert not rep.passed

    def test_requires_q(self):
        aug = aug_from(Matrix.identity(3))
        res = qr_givens_reference(aug)
        with pytest.raises(ValueError):
            verify_qr(aug, res, 1e-10)


class TestBackSubstitute:
    def test_identity(self):
        assert back_substitute(Matrix.identity(3), [5.0, -1.0, 2.0]) == [5.0, -1.0, 2.0]

    def test_two_by_two(self):
        r = Matrix.from_rows([[2.0, 1.0], [0.0, 1.0]])
        y = back_substitute(r, [3.0, 1.0])
        assert y == [1.0, 1.0]
        # direct multiplication oracle
        assert [2.0 * y[0] + 1.0 * y[1], 1.0 * y[1]] == [3.0, 1.0]

    def test_singular_reports_index(self):
        r = Matrix.from_rows([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            back_substitute(r, [1.0, 1.0])
        assert exc.value.index == 2


class TestSolve:
    def test_identity(self):
        assert solve(Matrix.identity(4), [1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 3.0, 4.0]

    def test_diagonal_scaling(self):
        a = Matrix.identity(4)
        for i in range(1, 5):
            a.set(i, i, 2.0)
        assert solve(a, [2.0, 4.0, 6.0, 8.0]) == [1.0, 2.0, 3.0, 4.0]

    def test_residual_well_conditioned(self):
        a = random_well_conditioned(8, 5)
        z = [float(i) for i in range(1, 9)]
        y = solve(a, z)
        for i in range(1, 9):
            acc = sum(a.get(i, j) * y[j - 1] for j in range(1, 9))
            assert abs(acc - z[i - 1]) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            solve(random_matrix(3, 2, 0), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("rows,z,named", NON_FINITE_SOLUTIONS,
                             ids=["nan-1x1", "inf-1x1", "overflow"])
    def test_non_finite_solution_raises(self, rows, z, named):
        """No rotation runs at 1 x 1, yet R is checked; in the last system
        none overflows: back substitution does, and y is checked."""
        with pytest.raises(NonFiniteError) as exc:
            solve(Matrix.from_rows(rows), z)
        assert str(exc.value) == f"non-finite value {named}"


def test_augmented_matrix_needs_a_matrix():
    with pytest.raises(DimensionError, match="^augmented matrix needs a Matrix, got list$"):
        AugmentedMatrix(1, 2, [math.nan, 1.0, 2.0])


class TestMatrixIo:
    def test_text_roundtrip(self):
        m = Matrix.from_rows([[0.1, -2.5e-300, 3.0], [5.0, 1e16, -0.0]])
        again = parse_matrix_text(format_matrix_text(m))
        assert again.rows == 2 and again.cols == 3
        assert [repr(v) for v in again.data] == [repr(v) for v in m.data]

    def test_text_roundtrip_random(self):
        m = random_matrix(6, 5, 11)
        assert parse_matrix_text(format_matrix_text(m)).data == m.data

    def test_csv_roundtrip(self):
        m = random_matrix(4, 4, 12)
        assert parse_matrix_csv(format_matrix_csv(m)).data == m.data

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_matrix_text("junk\n1 2\n")

    @pytest.mark.parametrize("rows,cols", [(1, 3), (3, 1)], ids=["row", "column"])
    def test_read_vector_takes_one_row_or_column(self, tmp_path, rows, cols):
        path = tmp_path / "v.txt"
        write_matrix(str(path), Matrix(rows, cols, [1.0, 2.0, 3.0]))
        assert read_vector(str(path)) == [1.0, 2.0, 3.0]

    def test_read_vector_rejects_a_matrix(self, tmp_path):
        path = tmp_path / "v.txt"
        write_matrix(str(path), Matrix.identity(2))
        with pytest.raises(DimensionError, match="expected a vector, got 2x2"):
            read_vector(str(path))

    @pytest.mark.parametrize("make,message", [
        (lambda: Matrix(2, 2, [1.0]), "matrix 2x2 needs 4 values, got 1"),
        (lambda: AugmentedMatrix(2, 2, Matrix.zeros(2, 2)), "must be 2x3, got 2x2"),
        (lambda: back_substitute(Matrix.zeros(2, 3), [1.0, 1.0]), "square matrix, got 2x3"),
        (lambda: back_substitute(Matrix.identity(2), [1.0]), "rhs length 1 != size 2"),
    ], ids=["data-length", "augmented-shape", "non-square-r", "rhs-length"])
    def test_shape_errors(self, make, message):
        with pytest.raises(DimensionError, match=message):
            make()

    def test_one_based_access(self):
        m = Matrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert m.get(1, 1) == 1.0 and m.get(2, 1) == 3.0
        with pytest.raises(IndexError):
            m.get(0, 1)
        with pytest.raises(IndexError):
            m.get(2, 3)
