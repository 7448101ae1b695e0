"""Givens-rotation QR decomposition on real matrices.

This is the temporal (imperative) reference: plane-rotation kernels, the
column-by-column elimination loop over an augmented matrix, verification
helpers, and the back-substitution solve path.  Everything is pure Python
floats, deterministic, and bitwise reproducible.  The two kernels are the
one place the rotation arithmetic is written: the reference loop, the
dataflow evaluator and the simulator all call them and differ only in order.

Indices are 1-based throughout, matching the usual linear-algebra notation
for matrix entries.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass


class NonFiniteError(ValueError):
    """A kernel output, and so the result, was NaN or infinite."""


class DimensionError(ValueError):
    """Matrix/vector shapes do not agree."""


class SingularMatrixError(ValueError):
    """A zero pivot was met during back substitution."""

    def __init__(self, index: int):
        super().__init__(f"singular matrix: zero diagonal at index {index}")
        self.index = index


@dataclass
class Matrix:
    """Dense row-major matrix of 64-bit floats with 1-based element access."""

    rows: int
    cols: int
    data: list[float]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"matrix shape {self.rows}x{self.cols} is empty")
        if len(self.data) != self.rows * self.cols:
            raise DimensionError(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"values, got {len(self.data)}"
            )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0.0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(1, n + 1):
            m.set(i, i, 1.0)
        return m

    @classmethod
    def from_rows(cls, rows: list[list[float]]) -> "Matrix":
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionError("ragged rows")
        return cls(len(rows), width, [float(v) for row in rows for v in row])

    def _check(self, i: int, j: int) -> None:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")

    def get(self, i: int, j: int) -> float:
        self._check(i, j)
        return self.data[(i - 1) * self.cols + (j - 1)]

    def set(self, i: int, j: int, value: float) -> None:
        self._check(i, j)
        self.data[(i - 1) * self.cols + (j - 1)] = value

    def copy(self) -> "Matrix":
        return Matrix(self.rows, self.cols, list(self.data))

    def row_values(self, i: int) -> list[float]:
        self._check(i, 1)
        return self.data[(i - 1) * self.cols : i * self.cols]

    def column(self, j: int) -> list[float]:
        self._check(1, j)
        return [self.get(i, j) for i in range(1, self.rows + 1)]

    def transpose(self) -> "Matrix":
        t = Matrix.zeros(self.cols, self.rows)
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                t.set(j, i, self.get(i, j))
        return t


@dataclass
class AugmentedMatrix:
    """An M x N matrix with its right-hand-side vector appended as column N+1."""

    m: int
    n: int
    inner: Matrix

    def __post_init__(self) -> None:
        if not isinstance(self.inner, Matrix):
            raise DimensionError(f"augmented matrix needs a Matrix, got {type(self.inner).__name__}")
        if self.inner.rows != self.m or self.inner.cols != self.n + 1:
            raise DimensionError(
                f"augmented matrix for m={self.m}, n={self.n} must be "
                f"{self.m}x{self.n + 1}, got {self.inner.rows}x{self.inner.cols}"
            )

    @classmethod
    def from_parts(cls, a: Matrix, z: list[float]) -> "AugmentedMatrix":
        if len(z) != a.rows:
            raise DimensionError(f"rhs length {len(z)} != row count {a.rows}")
        inner = Matrix.zeros(a.rows, a.cols + 1)
        for i in range(1, a.rows + 1):
            for j in range(1, a.cols + 1):
                inner.set(i, j, a.get(i, j))
            inner.set(i, a.cols + 1, float(z[i - 1]))
        return cls(a.rows, a.cols, inner)

    def copy(self) -> "AugmentedMatrix":
        return AugmentedMatrix(self.m, self.n, self.inner.copy())

    def coefficient_part(self) -> Matrix:
        a = Matrix.zeros(self.m, self.n)
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                a.set(i, j, self.inner.get(i, j))
        return a


@dataclass
class QrResult:
    r_aug: AugmentedMatrix
    q: Matrix | None


@dataclass
class VerificationReport:
    reconstruction_ok: bool
    orthogonality_ok: bool
    triangular_ok: bool
    reconstruction_max_error: float
    orthogonality_max_error: float
    lower_triangle_max_abs: float

    @property
    def passed(self) -> bool:
        return self.reconstruction_ok and self.orthogonality_ok and self.triangular_ok


# Below the smallest normal float, r's fixed subnormal spacing would erode
# the precision of c = top/r; such inputs are rescaled by an exact power of two.
_TINY = sys.float_info.min
_SCALE_UP = 2.0 ** 600


def kernel_eliminate(bottom: float, top: float) -> tuple[float, float, float, float]:
    """Elimination kernel: (bottom, top) -> (c, s, zeroed bottom, new top = r).

    ``r = hypot(top, bottom)``, ``c = top/r`` and ``s = bottom/r``, or (1, 0)
    for (0, 0).  Rotating (top, bottom) maps it to (r, ~0), and the zeroed slot
    is a literal 0.0 since the residue is one-ulp noise.  A NaN or infinite
    input makes r non-finite.
    """
    r = math.hypot(top, bottom)
    if r == 0.0:
        return 1.0, 0.0, 0.0, 0.0
    if r < _TINY:
        top, bottom = top * _SCALE_UP, bottom * _SCALE_UP
        rs = math.hypot(top, bottom)
        return top / rs, bottom / rs, 0.0, rs / _SCALE_UP
    return top / r, bottom / r, 0.0, r


def kernel_update(c: float, s: float, bottom: float, top: float) -> tuple[float, float]:
    """Row-pair update kernel: returns (new bottom, new top) under (c, s).  A
    NaN or infinite input makes an output non-finite (``0 * inf`` is NaN)."""
    return c * bottom - s * top, c * top + s * bottom


def qr_givens_reference(a: AugmentedMatrix, accumulate_q: bool = False) -> QrResult:
    """Eliminate below-diagonal entries column by column, bottom row upward.

    For each column the pivot pair is rewritten as (r, 0.0) and the remaining
    columns of the two touched rows are updated with the same rotation.  With
    ``accumulate_q``, the same rotations are applied to an identity so the
    returned ``q`` satisfies a = q . r.

    Once a kernel has run (m > 1), a non-finite entry of R raises
    :class:`NonFiniteError`.  That one check suffices: every kernel output
    reaches R, directly or through a later kernel, and a kernel turns any
    non-finite input into a non-finite output (``0 * inf`` is NaN).  At m = 1
    no kernel runs, and R is the input, unchecked as on the other ways.
    """
    work = a.copy()
    inner = work.inner
    m, n = work.m, work.n
    qt = Matrix.identity(m) if accumulate_q else None

    for col in range(1, n + 1):
        for row in range(m, col, -1):
            c, s, zero, r = kernel_eliminate(inner.get(row, col), inner.get(row - 1, col))
            inner.set(row, col, zero)
            inner.set(row - 1, col, r)
            _rotate_rows(inner, row, range(col + 1, n + 2), c, s)
            if qt is not None:
                _rotate_rows(qt, row, range(1, m + 1), c, s)

    if m > 1:  # else no kernel ran
        _check_r(inner)
    q = qt.transpose() if qt is not None else None
    return QrResult(work, q)


def _check_r(r: Matrix) -> None:
    """Raise :class:`NonFiniteError` naming the first non-finite entry of ``r``."""
    for k, v in enumerate(r.data):
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value {v!r} in R at "
                                 f"({k // r.cols + 1}, {k % r.cols + 1})")


def _rotate_rows(mat: Matrix, row: int, cols: range, c: float, s: float) -> None:
    """Rotate rows ``row - 1`` (top) and ``row`` (bottom) of ``mat`` at ``cols``."""
    for k in cols:
        bottom, top = kernel_update(c, s, mat.get(row, k), mat.get(row - 1, k))
        mat.set(row, k, bottom)
        mat.set(row - 1, k, top)


def _worst(current: float, candidate: float) -> float:
    # NaN must dominate: plain max() would discard it and mask corruption.
    if math.isnan(current) or math.isnan(candidate):
        return math.nan
    return candidate if candidate > current else current


def verify_qr(
    a_original: AugmentedMatrix, result: QrResult, tol: float
) -> VerificationReport:
    """Check a = q.r, orthogonality of q, and exact strict-lower-triangle zeros."""
    if result.q is None:
        raise ValueError("verification needs a result computed with accumulate_q")
    m, n = a_original.m, a_original.n
    q = result.q
    r = result.r_aug.inner

    recon_err = 0.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            acc = 0.0
            for k in range(1, m + 1):
                acc += q.get(i, k) * r.get(k, j)
            recon_err = _worst(recon_err, abs(acc - a_original.inner.get(i, j)))

    orth_err = 0.0
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            acc = 0.0
            for k in range(1, m + 1):
                acc += q.get(i, k) * q.get(j, k)
            target = 1.0 if i == j else 0.0
            orth_err = _worst(orth_err, abs(acc - target))

    lower_max = 0.0
    triangular = True
    for j in range(1, n + 1):
        for i in range(j + 1, m + 1):
            v = r.get(i, j)
            lower_max = _worst(lower_max, abs(v))
            if v != 0.0:
                triangular = False

    return VerificationReport(
        reconstruction_ok=recon_err <= tol,
        orthogonality_ok=orth_err <= tol,
        triangular_ok=triangular,
        reconstruction_max_error=recon_err,
        orthogonality_max_error=orth_err,
        lower_triangle_max_abs=lower_max,
    )


def back_substitute(r: Matrix, b: list[float]) -> list[float]:
    """Solve the upper-triangular system r . y = b bottom-up."""
    if r.rows != r.cols:
        raise DimensionError(f"triangular solve needs a square matrix, got {r.rows}x{r.cols}")
    if len(b) != r.rows:
        raise DimensionError(f"rhs length {len(b)} != size {r.rows}")
    n = r.rows
    y = [0.0] * n
    for i in range(n, 0, -1):
        diag = r.get(i, i)
        if diag == 0.0:
            raise SingularMatrixError(i)
        acc = b[i - 1]
        for j in range(i + 1, n + 1):
            acc -= r.get(i, j) * y[j - 1]
        y[i - 1] = acc / diag
    return y


def solve(a: Matrix, z: list[float]) -> list[float]:
    """Solve a . y = z for square a via QR elimination plus back substitution.

    Raises NonFiniteError for a NaN or infinite entry of ``a`` or ``z`` and
    for an overflow in the elimination, naming the first entry of R that is
    not finite (checked here too, as at 1 x 1 no rotation runs), or in back
    substitution, naming the first entry of y that is not finite.
    """
    if a.rows != a.cols:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    r_aug = qr_givens_reference(AugmentedMatrix.from_parts(a, z)).r_aug
    _check_r(r_aug.inner)
    y = back_substitute(r_aug.coefficient_part(),
                        [r_aug.inner.get(i, a.cols + 1) for i in range(1, a.cols + 1)])
    for i, v in enumerate(y, 1):
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite value {v!r} in y at index {i}")
    return y


# --- deterministic test-suite inputs -------------------------------------

def random_matrix(rows: int, cols: int, seed: int) -> Matrix:
    """Uniform(-1, 1) entries from a seeded generator, row-major fill order."""
    rng = random.Random(seed)
    return Matrix(rows, cols, [rng.uniform(-1.0, 1.0) for _ in range(rows * cols)])


# --- text and CSV interchange ---------------------------------------------

def format_matrix_text(m: Matrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(1, m.rows + 1):
        lines.append(" ".join(repr(v) for v in m.row_values(i)))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, got {len(lines) - 1}")
    data: list[float] = []
    for ln in lines[1:]:
        vals = [float(tok) for tok in ln.split()]
        if len(vals) != cols:
            raise ValueError(f"expected {cols} values per row, got {len(vals)}")
        data.extend(vals)
    return Matrix(rows, cols, data)


def format_matrix_csv(m: Matrix) -> str:
    return "\n".join(
        ",".join(repr(v) for v in m.row_values(i)) for i in range(1, m.rows + 1)
    ) + "\n"


def parse_matrix_csv(text: str) -> Matrix:
    rows = [
        [float(tok) for tok in ln.split(",")]
        for ln in text.splitlines()
        if ln.strip()
    ]
    return Matrix.from_rows(rows)


def read_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.lower().endswith(".csv"):
        return parse_matrix_csv(text)
    return parse_matrix_text(text)


def write_matrix(path: str, m: Matrix) -> None:
    text = format_matrix_csv(m) if path.lower().endswith(".csv") else format_matrix_text(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_vector(path: str) -> list[float]:
    """Read a vector stored as a one-column or one-row matrix file."""
    m = read_matrix(path)
    if m.cols == 1:
        return m.column(1)
    if m.rows == 1:
        return m.row_values(1)
    raise DimensionError(f"{path}: expected a vector, got {m.rows}x{m.cols}")
