"""Exact rational linear algebra at desk scale.

Scalars are fractions.Fraction: the stdlib type already guarantees reduced
form with a positive denominator and arbitrary precision. Exact matrices and
vectors are immutable tuples of Fractions; nothing exact ever passes through
floats. FloatMatrix exists only for the numeric matrix exponential.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Q = Fraction
Scalar = Union[int, Fraction]
Vec = tuple[Fraction, ...]

_ZERO = Q(0)
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class NotNilpotentError(ValueError):
    pass


def as_q(x: Scalar | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def parse_rational(s: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0). Decimal notation is rejected: exactness is required."""
    t = s.strip()
    if not _RATIONAL_RE.match(t):
        raise ValueError(f"not a rational 'p/q': {s!r}")
    return Fraction(t)


def format_rational(x: Fraction) -> str:
    # str(Fraction) is already 'p' or 'p/q' with q > 1 only when needed
    return str(x)


# -- vectors ------------------------------------------------------------------

def vec(xs: Iterable[Scalar]) -> Vec:
    return tuple(as_q(x) for x in xs)


def vzero(n: int) -> Vec:
    return (Q(0),) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: Scalar, a: Vec) -> Vec:
    cq = as_q(c)
    return tuple(cq * x for x in a)


def vdot(a: Vec, b: Vec) -> Fraction:
    """Exact dot product; pairs with a zero factor are skipped, not multiplied."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    acc = _ZERO
    for x, y in zip(a, b):
        if x and y:
            acc = acc + x * y if acc else x * y
    return acc


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


# -- exact matrices -----------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix, row-major tuple of row tuples."""

    entries: tuple[Vec, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        out = tuple(vec(r) for r in rows)
        if out and any(len(r) != len(out[0]) for r in out):
            raise ValueError("ragged rows")
        return Matrix(out)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        mats = [vec(c) for c in cols]
        if not mats:
            return Matrix(())
        n = len(mats[0])
        if any(len(c) != n for c in mats):
            raise ValueError("ragged columns")
        return Matrix(tuple(tuple(mats[j][i] for j in range(len(mats))) for i in range(n)))

    @staticmethod
    def from_flat(v: Sequence[Scalar], n: int) -> "Matrix":
        """The n x n matrix with row-major entries v."""
        return Matrix(tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(basis_vec(n, i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple(vzero(cols) for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def flat(self) -> Vec:
        """Entries in row-major order."""
        return tuple(x for r in self.entries for x in r)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(tuple(vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(vneg(r) for r in self.entries))

    def __mul__(self, c: Scalar) -> "Matrix":
        cq = as_q(c)
        return Matrix(tuple(tuple(cq * x for x in r) for r in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for r in self.entries:
            # row i of the product sums x * (row k of other) over the nonzero x = r[k],
            # and within that row only its nonzero entries
            acc = [_ZERO] * other.cols
            for x, brow in zip(r, other.entries):
                if x:
                    for j, y in enumerate(brow):
                        if y:
                            acc[j] = acc[j] + x * y if acc[j] else x * y
            out.append(tuple(acc))
        return Matrix(tuple(out))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} applied to length {len(v)}")
        return tuple(vdot(r, v) for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Canonical: each pivot is 1 with zeros above and below, pivots move strictly
    right, zero rows sink to the bottom. rref is idempotent, so equal row
    spaces yield identical results.
    """
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c] ** -1
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(tuple(tuple(row) for row in rows)), tuple(pivots)


def kernel_basis(m: Matrix) -> list[Vec]:
    """Exact basis of the null space, one vector per rref free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Q(0)] * m.cols
        v[free] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, free]
        basis.append(tuple(v))
    return basis


def solve_linear(m: Matrix, b: Vec) -> Vec | None:
    """One exact solution of m x = b (free variables set to 0), or None."""
    if len(b) != m.rows:
        raise ValueError(f"shape mismatch: {m.rows}x{m.cols} vs rhs length {len(b)}")
    aug = Matrix(tuple(r + (bi,) for r, bi in zip(m.entries, b))) if m.rows else Matrix(())
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i, m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    if not m.is_square():
        raise ValueError("inverse is defined for square matrices")
    n = m.rows
    aug = Matrix(tuple(r + basis_vec(n, i) for i, r in enumerate(m.entries)))
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)):
        return None
    return Matrix(tuple(r[n:] for r in red.entries))


def is_nilpotent(m: Matrix) -> tuple[bool, int | None]:
    """(True, index) with the least k such that m^k = 0, else (False, None).

    Detection squares up to the dimension: m is nilpotent iff m^n = 0.
    """
    if not m.is_square():
        raise ValueError("nilpotency is defined for square matrices")
    n = m.rows
    if n == 0:
        return True, 0
    p = m
    k = 1
    while k < n:
        p = p @ p
        k *= 2
    if not p.is_zero():
        return False, None
    power = Matrix.identity(n)
    for idx in range(1, n + 1):
        power = power @ m
        if power.is_zero():
            return True, idx
    return True, n  # unreachable: m^n = 0 was just certified


def exp_apply(m: Matrix, v: Vec) -> Vec:
    """exp(m) v as the series v + m v + m^2 v / 2! + ..., up to its first zero term.

    A nonzero m^n v (n = dim) proves that m is not nilpotent, since the Krylov
    sequence of v then never dies, and raises NotNilpotentError.
    """
    out = term = tuple(v)
    k = 0
    while not is_zero_vec(term):
        k += 1
        if k > m.rows:
            raise NotNilpotentError("not nilpotent; use float mode")
        term = tuple(x / k for x in m.apply(term))
        out = vadd(out, term)
    return out


def mat_exp_exact(m: Matrix) -> Matrix:
    """exp(m) column by column, exp(m) e_j = exp_apply(m, e_j); m must be nilpotent.

    Some m^n e_j is nonzero iff m^n is, so this raises exactly when m is not nilpotent.
    """
    return Matrix.from_cols([exp_apply(m, basis_vec(m.rows, j)) for j in range(m.rows)])


# -- float matrices -----------------------------------------------------------

@dataclass(frozen=True)
class FloatMatrix:
    """Immutable float matrix; every entry is required to be finite."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for r in self.entries:
            for x in r:
                if not math.isfinite(x):
                    raise ValueError(f"non-finite entry {x!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[float]]) -> "FloatMatrix":
        out = tuple(tuple(float(x) for x in r) for r in rows)
        if out and any(len(r) != len(out[0]) for r in out):
            raise ValueError("ragged rows")
        return FloatMatrix(out)

    @staticmethod
    def from_exact(m: Matrix) -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(float(x) for x in r) for r in m.entries))

    @staticmethod
    def identity(n: int) -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __add__(self, other: "FloatMatrix") -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(x + y for x, y in zip(a, b))
                                 for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "FloatMatrix") -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(x - y for x, y in zip(a, b))
                                 for a, b in zip(self.entries, other.entries)))

    def __mul__(self, c: float) -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(c * x for x in r) for r in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "FloatMatrix") -> "FloatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return FloatMatrix(tuple(tuple(math.fsum(x * y for x, y in zip(r, c)) for c in bt)
                                 for r in self.entries))

    def apply(self, v: Sequence[float]) -> tuple[float, ...]:
        return tuple(math.fsum(x * y for x, y in zip(r, v)) for r in self.entries)

    def inf_norm(self) -> float:
        return max((math.fsum(abs(x) for x in r) for r in self.entries), default=0.0)

    def max_abs_diff(self, other: "FloatMatrix") -> float:
        return max((abs(x - y) for a, b in zip(self.entries, other.entries)
                    for x, y in zip(a, b)), default=0.0)


def mat_exp_float(m: Matrix | FloatMatrix, tol: float = 1e-12) -> FloatMatrix:
    """exp(m) by scaling and squaring with the Taylor tail bounded below tol."""
    fm = FloatMatrix.from_exact(m) if isinstance(m, Matrix) else m
    if fm.rows != fm.cols:
        raise ValueError("exp is defined for square matrices")
    n = fm.rows
    if n == 0:
        return fm
    norm = fm.inf_norm()
    j = 0
    while norm > 0.5:
        norm /= 2.0
        j += 1
    scaled = fm * (0.5 ** j)
    out = FloatMatrix.identity(n)
    term = FloatMatrix.identity(n)
    # tail bound: after the k-th term the remainder is < |term| since |scaled| <= 1/2;
    # squaring amplifies roughly 2^j-fold, so demand a j-scaled margin
    cutoff = tol * (0.5 ** j) / math.e
    for k in range(1, 80):
        term = term @ scaled * (1.0 / k)
        out = out + term
        if term.inf_norm() < cutoff:
            break
    for _ in range(j):
        out = out @ out
    return out

