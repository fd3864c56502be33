"""Exact rational linear algebra at desk scale.

Scalars are fractions.Fraction: the stdlib type already guarantees reduced
form with a positive denominator and arbitrary precision. Exact matrices and
vectors are immutable tuples of Fractions; nothing exact ever passes through
floats. FloatMatrix exists only for the numeric matrix exponential.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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
        if len(v) != n * n:
            raise ValueError(f"{len(v)} entries do not fill a {n}x{n} matrix")
        return Matrix.from_rows([v[i * n:(i + 1) * n] for i in range(n)])

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

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def _eliminate(v: dict[int, Scalar], rows: dict[int, dict[int, int]]) -> tuple[dict[int, int], int]:
    """v (column -> int or Fraction entry) cleared at every pivot of canonical rows: the
    nonzero residual as integer numerators over one positive denominator. Canonical rows
    are primitive integer rows, pivot -> {column: nonzero int} with gcd 1, positive at
    their pivot and 0 at every other, each standing for itself over its pivot entry.
    Clearing cross-multiplies, a v - b row with a / b = row[p] / v[p] in lowest terms,
    so no Fraction is made, and it leaves v at the other pivots as it was."""
    den = math.lcm(*[x.denominator for x in v.values()])
    out = {j: x.numerator * (den // x.denominator) for j, x in v.items()}
    for p in v:
        if p in rows and out[p]:
            g = math.gcd(rows[p][p], out[p])
            a, b = rows[p][p] // g, out[p] // g
            if a != 1:
                out, den = {j: a * x for j, x in out.items()}, den * a
            for j, y in rows[p].items():
                out[j] = out.get(j, 0) - b * y
    return {j: x for j, x in out.items() if x}, den


def _insert_row(rows: dict[int, dict[int, int]], r: dict[int, Scalar]) -> bool:
    """Add the row r (column -> int or Fraction entry) to canonical rows: clear it at their
    pivots, keep what is left as a primitive row, positive at its first nonzero column p,
    and clear p from them; False, and rows unchanged, when r lies in their span. A row space
    has one rref and each rref row one such multiple, so equal spans give equal rows."""
    v = _eliminate(r, rows)[0]
    if not v:
        return False
    p = min(v)
    for q in [p, *(q for q, row in rows.items() if p in row)]:  # the new row, then those it clears
        w = v if q == p else _eliminate(rows[q], {p: rows[p]})[0]
        g = math.gcd(*w.values()) if w[q] > 0 else -math.gcd(*w.values())
        rows[q] = w if g == 1 else {j: x // g for j, x in w.items()}
    return True


def _read(rows: dict[int, dict[int, int]], n: int) -> tuple[Vec, ...]:
    """Canonical rows in pivot order as rref rows of length n, each over its pivot entry."""
    return tuple(tuple(Q(r[j], r[p]) if j in r else _ZERO for j in range(n))
                 for p, r in sorted(rows.items()))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Canonical: each pivot is 1 with zeros above and below, pivots move strictly
    right, zero rows sink to the bottom. rref is idempotent, so equal row
    spaces yield identical results. Rows are inserted one by one on their nonzero entries.
    """
    rows: dict[int, dict[int, int]] = {}
    for r in m.entries:
        _insert_row(rows, {j: x for j, x in enumerate(r) if x})
    out = _read(rows, m.cols)
    return Matrix(out + (vzero(m.cols),) * (m.rows - len(out))), tuple(sorted(rows))


def kernel_basis(m: Matrix) -> list[Vec]:
    """Exact basis of the null space, one vector per rref free column."""
    return _kernel(({j: x for j, x in enumerate(r) if x} for r in m.entries), m.cols)


def _kernel(rows: Iterable[dict[int, Scalar]], n: int) -> list[Vec]:
    """Null space of the rows (column -> entry) over n columns: for each free column f
    of their canonical rows, e_f minus column f of those rows, read at their pivots."""
    red: dict[int, dict[int, int]] = {}
    for r in rows:
        _insert_row(red, r)
    return [tuple(Q(1) if j == f else Q(-red[j][f], red[j][j]) if f in red.get(j, ()) else _ZERO
                  for j in range(n)) for f in range(n) if f not in red]


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


def _clear(xs: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the rationals xs over their lcm denominator."""
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


@dataclass(frozen=True)
class ScaledMatrix:
    """Square matrix num / den over one positive denominator: each row keeps
    the (column, integer numerator) pairs of its nonzero entries."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    den: int

    @staticmethod
    def reduced(rows: Sequence[dict[int, int]], den: int) -> "ScaledMatrix":
        """rows / den, reduced by the gcd of den and every numerator."""
        g = math.gcd(den, *(x for r in rows for x in r.values()))
        return ScaledMatrix(tuple(tuple((j, x // g) for j, x in r.items() if x) for r in rows),
                            den // g)

    @staticmethod
    def of(m: "Matrix | ScaledMatrix") -> "ScaledMatrix":
        if isinstance(m, ScaledMatrix):
            return m
        if not m.is_square():
            raise ValueError(f"shape mismatch: {m.rows}x{m.cols} is not square")
        nums, den = _clear(m.flat)
        return ScaledMatrix.reduced([dict(enumerate(nums[i * m.cols:(i + 1) * m.cols]))
                                     for i in range(m.rows)], den)


def is_nilpotent(m: Matrix) -> tuple[bool, int | None]:
    """(True, index) with the least k such that m^k = 0, else (False, None).

    m is nilpotent iff m^n e_j = 0 for every basis vector e_j; the index is the
    longest such sequence. They run on D m, which clears the denominators:
    (D m)^k = D^k m^k vanishes exactly when m^k does.
    """
    if not m.is_square():
        raise ValueError("nilpotency is defined for square matrices")
    sm, index = ScaledMatrix.of(m), 0
    for j in range(m.rows):
        t, k = [int(i == j) for i in range(m.rows)], 0
        while any(t):
            k += 1
            if k > m.rows:
                return False, None
            t = [sum([c * t[i] for i, c in row]) for row in sm.rows]
        index = max(index, k)
    return True, index


def _exp_series(sm: ScaledMatrix, v: tuple[Sequence[int], int]) -> tuple[tuple[int, ...], int]:
    """exp(sm) applied to v = (integer numerators, positive denominator), as the
    series of exp_apply on integers: (numerators, denominator), in lowest terms
    when v is. The length of v must already match."""
    term, e = v
    out, k = term, 0
    while any(term):
        k += 1
        if k > len(sm.rows):
            raise NotNilpotentError("not nilpotent; use float mode")
        term = [sum([c * term[j] for j, c in row]) for row in sm.rows]
        out = [x * sm.den * k + y for x, y in zip(out, term)]
        e *= sm.den * k
        g = math.gcd(e, *term, *out)
        term, out, e = [x // g for x in term], [x // g for x in out], e // g
    return tuple(out), e


def exp_apply(m: Matrix | ScaledMatrix, v: Vec) -> Vec:
    """exp(m) v as the series v + m v + m^2 v / 2! + ..., up to its first zero term.

    A nonzero m^n v (n = dim) proves that m is not nilpotent, since the Krylov
    sequence of v then never dies, and raises NotNilpotentError. Term and sum
    are integer vectors over one denominator e; the next term of num / den is
    num term / (e den k), one gcd per term reduces all three, and only the
    returned sum becomes Fractions.
    """
    sm = ScaledMatrix.of(m)
    n = len(sm.rows)
    if len(v) != n:
        raise ValueError(f"shape mismatch: {n}x{n} applied to length {len(v)}")
    out, e = _exp_series(sm, _clear(v))
    return tuple(Fraction(x, e) for x in out)


def mat_exp_exact(m: Matrix | ScaledMatrix) -> Matrix:
    """exp(m) column by column, exp(m) e_j = exp_apply(m, e_j); m must be nilpotent.

    Some m^n e_j is nonzero iff m^n is, so this raises exactly when m is not nilpotent.
    """
    sm = ScaledMatrix.of(m)
    return Matrix.from_cols([exp_apply(sm, basis_vec(len(sm.rows), j))
                             for j in range(len(sm.rows))])


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

    def __mul__(self, c: float) -> "FloatMatrix":
        return FloatMatrix(tuple(tuple(c * x for x in r) for r in self.entries))

    def __matmul__(self, other: "FloatMatrix") -> "FloatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return FloatMatrix(tuple(tuple(_fdot(r, c) for c in bt) for r in self.entries))

    def apply(self, v: Sequence[float]) -> tuple[float, ...]:
        return tuple(_fdot(r, v) for r in self.entries)

    def inf_norm(self) -> float:
        try:  # the largest absolute row sum; fsum of terms >= 0 overflows only when the sum does
            return max((math.fsum(abs(x) for x in r) for r in self.entries), default=0.0)
        except OverflowError:
            return math.inf


def _fdot(r: Sequence[float], c: Sequence[float]) -> float:
    """The correctly rounded sum of the products; a ValueError when it is not finite."""
    try:
        return math.fsum(map(mul, r, c))
    except (OverflowError, ValueError):  # a partial sum overflows, or adds -inf to inf
        products = list(map(mul, r, c))
        if all(map(math.isfinite, products)):  # fsum overflowed on the way: round the exact sum
            with contextlib.suppress(OverflowError):
                return float(sum(map(Fraction, products)))
        raise ValueError(f"non-finite entry {sum(products)!r}") from None


def mat_exp_float(m: Matrix | FloatMatrix, tol: float = 1e-12) -> FloatMatrix:
    """exp(m) by scaling and squaring with the Taylor tail bounded below tol, on rows
    rounded as FloatMatrix *, @ and + round them; only a squaring can overflow."""
    fm = FloatMatrix.from_exact(m) if isinstance(m, Matrix) else m
    if fm.rows != fm.cols:
        raise ValueError("exp is defined for square matrices")
    n = fm.rows
    if n == 0:
        return fm
    norm: float | Fraction = fm.inf_norm()
    if math.isinf(norm):  # a row sum is past the float range: halve its exact value
        norm = max(sum(map(Fraction, map(abs, r))) for r in fm.entries)
    j = 0
    while norm > 0.5:
        norm /= 2
        j += 1
    scaled_cols = list(zip(*(fm * (0.5 ** j)).entries))
    out = term = FloatMatrix.identity(n).entries
    # tail bound: after the k-th term the remainder is < |term| since |scaled| <= 1/2;
    # squaring amplifies roughly 2^j-fold, so demand a j-scaled margin
    cutoff = tol * (0.5 ** j) / math.e
    for k in range(1, 80):
        f = 1.0 / k
        term = [[f * _fdot(r, col) for col in scaled_cols] for r in term]
        out = [[x + y for x, y in zip(a, b)] for a, b in zip(out, term)]
        if max(math.fsum(map(abs, r)) for r in term) < cutoff:
            break
    for _ in range(j):
        cols = list(zip(*out))
        out = [[_fdot(r, col) for col in cols] for r in out]
        bad = next((x for r in out for x in r if not math.isfinite(x)), None)
        if bad is not None:
            raise ValueError(f"non-finite entry {bad!r}")
    return FloatMatrix(tuple(map(tuple, out)))
