"""Finite-dimensional algebras given by exact structure constants.

A StructureAlgebra stores the full product tensor c[i][j][k] over Fraction and
answers the two structural questions everything else builds on: is the product
a Leibniz product (left multiplications derive the product), and is it a Lie
bracket (skew plus Jacobi). Subspaces are kept in reduced row echelon form so
equality of spans is equality of representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Q,
    Scalar,
    Vec,
    as_q,
    basis_vec,
    commutator,
    is_zero_vec,
    rref,
    vadd,
    vscale,
    vsub,
    vzero,
)
from .tensor import SparseTensor, first_failure, skew_failure


class NotAnIdealError(ValueError):
    pass


LeibnizWitness = tuple[int, int, int, Vec, Vec]


@dataclass(frozen=True)
class StructureAlgebra:
    """Algebra on a fixed basis, product e_i . e_j = sum_k c[i][j][k] e_k."""

    dim: int
    c: tuple[tuple[Vec, ...], ...]
    basis_names: tuple[str, ...]
    name: str = ""

    @staticmethod
    def from_constants(c: Sequence[Sequence[Sequence[Scalar]]],
                       basis_names: Sequence[str] | None = None,
                       name: str = "") -> "StructureAlgebra":
        dim = len(c)
        tensor = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in c)
        for row in tensor:
            if len(row) != dim or any(len(cell) != dim for cell in row):
                raise ValueError("structure tensor is not dim x dim x dim")
        names = tuple(basis_names) if basis_names is not None else tuple(f"e{i+1}" for i in range(dim))
        if len(names) != dim or len(set(names)) != dim:
            raise ValueError("basis names must be distinct and match the dimension")
        return StructureAlgebra(dim, tensor, names, name)

    @staticmethod
    def from_products(dim: int,
                      products: Mapping[tuple[int, int], Mapping[int, Scalar]],
                      basis_names: Sequence[str] | None = None,
                      name: str = "") -> "StructureAlgebra":
        """Sparse constructor: omitted basis products are zero."""
        c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), result in products.items():
            for k, coeff in result.items():
                c[i][j][k] = as_q(coeff)
        return StructureAlgebra.from_constants(c, basis_names, name)

    @staticmethod
    def abelian(dim: int, name: str = "") -> "StructureAlgebra":
        return StructureAlgebra.from_products(dim, {}, name=name)

    # -- products -------------------------------------------------------------

    def product_basis(self, i: int, j: int) -> Vec:
        return self.c[i][j]

    @cached_property
    def sparse(self) -> SparseTensor:
        """Nonzero structure constants (i, j) -> {k: c}, built on first use."""
        return SparseTensor(self.c, 2)

    def product(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        return self.sparse.contract(x, y)

    def lmul_basis(self, i: int, v: Vec) -> Vec:
        """e_i . v"""
        return self.sparse.contract(i, v)

    def rmul_basis(self, v: Vec, j: int) -> Vec:
        """v . e_j"""
        return self.sparse.contract(v, j)

    lmul_basis_vec = rmul_basis

    def left_mul(self, x: Vec) -> Matrix:
        """Matrix of lambda(x): y -> x . y in the algebra basis."""
        cols = [self.lmul_basis_vec(x, j) for j in range(self.dim)]
        return Matrix.from_cols(cols)

    def right_mul(self, x: Vec) -> Matrix:
        """Matrix of y -> y . x."""
        cols = [self.product(basis_vec(self.dim, j), x) for j in range(self.dim)]
        return Matrix.from_cols(cols)

    # -- structural checks ----------------------------------------------------

    def check_leibniz(self) -> tuple[bool, LeibnizWitness | None]:
        """Left Leibniz identity x.(y.z) = (x.y).z + y.(x.z) on all basis triples.

        Returns the lexicographically first failing (i, j, k) with both sides.
        """
        c = self.sparse
        at = first_failure(self.dim, "ijk", [(1, c, "i*", c, "jk"), (-1, c, "*k", c, "ij"),
                                             (-1, c, "j*", c, "ik")])
        if at is None:
            return True, None
        i, j, k = at
        lhs = self.lmul_basis(i, self.c[j][k])
        rhs = vadd(self.rmul_basis(self.c[i][j], k), self.lmul_basis(j, self.c[i][k]))
        return False, (i, j, k, lhs, rhs)

    @cached_property
    def is_skew(self) -> bool:
        return skew_failure(self.sparse) is None

    def check_jacobi(self) -> bool:
        """Cyclic Jacobi sum on all basis triples (no skewness assumed)."""
        c = self.sparse
        return first_failure(self.dim, "ijk", [(1, c, "*k", c, "ij"), (1, c, "*i", c, "jk"),
                                               (1, c, "*j", c, "ki")]) is None

    def check_lie(self) -> bool:
        return self.is_skew and self.check_jacobi()

    @cached_property
    def is_leibniz(self) -> bool:
        return self.check_leibniz()[0]

    @cached_property
    def is_lie(self) -> bool:
        return self.check_lie()

    # -- derived algebras -----------------------------------------------------

    def skew_symmetrize(self) -> "StructureAlgebra":
        """Half the commutator of the product; fixes skew products pointwise."""
        half = Q(1, 2)
        c = tuple(tuple(tuple(half * (self.c[i][j][k] - self.c[j][i][k])
                              for k in range(self.dim))
                        for j in range(self.dim))
                  for i in range(self.dim))
        return StructureAlgebra(self.dim, c, self.basis_names, self.name)

    def symmetrized_part(self, x: Vec, y: Vec) -> Vec:
        return vscale(Q(1, 2), vadd(self.product(x, y), self.product(y, x)))

    def skew_product(self, x: Vec, y: Vec) -> Vec:
        return vscale(Q(1, 2), vsub(self.product(x, y), self.product(y, x)))

    def change_basis(self, p: Matrix) -> "StructureAlgebra":
        """Structure constants in the new basis u_a = (column a of p)."""
        from .linalg import inverse

        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("change of basis must be dim x dim")
        pinv = inverse(p)
        if pinv is None:
            raise ValueError("change of basis must be invertible")
        cols = [p.col(a) for a in range(self.dim)]
        c = tuple(tuple(pinv.apply(self.product(cols[a], cols[b]))
                        for b in range(self.dim))
                  for a in range(self.dim))
        return StructureAlgebra(self.dim, c, self.basis_names, self.name)


# -- subspaces ----------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held as the nonzero rows of an rref matrix.

    The representation is canonical: two spans are equal iff the stored bases
    are equal tuples.
    """

    ambient_dim: int
    basis: tuple[Vec, ...] = field(default=())

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows = [tuple(as_q(x) for x in v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match the ambient dimension")
        if not rows:
            return Subspace(ambient_dim, ())
        red, pivots = rref(Matrix(tuple(rows)))
        return Subspace(ambient_dim, tuple(red.entries[i] for i in range(len(pivots))))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def whole(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(basis_vec(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(r) if x != 0) for r in self.basis)

    @property
    def complement_coords(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Residual of v after eliminating every pivot coordinate."""
        w = [as_q(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        for r, p in zip(self.basis, self.pivots):
            f = w[p]
            if f != 0:
                for j in range(self.ambient_dim):
                    w[j] -= f * r[j]
        return tuple(w)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return is_zero_vec(self.reduce(v))

    def coords(self, v: Sequence[Scalar]) -> Vec:
        """Coefficients of v in the rref basis; v must lie in the span.

        Rref rows carry 1 at their own pivot and 0 at every other pivot, so the
        coefficient of basis row i is just v[pivot_i].
        """
        w = tuple(as_q(x) for x in v)
        out = tuple(w[p] for p in self.pivots)
        rebuilt = vzero(self.ambient_dim)
        for cf, r in zip(out, self.basis):
            rebuilt = vadd(rebuilt, vscale(cf, r))
        if rebuilt != w:
            raise ValueError("vector is not in the subspace")
        return out

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient_dim, self.basis + other.basis)


# -- ideals and quotients -----------------------------------------------------

def squares_ideal(a: StructureAlgebra) -> Subspace:
    """Two-sided ideal generated by all squares x . x.

    The span of squares is polarized to e_i.e_i and e_i.e_j + e_j.e_i, then
    closed under left and right multiplication by basis elements to a fixed
    point.
    """
    gens: list[Vec] = []
    for i in range(a.dim):
        gens.append(a.c[i][i])
        for j in range(i + 1, a.dim):
            gens.append(vadd(a.c[i][j], a.c[j][i]))
    span = Subspace.span(a.dim, gens)
    while True:
        extra = []
        for v in span.basis:
            for k in range(a.dim):
                extra.append(a.lmul_basis(k, v))
                extra.append(a.rmul_basis(v, k))
        grown = span.add(Subspace.span(a.dim, extra))
        if grown.dim == span.dim:
            return grown
        span = grown


def kernel_of_lambda(a: StructureAlgebra) -> Subspace:
    """{x : lambda(x) = 0}, the kernel of the left-multiplication map."""
    from .linalg import kernel_basis

    rows = []
    for j in range(a.dim):
        for k in range(a.dim):
            rows.append(tuple(a.c[i][j][k] for i in range(a.dim)))
    ker = kernel_basis(Matrix(tuple(rows))) if rows else []
    return Subspace.span(a.dim, ker)


def is_ideal(a: StructureAlgebra, s: Subspace) -> bool:
    if s.ambient_dim != a.dim:
        raise ValueError("ambient dimension mismatch")
    for v in s.basis:
        for k in range(a.dim):
            if not s.contains(a.lmul_basis(k, v)):
                return False
            if not s.contains(a.rmul_basis(v, k)):
                return False
    return True


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Algebra on the concatenated bases with vanishing cross products."""
    products = dict(a.sparse.entries)
    for (i, j), cell in b.sparse.entries.items():
        products[(a.dim + i, a.dim + j)] = {a.dim + k: x for k, x in cell.items()}
    names = tuple(f"a{i+1}" for i in range(a.dim)) + tuple(f"b{i+1}" for i in range(b.dim))
    return StructureAlgebra.from_products(a.dim + b.dim, products, names,
                                          f"{a.name}+{b.name}" if a.name and b.name else "")


def quotient_algebra(a: StructureAlgebra, m: Subspace) -> tuple[StructureAlgebra, Matrix]:
    """Quotient algebra A/M and the quotient map as a matrix.

    The quotient basis consists of the standard coordinates outside the pivot
    set of M's rref basis; the canonical coset representative of such a basis
    vector is the standard vector itself.
    """
    if not is_ideal(a, m):
        raise NotAnIdealError("subspace is not a two-sided ideal")
    comp = m.complement_coords
    qdim = len(comp)

    def coords(v: Vec) -> Vec:
        red = m.reduce(v)
        return tuple(red[j] for j in comp)

    qmat = Matrix.from_cols([coords(basis_vec(a.dim, j)) for j in range(a.dim)])
    c = tuple(tuple(coords(a.product(basis_vec(a.dim, ca), basis_vec(a.dim, cb)))
                    for cb in comp)
              for ca in comp)
    names = tuple(a.basis_names[j] for j in comp)
    quotient = StructureAlgebra(qdim, c, names, f"{a.name}/M" if a.name else "")
    return quotient, qmat


def matrix_lie_algebra(n: int, mats: Sequence[Matrix], prefix: str, name: str = ""
                       ) -> tuple[StructureAlgebra, tuple[Matrix, ...], Subspace]:
    """Lie algebra spanned by n x n matrices under the commutator.

    Returns the algebra on the canonical basis of the span, with basis names
    prefix1, prefix2, ..., that basis as matrices, and the span of the
    flattened matrices, whose coords(m.flat) are a member's coordinates.
    Raises ValueError when a commutator leaves the span.
    """
    span = Subspace.span(n * n, [m.flat for m in mats])
    basis = tuple(Matrix.from_flat(r, n) for r in span.basis)
    c = tuple(tuple(span.coords(commutator(p, q).flat) for q in basis) for p in basis)
    names = tuple(f"{prefix}{a+1}" for a in range(span.dim))
    return StructureAlgebra(span.dim, c, names, name), basis, span
