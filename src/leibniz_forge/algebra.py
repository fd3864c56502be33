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
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Q,
    Scalar,
    Vec,
    _eliminate,
    _insert_row,
    _kernel,
    _read,
    as_q,
    basis_vec,
    inverse,
    rref,
    vadd,
    vscale,
    vsub,
)
from .tensor import SparseTensor, _add, first_failure, materialize, skew_failure


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

    def __post_init__(self) -> None:
        c, dim = self.c, self.dim
        if len(c) != dim or {*map(len, c), *map(len, chain.from_iterable(c))} - {dim}:
            raise ValueError("structure tensor is not dim x dim x dim")
        if len(self.basis_names) != dim or len(set(self.basis_names)) != dim:
            raise ValueError("basis names must be distinct and match the dimension")

    @staticmethod
    def from_constants(c: Sequence[Sequence[Sequence[Scalar]]],
                       basis_names: Sequence[str] | None = None,
                       name: str = "") -> "StructureAlgebra":
        dim = len(c)
        tensor = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in c)
        names = tuple(basis_names) if basis_names is not None else tuple(f"e{i+1}" for i in range(dim))
        return StructureAlgebra(dim, tensor, names, name)

    @staticmethod
    def from_products(dim: int,
                      products: Mapping[tuple[int, int], Mapping[int, Scalar]],
                      basis_names: Sequence[str] | None = None,
                      name: str = "") -> "StructureAlgebra":
        """Sparse constructor: omitted basis products are zero. Keys are pairs (i, j) and
        outputs indices k, all in 0..dim-1; anything else is a ValueError."""
        cells = {key: {k: as_q(x) for k, x in out.items()} for key, out in products.items()}
        for key, cell in cells.items():
            if not (type(key) is tuple and len(key) == 2) or any(
                    not isinstance(i, int) or not 0 <= i < dim for i in (*key, *cell)):
                raise ValueError(f"basis product {key!r} -> {list(cell)!r} is not over 0..{dim - 1}")
        names = tuple(basis_names) if basis_names is not None else tuple(f"e{i+1}" for i in range(dim))
        return StructureAlgebra(dim, materialize(dim, 2, cells), names, name)

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
        return self.sparse.contract(x, y)

    def lmul_basis(self, i: int, v: Vec) -> Vec:
        """e_i . v"""
        return self.sparse.contract(i, v)

    def rmul_basis(self, v: Vec, j: int) -> Vec:
        """v . e_j"""
        return self.sparse.contract(v, j)

    def left_mul(self, x: Vec) -> Matrix:
        """Matrix of lambda(x): y -> x . y in the algebra basis."""
        if len(x) != self.dim:
            raise ValueError("vector length does not match the dimension")
        cols = [self.rmul_basis(x, j) for j in range(self.dim)]
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
        """Cyclic Jacobi sum on all basis triples (no skewness assumed); on i < j < k only
        for a skew product, whose cyclic sum of (x y) z is then totally antisymmetric."""
        c = self.sparse
        return first_failure(self.dim, "ijk", [(1, c, "*k", c, "ij"), (1, c, "*i", c, "jk"),
                                               (1, c, "*j", c, "ki")],
                             3 if self.is_skew else 0) is None

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
        cells: dict = {}
        for (i, j), cell in self.sparse.entries.items():
            _add(cells, (i, j), cell, Q(1, 2))
            _add(cells, (j, i), cell, Q(-1, 2))
        return StructureAlgebra(self.dim, materialize(self.dim, 2, cells), self.basis_names,
                                self.name)

    def skew_product(self, x: Vec, y: Vec) -> Vec:
        return vscale(Q(1, 2), vsub(self.product(x, y), self.product(y, x)))

    def change_basis(self, p: Matrix) -> "StructureAlgebra":
        """Structure constants in the new basis u_a = (column a of p): u_a . u_b =
        sum P_ia P_jb c_ij over the nonzero cells and the nonzero entries of p's rows,
        each nonzero product then mapped by the nonzero entries of p^-1's columns."""
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("change of basis must be dim x dim")
        pinv = inverse(p)
        if pinv is None:
            raise ValueError("change of basis must be invertible")
        rows = [{a: x for a, x in enumerate(r) if x} for r in p.entries]
        products: dict = {}
        for (i, j), cell in self.sparse.entries.items():
            for a, x in rows[i].items():
                for b, y in rows[j].items():
                    _add(products, (a, b), cell, x * y)
        cols = [{l: x for l, x in enumerate(pinv.col(k)) if x} for k in range(self.dim)]
        cells: dict = {}
        for ab, cell in products.items():
            for k, z in cell.items():
                _add(cells, ab, cols[k], z)
        return StructureAlgebra.from_products(self.dim, cells, self.basis_names, self.name)


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
        red, pivots = rref(Matrix(tuple(rows)))
        return Subspace(ambient_dim, red.entries[:len(pivots)])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def whole(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(basis_vec(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _rows(self) -> dict[int, dict[int, int]]:
        """The basis as canonical integer rows (linalg._eliminate), built once. The basis must
        be canonical rref rows of int or Fraction entries and length ambient_dim: pivots of 1
        moving strictly right, and 0 in every other row."""
        rows: dict[int, dict[int, int]] = {}
        for b in self.basis:
            r = {j: x for j, x in enumerate(b) if x}
            p = min(r, default=-1)
            if len(b) != self.ambient_dim or p <= next(reversed(rows), -1) or r[p] != 1 \
                    or not all(isinstance(x, (int, Q)) for x in b):
                break
            rows[p] = _eliminate(r, {})[0]  # r times the lcm of its denominators
        if len(rows) < len(self.basis) or any(len(rows.keys() & r.keys()) > 1 for r in rows.values()):
            raise ValueError(f"subspace basis is not canonical rref in Q^{self.ambient_dim}")
        return rows

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    @property
    def complement_coords(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.ambient_dim) if j not in self._rows)

    def _cleared(self, v: dict[int, Scalar]) -> dict[int, Q]:
        """The nonzero entries of v (column -> entry) left after clearing every pivot."""
        nums, den = _eliminate(v, self._rows)
        return {j: Q(x, den) for j, x in nums.items()}

    def _residual(self, v: Sequence[Scalar]) -> tuple[Vec, dict[int, Q]]:
        """v as exact entries, and the nonzero entries left after clearing every pivot."""
        w = tuple(as_q(x) for x in v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        return w, self._cleared({j: x for j, x in enumerate(w) if x})

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Residual of v after eliminating every pivot coordinate."""
        rest = self._residual(v)[1]
        return tuple(rest.get(j, Q(0)) for j in range(self.ambient_dim))

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not self._residual(v)[1]

    def coords(self, v: Sequence[Scalar]) -> Vec:
        """Coefficients of v in the rref basis (its pivot entries); v must lie in the span."""
        w, rest = self._residual(v)
        if rest:
            raise ValueError("vector is not in the subspace")
        return tuple(w[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.ambient_dim, self.basis + other.basis)


# -- ideals and quotients -----------------------------------------------------

def squares_ideal(a: StructureAlgebra) -> Subspace:
    """Two-sided ideal generated by all squares x . x.

    The squares are polarized to e_i.e_i and e_i.e_j + e_j.e_i of the nonzero cells,
    then closed under left and right multiplication by basis elements in rounds on
    one set of canonical integer rows from the integer cells: a round adds the 2n products
    of each row the last round added, read with 0 at every pivot so far. Rows so read are
    independent, so they span the ideal when a round adds no row. Canonical rows depend
    neither on insertion order nor on zero generators, nor on scaling the constants.
    """
    n, rows, done, new, cells = a.dim, {}, set(), _squares(a), a.sparse.scaled[0].items()
    while new:
        for v in new.values():
            _insert_row(rows, v)
        added = [rows[p] for p in sorted(rows.keys() - done)]
        done |= rows.keys()
        new = {}
        for r, v in enumerate(added):
            for (i, j), cell in cells:  # e_i . v and v . e_j
                if j in v:
                    _add(new, (r, 0, i), cell, v[j])
                if i in v:
                    _add(new, (r, 1, j), cell, v[i])
    return Subspace(n, _read(rows, n))


def _squares(a: StructureAlgebra) -> dict[tuple[int, int], dict[int, int]]:
    """e_i.e_j + e_j.e_i at (i, j), i < j, and e_i.e_i at (i, i), of the integer cells."""
    out: dict = {}
    for (i, j), cell in a.sparse.scaled[0].items():
        _add(out, (min(i, j), max(i, j)), cell, 1)
    return out


def kernel_of_lambda(a: StructureAlgebra) -> Subspace:
    """{x : lambda(x) = 0}, the kernel of the left-multiplication map: the null space
    of the rows (j, k) -> {i: c_ij^k}, read from the nonzero cells."""
    lam: dict[tuple[int, int], dict[int, Q]] = {}
    for (i, j), cell in a.sparse.entries.items():
        for k, x in cell.items():
            lam.setdefault((j, k), {})[i] = x
    return Subspace.span(a.dim, _kernel(lam.values(), a.dim))


def is_ideal(a: StructureAlgebra, s: Subspace) -> bool:
    if s.ambient_dim != a.dim:
        raise ValueError("ambient dimension mismatch")
    for v in s.basis:
        for k in range(a.dim):
            if not (s.contains(a.lmul_basis(k, v)) and s.contains(a.rmul_basis(v, k))):
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
    return _quotient(a, m)


def _quotient(a: StructureAlgebra, m: Subspace) -> tuple[StructureAlgebra, Matrix]:
    """quotient_algebra for an m already known to be an ideal: each nonzero cell on the
    complement, cleared at M's pivots."""
    comp = m.complement_coords
    pos = {j: q for q, j in enumerate(comp)}
    products = {(pos[i], pos[j]): {pos[k]: x for k, x in m._cleared(cell).items()}
                for (i, j), cell in a.sparse.entries.items() if i in pos and j in pos}
    cols = [m._cleared({j: 1}) for j in range(a.dim)]  # e_j cleared at the pivots
    qmat = Matrix.from_cols([tuple(col.get(k, Q(0)) for k in comp) for col in cols])
    return StructureAlgebra.from_products(len(comp), products, [a.basis_names[j] for j in comp],
                                          f"{a.name}/M" if a.name else ""), qmat
