"""Lie-Yamaguti structures: a binary and a ternary operation in tandem.

The six axioms (LY1-LY6) say the binary product is skew, the ternary is skew
in its first two slots, the two operations satisfy the mixed Jacobi-type
cyclic identities, and each delta(x, y) = {x, y, -} is a derivation of both
operations. Every Leibniz algebra carries such a structure (skew product plus
{x, y, z} = -(x.y).z / 4), and every reductive decomposition g = h (+) m
induces one on m by projecting the bracket and composing through h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import StructureAlgebra, Subspace, matrix_lie_algebra
from .linalg import (
    Matrix,
    Q,
    Vec,
    as_q,
    basis_vec,
    inverse,
    is_zero_vec,
    vadd,
    vneg,
    vzero,
)
from .products import ModuleAction, action_products
from .tensor import SparseTensor, first_failure, skew_failure

BinTensor = tuple[tuple[Vec, ...], ...]
TernTensor = tuple[tuple[tuple[Vec, ...], ...], ...]


@dataclass(frozen=True)
class LYReport:
    ok: bool
    axiom: str | None = None
    at: tuple[int, ...] | None = None


@dataclass(frozen=True)
class LieYamaguti:
    dim: int
    b: BinTensor
    t: TernTensor

    @staticmethod
    def from_tensors(b: Sequence, t: Sequence) -> "LieYamaguti":
        dim = len(b)
        bt = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in b)
        tt = tuple(tuple(tuple(tuple(as_q(x) for x in cell) for cell in row)
                         for row in plane) for plane in t)
        if any(len(row) != dim for row in bt) or any(len(cell) != dim for row in bt for cell in row):
            raise ValueError("binary tensor is not dim^3")
        if len(tt) != dim or any(len(p) != dim for p in tt) \
                or any(len(r) != dim for p in tt for r in p) \
                or any(len(c) != dim for p in tt for r in p for c in r):
            raise ValueError("ternary tensor is not dim^4")
        return LieYamaguti(dim, bt, tt)

    def sparse(self) -> tuple[SparseTensor, SparseTensor]:
        """Nonzero (i, j) -> {k: c} of b and (i, j, k) -> {l: c} of t.

        Built per call and not cached: callers keep many structures alive
        (one per perturbation, say) and each validates once, so a cached
        view would only hold memory.
        """
        return SparseTensor(self.b, 2), SparseTensor(self.t, 3)

    def binary(self, x: Vec, y: Vec) -> Vec:
        return SparseTensor(self.b, 2).contract(x, y)

    def ternary(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return SparseTensor(self.t, 3).contract(x, y, z)


def validate_ly(ly: LieYamaguti) -> LYReport:
    """Check LY1-LY6 on full basis tuple ranges, lexicographic first failure.

    With b the binary and t the ternary tensor, on basis elements:

      LY1  b(i, j) + b(j, i) = 0
      LY2  t(i, j, k) + t(j, i, k) = 0
      LY3  sum over cyclic (x, y, z) of (i, j, k): b(b(x, y), z) + t(x, y, z) = 0
      LY4  sum over cyclic (x, y, z) of (i, j, k): t(b(x, y), z, u) = 0
      LY5  t(i, j, b(u, v)) = b(t(i, j, u), v) + b(u, t(i, j, v))
      LY6  t(i, j, t(u, v, w)) = t(t(i, j, u), v, w) + t(u, t(i, j, v), w)
                                 + t(u, v, t(i, j, w))
    """
    b, t = ly.sparse()
    cyclic = ("ijk", "jki", "kij")
    for name, variables, terms in (
            ("LY1", "ij", [(1, b, "ij"), (1, b, "ji")]),
            ("LY2", "ijk", [(1, t, "ijk"), (1, t, "jik")]),
            ("LY3", "ijk", [term for x, y, z in cyclic
                            for term in ((1, b, "*" + z, b, x + y), (1, t, x + y + z))]),
            ("LY4", "ijku", [(1, t, "*" + z + "u", b, x + y) for x, y, z in cyclic]),
            ("LY5", "ijuv", [(1, t, "ij*", b, "uv"), (-1, b, "*v", t, "iju"),
                             (-1, b, "u*", t, "ijv")]),
            ("LY6", "ijuvw", [(1, t, "ij*", t, "uvw"), (-1, t, "*vw", t, "iju"),
                              (-1, t, "u*w", t, "ijv"), (-1, t, "uv*", t, "ijw")])):
        at = first_failure(ly.dim, variables, terms)
        if at is not None:
            return LYReport(False, name, at)
    return LYReport(True)


def ly_from_leibniz(e: StructureAlgebra) -> LieYamaguti:
    """Skew product plus ternary {x, y, z} = -(x.y).z / 4 on a Leibniz algebra."""
    ok, witness = e.check_leibniz()
    if not ok:
        raise ValueError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    quarter = Q(-1, 4)
    b = tuple(tuple(e.skew_product(basis_vec(n, i), basis_vec(n, j)) for j in range(n))
              for i in range(n))
    t = tuple(tuple(tuple(tuple(quarter * x for x in e.rmul_basis(e.c[i][j], k))
                          for k in range(n))
                    for j in range(n))
              for i in range(n))
    return LieYamaguti(n, b, t)


def ly_from_decomposition(g: StructureAlgebra,
                          h_basis: Subspace | Sequence[Vec],
                          m_basis: Subspace | Sequence[Vec]) -> LieYamaguti:
    """LY structure on m from a reductive decomposition g = h (+) m.

    Binary: m-projection of the bracket. Ternary: {x, y, z} = [h-part of
    [x, y], z]. Tensors are written in the supplied m basis (a Subspace
    contributes its canonical rref basis).
    """
    if not g.is_lie:
        raise ValueError("g is not a Lie algebra")
    hb = list(h_basis.basis if isinstance(h_basis, Subspace) else map(tuple, h_basis))
    mb = list(m_basis.basis if isinstance(m_basis, Subspace) else map(tuple, m_basis))
    n = g.dim
    if len(hb) + len(mb) != n:
        raise ValueError("h and m dimensions do not fill g")
    cols = hb + mb
    basis_mat = Matrix.from_cols(cols)
    inv = inverse(basis_mat)
    if inv is None:
        raise ValueError("h and m do not form a direct sum decomposition")
    hd, md = len(hb), len(mb)

    def split(v: Vec) -> tuple[Vec, Vec]:
        z = inv.apply(v)
        return z[:hd], z[hd:]

    for a in range(hd):
        for bb in range(a + 1, hd):
            _, mpart = split(g.product(hb[a], hb[bb]))
            if not is_zero_vec(mpart):
                raise ValueError(f"h is not a subalgebra at basis pair ({a}, {bb})")
    for a in range(hd):
        for i in range(md):
            hpart, _ = split(g.product(hb[a], mb[i]))
            if not is_zero_vec(hpart):
                raise ValueError(f"decomposition is not reductive at (h {a}, m {i})")

    bt = []
    tt = []
    for i in range(md):
        brow = []
        trow = []
        for j in range(md):
            hpart, mpart = split(g.product(mb[i], mb[j]))
            brow.append(mpart)
            delta_amb = vzero(n)
            for a, ca in enumerate(hpart):
                if ca != 0:
                    delta_amb = vadd(delta_amb, tuple(ca * x for x in hb[a]))
            cell = []
            for k in range(md):
                hres, mres = split(g.product(delta_amb, mb[k]))
                if not is_zero_vec(hres):
                    raise ValueError("decomposition is not reductive")
                cell.append(mres)
            trow.append(tuple(cell))
        bt.append(tuple(brow))
        tt.append(tuple(trow))
    return LieYamaguti(md, tuple(bt), tuple(tt))


# -- inner derivations and the envelope ---------------------------------------

def delta_matrix(ly: LieYamaguti, i: int, j: int) -> Matrix:
    """Matrix of delta(e_i, e_j) = {e_i, e_j, -}."""
    return Matrix.from_cols([ly.t[i][j][k] for k in range(ly.dim)])


def inner_derivations(ly: LieYamaguti) -> tuple[list[Matrix], Subspace]:
    """Generator matrices delta(e_i, e_j) for i < j, and their span in gl(m)."""
    n = ly.dim
    gens = [delta_matrix(ly, i, j) for i in range(n) for j in range(i + 1, n)]
    return gens, Subspace.span(n * n, [m.flat for m in gens])


@dataclass(frozen=True)
class LYEnvelope:
    g: StructureAlgebra
    h: StructureAlgebra
    action: ModuleAction
    delta: tuple[tuple[Vec, ...], ...]  # delta[i][j] in h coordinates

    @property
    def h_dim(self) -> int:
        return self.h.dim

    @property
    def m_dim(self) -> int:
        return self.g.dim - self.h.dim


def ly_envelope(ly: LieYamaguti,
                h: StructureAlgebra | None = None,
                action: ModuleAction | None = None,
                delta: Sequence[Sequence[Vec]] | None = None) -> LYEnvelope:
    """Lie algebra g = h (+) m with bracket

        [xi + x, eta + y] = ([xi, eta] + Delta(x, y)) + (xi y - eta x + <<x, y>>)

    Defaults to h = span of inner derivations with Delta = delta. An explicit
    (h, action, delta) is validated against the three delta conditions first.
    """
    n = ly.dim
    if (h is None) != (action is None) or (h is None) != (delta is None):
        raise ValueError("supply h, action and delta together or none of them")

    if h is None:
        try:
            h, mats, span = matrix_lie_algebra(n, inner_derivations(ly)[0], "d")
        except ValueError:
            raise ValueError("inner derivations do not close under commutators") from None
        action = ModuleAction(h, mats, space_dim=n)
        delta_t = tuple(tuple(span.coords(delta_matrix(ly, i, j).flat) for j in range(n))
                        for i in range(n))
        d = SparseTensor(delta_t, 2)
    else:
        delta_t = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in delta)
        if action.v_dim != n:
            raise ValueError("action matrices do not act on the LY space")
        d = SparseTensor(delta_t, 2)
        _check_delta(ly, h, action, d)

    hd = h.dim
    products = action_products(action, 1, -1)
    for (i, j), cell in d.entries.items():
        products[(hd + i, hd + j)] = dict(cell)
    for (i, j), cell in SparseTensor(ly.b, 2).entries.items():
        products.setdefault((hd + i, hd + j), {}).update({hd + k: x for k, x in cell.items()})
    names = tuple(h.basis_names) + tuple(f"m{i+1}" for i in range(n))
    g = StructureAlgebra.from_products(hd + n, products, names)
    if not g.check_lie():
        raise ValueError("envelope bracket fails Jacobi")
    return LYEnvelope(g, h, action, delta_t)


def _check_delta(ly: LieYamaguti, h: StructureAlgebra, action: ModuleAction,
                 d: SparseTensor) -> None:
    """Delta(x, y) is skew, acts as {x, y, -}, is h-equivariant, and its
    cyclic sum over the binary vanishes; raises at the first failing tuple."""
    b, t = ly.sparse()
    rho = action.sparse  # (a, k) -> rho(e_a) e_k
    at = skew_failure(d)
    if at is not None:
        raise ValueError(f"delta is not skew at {at}")
    at = first_failure(ly.dim, "ijk", [(1, rho, "*k", d, "ij"), (-1, t, "ijk")])
    if at is not None:
        raise ValueError(f"delta1 fails at {at}: delta does not act as the ternary")
    at = first_failure(h.dim, "aij", [(1, h.sparse, "a*", d, "ij"), (-1, d, "*j", rho, "ai"),
                                      (-1, d, "i*", rho, "aj")])
    if at is not None:
        raise ValueError(f"delta2 fails at (h {at[0]}, {at[1]}, {at[2]}): not equivariant")
    at = first_failure(ly.dim, "ijk",
                       [(1, d, "*" + z, b, x + y) for x, y, z in ("ijk", "jki", "kij")])
    if at is not None:
        raise ValueError(f"delta3 fails at {at}: cyclic sum over the binary")


def torsion_curvature(ly: LieYamaguti) -> tuple[BinTensor, TernTensor]:
    """Canonical-connection tensors of the structure: T = -binary, R = -ternary."""
    tb = tuple(tuple(vneg(cell) for cell in row) for row in ly.b)
    tt = tuple(tuple(tuple(vneg(cell) for cell in row) for row in plane) for plane in ly.t)
    return tb, tt
