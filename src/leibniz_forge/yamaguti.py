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

from .algebra import StructureAlgebra, Subspace
from .linalg import Matrix, Q, Vec, _insert_row, as_q, is_zero_vec
from .products import ModuleAction, action_products, matrix_lie_algebra
from .tensor import SparseTensor, _add, first_failure, materialize, skew_failure

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
        return LieYamaguti(dim, materialize(dim, 2, SparseTensor(bt, 2).entries),
                           materialize(dim, 3, SparseTensor(tt, 3).entries))

    def sparse(self) -> tuple[SparseTensor, SparseTensor]:
        """Nonzero (i, j) -> {k: c} of b and (i, j, k) -> {l: c} of t.

        Built per call and not cached: callers keep many structures alive
        (one per perturbation, say) and each validates once, so a cached
        view would only hold memory. The library's structures share one
        all-zero cell and one zero per tensor, which the view skips by
        identity; validate_ly checks skewness (LY1, LY2) by partner lookup.
        """
        return SparseTensor(self.b, 2), SparseTensor(self.t, 3)

    def binary(self, x: Vec, y: Vec) -> Vec:
        return SparseTensor(self.b, 2).contract(x, y)

    def ternary(self, x: Vec, y: Vec, z: Vec) -> Vec:
        return SparseTensor(self.t, 3).contract(x, y, z)


def validate_ly(ly: LieYamaguti) -> LYReport:
    """Check LY1-LY6 on basis tuples; the lexicographically first failure.

    With b the binary and t the ternary tensor, on basis elements:

      LY1  b(i, j) + b(j, i) = 0          (by partner lookup: skew_failure(b))
      LY2  t(i, j, k) + t(j, i, k) = 0    (by partner lookup: skew_failure(t))
      LY3  sum over cyclic (x, y, z) of (i, j, k): b(b(x, y), z) + t(x, y, z) = 0
      LY4  sum over cyclic (x, y, z) of (i, j, k): t(b(x, y), z, u) = 0
      LY5  t(i, j, b(u, v)) = b(t(i, j, u), v) + b(u, t(i, j, v))
      LY6  t(i, j, t(u, v, w)) = t(t(i, j, u), v, w) + t(u, t(i, j, v), w)
                                 + t(u, v, t(i, j, w))

    Once LY1 and LY2 hold, symmetry decides part of each scan and keeps its first
    failure. LY3 and LY4 run on i < j < k (first_failure's increasing prefix): each is
    a cyclic sum over (i, j, k) of a term skew in its first two variables, so it is
    totally antisymmetric. LY5 and LY6 run on the kept pairs, the i < j whose
    D = delta(e_i, e_j) adds a pivot when the nonzero D go in key order into one set of
    canonical rows. Both residuals at (i, j) are linear in D (D derives b and t), LY2
    gives D(j, i) = -D(i, j) and D(i, i) = 0, and a pair not kept has its D in the span
    of the kept pairs before it: if it fails, one of those fails, so the first is kept.
    """
    b, t = ly.sparse()
    for name, tensor in (("LY1", b), ("LY2", t)):
        if (at := skew_failure(tensor)) is not None:
            return LYReport(False, name, at)
    n, cyclic = ly.dim, ("ijk", "jki", "kij")
    for name, variables, terms in (
            ("LY3", "ijk", [term for x, y, z in cyclic
                            for term in ((1, b, "*" + z, b, x + y), (1, t, x + y + z))]),
            ("LY4", "ijku", [(1, t, "*" + z + "u", b, x + y) for x, y, z in cyclic])):
        if (at := first_failure(n, variables, terms, increasing=3)) is not None:
            return LYReport(False, name, at)
    rows: dict = {}
    kept = [(i, j) for (i, j), cells in sorted(t.group((0, 1), True).items()) if i < j
            and _insert_row(rows, {k * n + l: x for (_, _, k), cell in cells
                                   for l, x in cell.items()})]
    for name, variables, terms in (
            ("LY5", "ijuv", [(1, t, "ij*", b, "uv"), (-1, b, "*v", t, "iju"),
                             (-1, b, "u*", t, "ijv")]),
            ("LY6", "ijuvw", [(1, t, "ij*", t, "uvw"), (-1, t, "*vw", t, "iju"),
                              (-1, t, "u*w", t, "ijv"), (-1, t, "uv*", t, "ijw")])):
        if (at := first_failure(n, variables, terms, slices=kept)) is not None:
            return LYReport(False, name, at)
    return LYReport(True)


def ly_from_leibniz(e: StructureAlgebra) -> LieYamaguti:
    """Skew product plus ternary {x, y, z} = -(x.y).z / 4 on a Leibniz algebra."""
    ok, witness = e.check_leibniz()
    if not ok:
        raise ValueError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n, c = e.dim, e.sparse
    t: dict = {}  # cells (i, j, k) -> {l: x}
    for (i, j), cell in c.entries.items():
        for l, x in cell.items():
            for (_, k), lk in c.group((0,)).get((l,), ()):
                _add(t, (i, j, k), lk, Q(-1, 4) * x)
    return LieYamaguti(n, e.skew_symmetrize().c, materialize(n, 3, t))


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
    n, hd = g.dim, len(hb)
    if hd + len(mb) != n:
        raise ValueError("h and m dimensions do not fill g")
    basis = Matrix.from_cols(hb + mb)
    try:
        ghm = g.change_basis(basis)  # the bracket in the basis (h, m)
    except ValueError:  # the vectors are not n long, or not independent
        raise ValueError("h and m do not form a direct sum decomposition") from None
    c = ghm.c
    for a in range(hd):
        for bb in range(a + 1, hd):
            if not is_zero_vec(c[a][bb][hd:]):
                raise ValueError(f"h is not a subalgebra at basis pair ({a}, {bb})")
    for a in range(hd):
        for i in range(hd, n):
            if not is_zero_vec(c[a][i][:hd]):
                raise ValueError(f"decomposition is not reductive at (h {a}, m {i - hd})")
    # {x, y, z} = [Delta, z] with Delta = sum_a c_a h_a the h-part of [x, y]. Each
    # [h_a, z] lies in m (checked above), so by bilinearity [Delta, z] has no h-part.
    m_zero = (Q(0),) * (n - hd)
    pairs = [(i, j) for i, j in ghm.sparse.entries if min(i, j) >= hd]  # nonzero [x, y] in m
    b = {(i - hd, j - hd): dict(enumerate(c[i][j][hd:])) for i, j in pairs}
    t = {(i - hd, j - hd, k - hd): dict(enumerate(ghm.rmul_basis(c[i][j][:hd] + m_zero, k)[hd:]))
         for i, j in pairs for k in range(hd, n)}
    return LieYamaguti(n - hd, materialize(n - hd, 2, b), materialize(n - hd, 3, t))


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

    Defaults to h = span of inner derivations with Delta = delta, once the
    ternary is skew in its first two slots. An explicit (h, action, delta) is
    validated against the three delta conditions first.
    """
    n, (b, t) = ly.dim, ly.sparse()
    if (h is None) != (action is None) or (h is None) != (delta is None):
        raise ValueError("supply h, action and delta together or none of them")

    if h is None:
        at = skew_failure(t)
        if at is not None:
            raise ValueError(f"delta is not skew at {at}")
        gens = {(i, j): delta_matrix(ly, i, j) for i in range(n) for j in range(i + 1, n)}
        try:
            action, span = matrix_lie_algebra(n, list(gens.values()), "d")
        except ValueError:
            raise ValueError("inner derivations do not close under commutators") from None
        h = action.h
        # a generator's coordinates are its entries at the pivots; t is skew: the rest follow
        up = {key: tuple(m[divmod(p, n)] for p in span.pivots) for key, m in gens.items()}
        delta_t = tuple(tuple(up[i, j] if i < j else tuple(-x for x in up[j, i]) if j < i
                              else (Q(0),) * h.dim for j in range(n)) for i in range(n))
    else:
        delta_t = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in delta)
        if action.v_dim != n:
            raise ValueError("action matrices do not act on the LY space")
    d = SparseTensor(delta_t, 2)
    if delta is not None:
        _check_delta(ly, b, t, h, action, d)

    hd = h.dim
    products = action_products(action, 1, -1)
    for (i, j), cell in d.entries.items():
        products[(hd + i, hd + j)] = dict(cell)
    for (i, j), cell in b.entries.items():
        products.setdefault((hd + i, hd + j), {}).update({hd + k: x for k, x in cell.items()})
    names = tuple(h.basis_names) + tuple(f"m{i+1}" for i in range(n))
    g = StructureAlgebra.from_products(hd + n, products, names)
    if not g.check_lie():
        raise ValueError("envelope bracket fails Jacobi")
    return LYEnvelope(g, h, action, delta_t)


def _check_delta(ly: LieYamaguti, b: SparseTensor, t: SparseTensor, h: StructureAlgebra,
                 action: ModuleAction, d: SparseTensor) -> None:
    """Delta(x, y) is skew, acts as the ternary t, is h-equivariant, and its
    cyclic sum over the binary b vanishes; raises at the first failing tuple."""
    rho = action.sparse  # rho: (a, k) -> rho(e_a) e_k
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
    return tuple(materialize(ly.dim, s.arity, {key: {k: -x for k, x in cell.items()}
                                               for key, cell in s.entries.items()})
                 for s in ly.sparse())
