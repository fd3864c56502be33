"""Products built from a Lie algebra acting on a vector space.

Given a Lie algebra h acting on V, three products live on h x V:

    semidirect Lie   [(a, x), (b, y)] = ([a, b], a y - b x)
    hemisemidirect   (a, x) . (b, y)  = ([a, b], a y)
    demisemidirect   (a, x) . (b, y)  = ([a, b], (a y - b x) / 2)

The hemisemidirect product is Leibniz but almost never Lie; the
demisemidirect product is its skew-symmetrization. With h = gl(V) and the
tautological action these are the two omni algebras on gl(V) x V. The graph
of left multiplication inside them turns the Leibniz and Lie conditions into
closure conditions, which graph_criterion evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebra import StructureAlgebra, Subspace
from .linalg import Matrix, Q, Scalar, Vec, vadd, vscale, vzero
from .tensor import SparseTensor, first_failure, skew_failure


class InvalidActionError(ValueError):
    pass


@dataclass(frozen=True)
class ModuleAction:
    """Lie algebra representation: one matrix per basis element of h.

    Construction validates shapes, that h is Lie, and that the assignment is a
    homomorphism into commutators on all basis pairs. space_dim may be given
    explicitly for the h = 0 edge case; otherwise it is read off the matrices.

    The homomorphism check is one identity scan over (i, j, k) of column k of
    D(i, j) = [rho_i, rho_j] - rho(e_i e_j). For a Lie h, D is skew in (i, j)
    and zero at i = j, so the first failing triple has i < j and names the
    first failing pair of the loop over i < j; the scan reads only i < j.
    """

    h: StructureAlgebra
    mats: tuple[Matrix, ...]
    space_dim: int | None = None

    def __post_init__(self) -> None:
        if len(self.mats) != self.h.dim:
            raise InvalidActionError("one action matrix per h basis element is required")
        if self.space_dim is None:
            if not self.mats:
                raise InvalidActionError("space_dim is required when h is zero dimensional")
            object.__setattr__(self, "space_dim", self.mats[0].rows)
        for m in self.mats:
            if m.rows != self.space_dim or m.cols != self.space_dim:
                raise InvalidActionError("action matrices must be square of size space_dim")
        if not self.h.is_lie:
            raise InvalidActionError("h is not a Lie algebra")
        rho = self.sparse  # (a, k) -> rho(e_a) e_k
        at = first_failure(self.h.dim, "ijk", [(1, rho, "i*", rho, "jk"), (-1, rho, "j*", rho, "ik"),
                                               (-1, rho, "*k", self.h.sparse, "ij")], 2)
        if at is not None:
            raise InvalidActionError(f"action is not a Lie homomorphism at basis pair {at[:2]}")

    @property
    def v_dim(self) -> int:
        return self.space_dim or 0

    @cached_property
    def sparse(self) -> SparseTensor:
        """Nonzero action coefficients (a, k) -> {m: mats[a][m][k]}."""
        rho = SparseTensor(tuple(tuple(m.col(k) for k in range(self.v_dim))
                                 for m in self.mats), 2)
        rho.shape, rho.out_dim = (self.h.dim, self.v_dim), self.v_dim  # h = 0 hides them
        return rho

    def of(self, hvec: Vec) -> Matrix:
        """Action matrix of an arbitrary h vector, column k = rho(hvec) e_k."""
        return Matrix.from_cols([self.sparse.contract(hvec, k) for k in range(self.v_dim)])


def matrix_lie_algebra(n: int, mats: Sequence[Matrix], prefix: str, name: str = ""
                       ) -> tuple[ModuleAction, Subspace]:
    """Lie algebra spanned by n x n matrices under the commutator.

    Returns its action on Q^n by the span's canonical basis (prefix1, ...) and
    the span of the flattened matrices. Rref coordinates are pivot entries, so
    [p_a, p_b] is read there, and the action check rejects one outside the span.
    """
    span = Subspace.span(n * n, [m.flat for m in mats])
    basis = tuple(Matrix.from_flat(r, n) for r in span.basis)
    at = [divmod(p, n) for p in span.pivots]
    d = range(span.dim)
    pq = [[[sum(x * q.entries[t][s] for t, x in enumerate(p.entries[r]) if x) for r, s in at]
           for q in basis] for p in basis]  # p_a p_b at the pivots
    c = {(a, b): {k: x - y for k, (x, y) in enumerate(zip(pq[a][b], pq[b][a])) if x != y}
         for a in d for b in d}
    h = StructureAlgebra.from_products(span.dim, c, [f"{prefix}{a+1}" for a in d], name)
    return ModuleAction(h, basis, space_dim=n), span


def action_products(act: ModuleAction, left: Scalar, right: Scalar) -> dict:
    """Structure constants on h x V, h block first: the bracket of h, then
    e_a . v = left rho(e_a) v and v . e_a = right rho(e_a) v."""
    hd = act.h.dim
    products = {key: dict(cell) for key, cell in act.h.sparse.entries.items()}
    for (a, k), cell in act.sparse.entries.items():
        for key, coeff in (((a, hd + k), left), ((hd + k, a), right)):
            if coeff != 0:
                products[key] = {hd + m: coeff * x for m, x in cell.items()}
    return products


def _on_h_times_v(h: StructureAlgebra, act: ModuleAction, left: Scalar, right: Scalar,
                  name: str) -> StructureAlgebra:
    """The algebra on h x V with the products of action_products(act, left, right), on
    the basis of h and then v1, v2, ... (w1, w2, ... when h has a name among those)."""
    if h is not act.h and h != act.h:
        raise InvalidActionError("action is not an action of the supplied h")
    vnames = tuple(f"v{b+1}" for b in range(act.v_dim))
    if set(vnames) & set(h.basis_names):
        vnames = tuple(f"w{b+1}" for b in range(act.v_dim))
    return StructureAlgebra.from_products(h.dim + act.v_dim, action_products(act, left, right),
                                          h.basis_names + vnames, name)


def semidirect_lie(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    """h acting on an abelian copy of V; always a Lie algebra."""
    return _on_h_times_v(h, act, Q(1), Q(-1), name)


def hemisemidirect(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    """(a, x) . (b, y) = ([a, b], a y); Leibniz for every action."""
    return _on_h_times_v(h, act, Q(1), Q(0), name)


def demisemidirect(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    """Skew product ([a, b], (a y - b x)/2); generally fails Jacobi."""
    return _on_h_times_v(h, act, Q(1, 2), Q(-1, 2), name)


def circle_product(h: StructureAlgebra, act: ModuleAction, a: Vec, b: Vec) -> Vec:
    """Symmetric complement (0, (x y' + y x')/2) of the hemisemidirect product."""
    hd, vd = h.dim, act.v_dim
    if len(a) != hd + vd or len(b) != hd + vd:
        raise ValueError("vector length does not match h x V")
    xi, x = a[:hd], a[hd:]
    eta, y = b[:hd], b[hd:]
    sym = vscale(Q(1, 2), vadd(act.sparse.contract(xi, y), act.sparse.contract(eta, x)))
    return vzero(hd) + sym


# -- gl(V) and the omni algebras ---------------------------------------------

def gl_algebra(d: int) -> StructureAlgebra:
    """gl(d) with the row-major matrix-unit basis E11, E12, ..., Edd."""
    dim = d * d

    def idx(p: int, q: int) -> int:
        return p * d + q

    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for p in range(d):
        for q in range(d):
            for r in range(d):
                for s in range(d):
                    entry: dict[int, Fraction] = {}
                    if q == r:
                        entry[idx(p, s)] = entry.get(idx(p, s), Q(0)) + 1
                    if s == p:
                        entry[idx(r, q)] = entry.get(idx(r, q), Q(0)) - 1
                    entry = {k: v for k, v in entry.items() if v != 0}
                    if entry:
                        products[(idx(p, q), idx(r, s))] = entry
    names = tuple(f"E{p+1}{q+1}" for p in range(d) for q in range(d))
    return StructureAlgebra.from_products(dim, products, names, f"gl({d})")


def gl_action(d: int) -> ModuleAction:
    """Tautological action of gl(d) on column vectors."""
    h = gl_algebra(d)
    mats = []
    for p in range(d):
        for q in range(d):
            m = [[Q(0)] * d for _ in range(d)]
            m[p][q] = Q(1)
            mats.append(Matrix.from_rows(m))
    return ModuleAction(h, tuple(mats))


def omni_algebras(d: int) -> tuple[StructureAlgebra, StructureAlgebra]:
    """(hemisemidirect, demisemidirect) product on gl(d) x Q^d."""
    act = gl_action(d)
    return (hemisemidirect(act.h, act, f"omni_hemi({d})"),
            demisemidirect(act.h, act, f"omni_demi({d})"))


# -- graph criteria -----------------------------------------------------------

@dataclass(frozen=True)
class GraphCriterionReport:
    graph_closed_under_leibniz: bool
    graph_is_lie_subalgebra: bool
    circle_vanishes_on_graph: bool
    closure_witness: tuple[int, int] | None = None
    circle_witness: tuple[int, int] | None = None


def graph_criterion(a: StructureAlgebra) -> GraphCriterionReport:
    """Closure tests for the graph {(lambda(x), x)} inside gl(E) x E.

    A pair (X, u) lies on the graph iff X = lambda(u). Column k of
    [lambda(e_i), lambda(e_j)] - lambda(e_i . e_j) is the Leibniz defect
    e_i.(e_j.e_k) - (e_i.e_j).e_k - e_j.(e_i.e_k), so every condition is an
    identity on the structure constants:

      * the hemisemidirect product of graph elements lands on the graph iff
        the product is Leibniz; the first failing pair (i, j) is that of the
        first failing Leibniz triple;
      * the circle product vanishes on the graph iff the product is skew; the
        witness is the first (i, j) with e_i.e_j + e_j.e_i != 0;
      * for a skew product the demisemidirect bracket of graph elements is
        (lambda(x) lambda(y) - lambda(y) lambda(x), x.y), which lies on the
        graph iff the product is Leibniz. Then x -> (lambda(x), x) carries
        the product onto the graph bracket, whose Jacobi identity is that of
        a skew Leibniz product and holds. So the graph is a Lie subalgebra of
        the demisemidirect product with vanishing circle product iff the
        product is Lie.
    """
    closed, witness = a.check_leibniz()
    circle = skew_failure(a.sparse)
    return GraphCriterionReport(closed, closed and circle is None, circle is None,
                                None if closed else witness[:2], circle)
