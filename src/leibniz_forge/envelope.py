"""Enveloping Lie algebras of Leibniz algebras and their sections.

An envelope of an algebra E is a triple (g, h, f): a Lie algebra h acting on
E by derivations, an equivariant map f: E -> h such that acting by f(x)
reproduces left multiplication, and g the semidirect sum of h with the
underlying vector space of E made abelian. Coordinates on g put the h block
first, then the E block.

For each scalar s the section sigma_s(x) = (s f(x), x) embeds E as a
complement of h in g, and the E-projection of [sigma_s x, sigma_s y] is
2s times the skew product of x and y. Taking s = 1/2 recovers the skew
product on the nose, and sigma_1 embeds E into the hemisemidirect product of
h and E as a subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebra import (
    StructureAlgebra,
    Subspace,
    kernel_of_lambda,
    matrix_lie_algebra,
    quotient_algebra,
    squares_ideal,
)
from .linalg import (
    Matrix,
    Q,
    Scalar,
    Vec,
    as_q,
    basis_vec,
    is_zero_vec,
    kernel_basis,
    rref,
    vscale,
    vsub,
)
from .products import ModuleAction, hemisemidirect, semidirect_lie
from .tensor import SparseTensor, first_failure


class EnvelopeError(ValueError):
    pass


@dataclass(frozen=True)
class EnvelopeTriple:
    """Validated envelope; build through validate_envelope or canonical_envelope."""

    e: StructureAlgebra
    h: StructureAlgebra
    action: ModuleAction
    f: Matrix

    @cached_property
    def g(self) -> StructureAlgebra:
        return semidirect_lie(self.h, self.action,
                              name=f"env({self.e.name})" if self.e.name else "")

    @property
    def f_surjective(self) -> bool:
        return len(rref(self.f)[1]) == self.h.dim

    def f_of(self, x: Vec) -> Vec:
        return self.f.apply(x)


def validate_envelope(e: StructureAlgebra, h: StructureAlgebra,
                      action: ModuleAction, f: Matrix) -> EnvelopeTriple:
    """Check every envelope condition; raise EnvelopeError naming the first failure."""
    if action.h is not h:
        if action.h != h:
            raise EnvelopeError("action is not an action of the supplied h")
    if action.v_dim != e.dim:
        raise EnvelopeError("action matrices do not act on E")
    if f.rows != h.dim or f.cols != e.dim:
        raise EnvelopeError("f must map E to h")
    if not h.is_lie:
        raise EnvelopeError("h is not a Lie algebra")

    n, hd = e.dim, h.dim
    c, rho = e.sparse, action.sparse  # rho: (a, k) -> action.mats[a] e_k
    fs = SparseTensor(tuple(f.col(i) for i in range(n)), 1)  # i -> f(e_i)
    at = first_failure(hd, "aij", [(1, rho, "a*", c, "ij"), (-1, c, "*j", rho, "ai"),
                                   (-1, c, "i*", rho, "aj")])
    if at is not None:
        raise EnvelopeError(
            f"action matrix {at[0]} is not a derivation at basis pair ({at[1]}, {at[2]})")
    at = first_failure(hd, "ai", [(1, fs, "*", rho, "ai"), (-1, h.sparse, "a*", fs, "i")])
    if at is not None:
        raise EnvelopeError(f"f is not equivariant at (h basis {at[0]}, E basis {at[1]})")
    at = first_failure(n, "ij", [(1, rho, "*j", fs, "i"), (-1, c, "ij")])
    if at is not None:
        i, j = at
        raise EnvelopeError(
            f"acting by f(e_{i+1}) does not reproduce left multiplication at ({i}, {j})")

    # consequences of the axioms, asserted as a cross-check
    for i in range(n):
        for j in range(n):
            if f.apply(e.c[i][j]) != h.product(f.col(i), f.col(j)):
                raise EnvelopeError(f"f is not a homomorphism at basis pair ({i}, {j})")

    for v in squares_ideal(e).basis:
        if not is_zero_vec(f.apply(v)):
            raise EnvelopeError("squares ideal is not contained in ker f")
    for v in kernel_basis(f):
        if not e.left_mul(v).is_zero():
            raise EnvelopeError("ker f is not contained in ker lambda")

    return EnvelopeTriple(e, h, action, f)


def canonical_envelope(e: StructureAlgebra, m: Subspace) -> EnvelopeTriple:
    """Envelope with h = E/M for an ideal M squeezed between squares and ker lambda."""
    if m.ambient_dim != e.dim:
        raise EnvelopeError("ideal lives in the wrong ambient space")
    if not m.contains_subspace(squares_ideal(e)):
        raise EnvelopeError("ideal does not contain the squares ideal")
    if not kernel_of_lambda(e).contains_subspace(m):
        raise EnvelopeError("ideal is not contained in ker lambda")
    h, q = quotient_algebra(e, m)
    mats = tuple(e.left_mul(basis_vec(e.dim, cb)) for cb in m.complement_coords)
    action = ModuleAction(h, mats)
    return validate_envelope(e, h, action, q)


def lambda_envelope(e: StructureAlgebra) -> EnvelopeTriple:
    """Envelope whose h is the image of left multiplication inside gl(E)."""
    ok, witness = e.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    lams = [e.left_mul(basis_vec(n, i)) for i in range(n)]
    h, mats, span = matrix_lie_algebra(n, lams, "L", f"lam({e.name})" if e.name else "")
    f = Matrix.from_cols([span.coords(m.flat) for m in lams])
    return validate_envelope(e, h, ModuleAction(h, mats), f)


def section_sigma(t: EnvelopeTriple, s: Scalar) -> Matrix:
    """Matrix of sigma_s: E -> g, x -> (s f(x), x)."""
    sq = as_q(s)
    top = (t.f * sq).entries
    bottom = Matrix.identity(t.e.dim).entries
    return Matrix(top + bottom)


def projected_bracket_delta(t: EnvelopeTriple, s: Scalar, x: Vec, y: Vec) -> tuple[Vec, Vec]:
    """(E-projection, h-projection) of [sigma_s x, sigma_s y] in g.

    Projections follow the decomposition g = h (+) sigma_s(E): the E part is
    the plain E block, while the h part of (a, e) is a - s f(e). The first
    component equals 2s skew(x, y) and the second equals -s^2 f(skew(x, y)).
    """
    sq = as_q(s)
    sigma = section_sigma(t, sq)
    w = t.g.product(sigma.apply(x), sigma.apply(y))
    hd = t.h.dim
    h_raw, e_part = w[:hd], w[hd:]
    delta = vsub(h_raw, vscale(sq, t.f.apply(e_part)))
    return e_part, delta


def recovery_check(t: EnvelopeTriple) -> bool:
    """s = 1/2 recovery: E-projection of the sigma bracket is the skew product."""
    n = t.e.dim
    half = Q(1, 2)
    for i in range(n):
        for j in range(n):
            e_part, _ = projected_bracket_delta(t, half, basis_vec(n, i), basis_vec(n, j))
            if e_part != t.e.skew_product(basis_vec(n, i), basis_vec(n, j)):
                return False
    return True


DEFAULT_S_VALUES = (Q(1), Q(1, 2), Q(-2), Q(3, 7))


def scaling_check(t: EnvelopeTriple,
                  svals: Sequence[Scalar] = DEFAULT_S_VALUES
                  ) -> tuple[bool, tuple[str, int, int, str] | None]:
    """Exact s-scaling of the projected bracket over all basis pairs.

    The E part must scale as 2s skew(x, y) and the h part as -s^2 f(skew(x, y)).
    Returns the first failing (s, i, j, which-part) otherwise None.
    """
    n = t.e.dim
    for s in svals:
        sq = as_q(s)
        for i in range(n):
            for j in range(n):
                x, y = basis_vec(n, i), basis_vec(n, j)
                e_part, delta = projected_bracket_delta(t, sq, x, y)
                br = t.e.skew_product(x, y)
                if e_part != vscale(2 * sq, br):
                    return False, (str(sq), i, j, "bracket")
                if delta != vscale(-(sq * sq), t.f.apply(br)):
                    return False, (str(sq), i, j, "delta")
    return True, None


def sigma_one_embed_check(t: EnvelopeTriple) -> bool:
    """sigma_1 is a morphism into the hemisemidirect product of h and E."""
    hemi = hemisemidirect(t.h, t.action)
    sigma = section_sigma(t, 1)
    n = t.e.dim
    for i in range(n):
        for j in range(n):
            lhs = hemi.product(sigma.apply(basis_vec(n, i)), sigma.apply(basis_vec(n, j)))
            if lhs != sigma.apply(t.e.c[i][j]):
                return False
    return True
