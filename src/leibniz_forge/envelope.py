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
from functools import cached_property
from typing import Sequence

from .algebra import (
    StructureAlgebra,
    Subspace,
    _quotient,
    _squares,
    squares_ideal,
)
from .linalg import (
    Matrix,
    Q,
    Scalar,
    Vec,
    _eliminate,
    as_q,
    rref,
    vscale,
    vsub,
)
from .products import ModuleAction, matrix_lie_algebra, semidirect_lie
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


def validate_envelope(e: StructureAlgebra, h: StructureAlgebra,
                      action: ModuleAction, f: Matrix) -> EnvelopeTriple:
    """Check every envelope condition; raise EnvelopeError naming the first failure.

    Three scans decide it: each rho(e_a) is a derivation of E, f is
    equivariant, and rho(f x) y = x.y. They imply the rest. By equivariance
    and the third scan, f(x.y) = f(rho(f x) y) = [f x, f y], so f is a
    homomorphism and ker f is a two-sided ideal; it holds every x.x, since
    [f x, f x] = 0 in the Lie algebra h, and so the squares ideal. On ker f,
    lambda(x) = rho(f x) = 0.
    """
    if h.dim == 0:  # a Matrix with no rows reads cols as 0, so it cannot hold f
        raise EnvelopeError(f"h = E/M is zero, and the 0 x {e.dim} map f has no Matrix form")
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

    return EnvelopeTriple(e, h, action, f)


def canonical_envelope(e: StructureAlgebra, m: Subspace) -> EnvelopeTriple:
    """Envelope with h = E/M for an ideal M squeezed between squares and ker lambda.

    The containments make M an ideal, so it is not tested again: m in M has m.x = 0
    (M in ker lambda), and x.m = (x+m).(x+m) - x.x - m.m - m.x is in the squares ideal.
    M in ker lambda is decided on M's basis: v.e_j = 0 for each right factor e_j.
    Such an M holds the squares ideal once it holds every square (the same sum puts x.m
    in M); only an M outside ker lambda builds that ideal, to name the failing test."""
    if m.ambient_dim != e.dim:
        raise EnvelopeError("ideal lives in the wrong ambient space")
    right = {j for _, j in e.sparse.entries}
    in_ker = not any(any(e.rmul_basis(v, j)) for v in m.basis for j in right)
    if not (all(not _eliminate(v, m._rows)[0] for v in _squares(e).values()) if in_ker
            else m.contains_subspace(squares_ideal(e))):
        raise EnvelopeError("ideal does not contain the squares ideal")
    if not in_ker:
        raise EnvelopeError("ideal is not contained in ker lambda")
    h, q = _quotient(e, m)
    mats = tuple(Matrix.from_cols(e.c[cb]) for cb in m.complement_coords)  # lambda(e_cb)
    action = ModuleAction(h, mats, space_dim=e.dim)
    return validate_envelope(e, h, action, q)


def lambda_envelope(e: StructureAlgebra) -> EnvelopeTriple:
    """Envelope whose h is the image of left multiplication inside gl(E)."""
    ok, witness = e.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    lams = [Matrix.from_cols(cols) for cols in e.c]  # lambda(e_i): column j is e_i . e_j
    action, span = matrix_lie_algebra(n, lams, "L", f"lam({e.name})" if e.name else "")
    # each lambda(e_i) lies in the span, so its coordinates are its entries at the pivots
    f = Matrix.from_cols([[m[divmod(p, n)] for p in span.pivots] for m in lams])
    return validate_envelope(e, action.h, action, f)


def section_sigma(t: EnvelopeTriple, s: Scalar) -> Matrix:
    """Matrix of sigma_s: E -> g, x -> (s f(x), x)."""
    sq = as_q(s)
    top = (t.f * sq).entries
    bottom = Matrix.identity(t.e.dim).entries
    return Matrix(top + bottom)


def projected_bracket_delta(t: EnvelopeTriple, s: Scalar, x: Vec, y: Vec) -> tuple[Vec, Vec]:
    """(E-projection, h-projection) of [sigma_s x, sigma_s y] in g.

    Projections follow the decomposition g = h (+) sigma_s(E): the E part is
    the plain E block, while the h part of (a, e) is a - s f(e). E is abelian
    in g, so with u = rho(f x) y - rho(f y) x the bracket is (s^2 [f x, f y], s u)
    and its projections are s u and s^2 ([f x, f y] - f(u)). The first equals
    2s skew(x, y) and the second -s^2 f(skew(x, y)).
    """
    sq, fx, fy = as_q(s), t.f.apply(x), t.f.apply(y)
    u = vsub(t.action.sparse.contract(fx, y), t.action.sparse.contract(fy, x))
    return vscale(sq, u), vscale(sq * sq, vsub(t.h.product(fx, fy), t.f.apply(u)))


def _section_failures(t: EnvelopeTriple, parts: Sequence[str]) -> list[tuple[tuple, str]]:
    """Each named part that fails, with its first failing basis pair (i, j).
    At x = e_i and y = e_j, with u = rho(f x) y - rho(f y) x, the parts are

      bracket  u - 2 skew(x, y)
      delta    2 ([f x, f y] - f(u) + f(skew(x, y)))
      left     rho(f x) y - x.y
      hom      [f x, f y] - f(x.y)

    read through the (a, j) tensors [e_a, f e_j] and f(rho(e_a) e_j).
    """
    n, c, rho = t.e.dim, t.e.sparse, t.action.sparse
    fs = SparseTensor(tuple(t.f.col(i) for i in range(n)), 1)  # i -> f(e_i)
    hf = SparseTensor(tuple(tuple(t.h.sparse.contract(a, t.f.col(j)) for j in range(n))
                            for a in range(t.h.dim)), 2)
    frho = SparseTensor(tuple(tuple(fs.contract(m.col(j)) for j in range(n))
                              for m in t.action.mats), 2)
    terms = {"bracket": [(1, rho, "*j", fs, "i"), (-1, rho, "*i", fs, "j"), (-1, c, "ij"),
                         (1, c, "ji")],
             "delta": [(2, hf, "*j", fs, "i"), (-2, frho, "*j", fs, "i"),
                       (2, frho, "*i", fs, "j"), (1, fs, "*", c, "ij"), (-1, fs, "*", c, "ji")],
             "left": [(1, rho, "*j", fs, "i"), (-1, c, "ij")],
             "hom": [(1, hf, "*j", fs, "i"), (-1, fs, "*", c, "ij")]}
    return [(at, part) for part in parts
            if (at := first_failure(n, "ij", terms[part])) is not None]


def recovery_check(t: EnvelopeTriple) -> bool:
    """s = 1/2 recovery: E-projection of the sigma bracket is the skew product."""
    return not _section_failures(t, ["bracket"])


DEFAULT_S_VALUES = (Q(1), Q(1, 2), Q(-2), Q(3, 7))


def scaling_check(t: EnvelopeTriple,
                  svals: Sequence[Scalar] = DEFAULT_S_VALUES
                  ) -> tuple[bool, tuple[str, int, int, str] | None]:
    """Exact s-scaling of the projected bracket over all basis pairs.

    The E part must scale as 2s skew(x, y) and the h part as -s^2 f(skew(x, y)).
    Returns the first failing (s, i, j, which-part), the E part first at a
    pair, otherwise None.

    One nonzero s decides every s. By projected_bracket_delta the E-part
    residual is s (u - 2 skew(x, y)) and the h-part residual is
    s^2 ([f x, f y] - f(u) + f(skew(x, y))), so each (i, j, part) fails at one
    nonzero s exactly when it fails at all of them, and nothing fails at s = 0:
    the first failure over svals is the first failure at the first nonzero value.
    """
    sq = next((as_q(s) for s in svals if as_q(s)), None)
    fails = _section_failures(t, ["bracket", "delta"]) if sq is not None else []
    if not fails:
        return True, None
    (i, j), part = min(fails)
    return False, (str(sq), i, j, part)


def sigma_one_embed_check(t: EnvelopeTriple) -> bool:
    """sigma_1 is a morphism into the hemisemidirect product of h and E:
    sigma_1 x . sigma_1 y = ([f x, f y], rho(f x) y) is sigma_1(x.y) = (f(x.y), x.y)."""
    return not _section_failures(t, ["left", "hom"])
