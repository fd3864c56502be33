"""The envelope and action builders against the dense definitions kept here.

This file holds the one dense reference of the envelope layer, which
tests/test_builder_reference.py and tests/test_envelope_reference.py use too.
Each builder is written as its definition reads: a matrix Lie algebra forms
every commutator and reads its coordinates in the span of the matrices; an
action is checked on every basis pair against the commutator of its matrices;
rho(xi) is the sum of xi_a rho(e_a); an envelope triple is checked by its three
conditions on every basis tuple and then by their consequences (f is a
homomorphism, the squares ideal lies in ker f, ker f in ker lambda); E/M reads
every product modulo M; the products on h x V and the LY envelope are written
out cell by cell; the delta conditions are scanned over every basis tuple.
Equal results, every entry a Fraction, and equal exceptions, type and message,
pin lambda_envelope, canonical_envelope, ly_envelope, matrix_lie_algebra,
ModuleAction, the omni algebras and the witness of every rejected input.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import leibniz_forge
from leibniz_forge import tensor
from leibniz_forge import (
    EnvelopeError,
    InvalidActionError,
    LieYamaguti,
    ModuleAction,
    NotAnIdealError,
    Pcg32,
    StructureAlgebra,
    Subspace,
    canonical_envelope,
    direct_sum,
    gl_action,
    gl_algebra,
    kernel_of_lambda,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    omni_algebras,
    random_nilpotent_leibniz,
    squares_ideal,
)
from leibniz_forge.envelope import EnvelopeTriple
from leibniz_forge.linalg import (Matrix, as_q, basis_vec, is_zero_vec, kernel_basis, vadd, vneg,
                                  vscale, vzero)
from leibniz_forge.yamaguti import LYEnvelope

from conftest import (
    build_corpus,
    make_aff1_hemi,
    make_broken3,
    make_heisenberg3,
    make_idem1,
    make_leibniz2,
    make_n2_hemi,
    make_nl3,
    make_so3,
)
from test_linalg_reference import RefSubspace


# -- dense definitions ----------------------------------------------------------------

def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def ref_matrix_lie_algebra(n: int, mats: Sequence[Matrix], prefix: str, name: str = ""
                           ) -> tuple[StructureAlgebra, tuple[Matrix, ...], Subspace]:
    span = Subspace.span(n * n, [m.flat for m in mats])
    basis = tuple(Matrix.from_flat(r, n) for r in span.basis)
    c = tuple(tuple(span.coords(commutator(p, q).flat) for q in basis) for p in basis)
    names = tuple(f"{prefix}{a+1}" for a in range(span.dim))
    return StructureAlgebra(span.dim, c, names, name), basis, span


def ref_of(mats, v_dim, hvec) -> Matrix:
    out = Matrix.zeros(v_dim, v_dim)
    for a, coeff in enumerate(hvec):
        if coeff != 0:
            out = out + mats[a] * coeff
    return out


def ref_action(h: StructureAlgebra, mats: Sequence[Matrix],
               space_dim: int | None = None) -> ModuleAction:
    """ModuleAction's checks with its commutator loop; the action is then built
    without the package's own check."""
    mats = tuple(mats)
    if len(mats) != h.dim:
        raise InvalidActionError("one action matrix per h basis element is required")
    if space_dim is None:
        if not mats:
            raise InvalidActionError("space_dim is required when h is zero dimensional")
        space_dim = mats[0].rows
    for m in mats:
        if m.rows != space_dim or m.cols != space_dim:
            raise InvalidActionError("action matrices must be square of size space_dim")
    if not h.is_lie:
        raise InvalidActionError("h is not a Lie algebra")
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            if ref_of(mats, space_dim, h.c[i][j]) != commutator(mats[i], mats[j]):
                raise InvalidActionError(
                    f"action is not a Lie homomorphism at basis pair ({i}, {j})")
    return unchecked_action(h, mats, space_dim)


def unchecked_action(h: StructureAlgebra, mats: Sequence[Matrix], space_dim: int) -> ModuleAction:
    """A ModuleAction built without its own checks, so that a builder sees h and
    the matrices exactly as given."""
    act = object.__new__(ModuleAction)
    for key, value in (("h", h), ("mats", tuple(mats)), ("space_dim", space_dim)):
        object.__setattr__(act, key, value)
    return act


def ref_circle_product(h, act, a, b):
    hd, vd = h.dim, act.v_dim
    if len(a) != hd + vd or len(b) != hd + vd:
        raise ValueError("vector length does not match h x V")
    sym = vscale(Q(1, 2), vadd(ref_of(act.mats, vd, a[:hd]).apply(b[hd:]),
                               ref_of(act.mats, vd, b[:hd]).apply(a[hd:])))
    return vzero(hd) + sym


def on_h_times_v(h, v_dim, cell) -> tuple:
    """Structure constants on h x V, h block first, written cell by cell:
    cell(a, b, x, y) is the product of two basis vectors, a, b basis indices of
    h or None and x, y of V or None, as an (h part, V part) pair."""
    idx = [(a, None) for a in range(h.dim)] + [(None, k) for k in range(v_dim)]
    return tuple(tuple(sum(cell(a, b, x, y), ()) for b, y in idx) for a, x in idx)


def ref_h_times_v(h, act, left, right, name=""):
    """[(xi, x), (eta, y)] = ([xi, eta], left xi y + right eta x)."""
    if h is not act.h and h != act.h:
        raise InvalidActionError("action is not an action of the supplied h")
    hd, vd = h.dim, act.v_dim

    def cell(a, b, x, y):
        if x is None and y is None:
            return h.c[a][b], vzero(vd)
        if x is None:
            return vzero(hd), vscale(left, act.mats[a].col(y))
        if y is None:
            return vzero(hd), vscale(right, act.mats[b].col(x))
        return vzero(hd), vzero(vd)
    vnames = tuple(f"v{b+1}" for b in range(vd))
    if set(vnames) & set(h.basis_names):
        vnames = tuple(f"w{b+1}" for b in range(vd))
    return StructureAlgebra(hd + vd, on_h_times_v(h, vd, cell), h.basis_names + vnames, name)


def ref_validate_envelope(e, h, action, f) -> EnvelopeTriple:
    if h.dim == 0:
        raise EnvelopeError(f"h = E/M is zero, and the 0 x {e.dim} map f has no Matrix form")
    if action.h is not h and action.h != h:
        raise EnvelopeError("action is not an action of the supplied h")
    if action.v_dim != e.dim:
        raise EnvelopeError("action matrices do not act on E")
    if f.rows != h.dim or f.cols != e.dim:
        raise EnvelopeError("f must map E to h")
    if not h.is_lie:
        raise EnvelopeError("h is not a Lie algebra")
    n, hd = e.dim, h.dim
    # every family as integer numerators over its own denominator: each side of
    # an identity is scaled by the denominators of the families it multiplies
    (c, dc), (hc, dh) = cleared(sum(e.c, ())), cleared(sum(h.c, ()))  # c[i * n + j] = e_i e_j
    (r, dr), (fc, df) = cleared([m.col(k) for m in action.mats for k in range(n)]), cleared(
        [f.col(i) for i in range(n)])  # r[a * n + k] = rho(e_a) e_k
    for a, i, j in product(range(hd), range(n), range(n)):
        # rho_a(e_i e_j) = (rho_a e_i) e_j + e_i (rho_a e_j)
        if lin((x, r[a * n + k]) for k, x in c[i * n + j].items()) != lin(
                [*((x, c[m * n + j]) for m, x in r[a * n + i].items()),
                 *((x, c[i * n + m]) for m, x in r[a * n + j].items())]):
            raise EnvelopeError(f"action matrix {a} is not a derivation at basis pair ({i}, {j})")
    for a, i in product(range(hd), range(n)):  # f(rho_a e_i) = [e_a, f e_i]
        if lin((x * dh, fc[k]) for k, x in r[a * n + i].items()) != lin(
                (x * dr, hc[a * hd + b]) for b, x in fc[i].items()):
            raise EnvelopeError(f"f is not equivariant at (h basis {a}, E basis {i})")
    for i, j in product(range(n), range(n)):  # rho(f e_i) e_j = e_i e_j
        if lin((x * dc, r[a * n + j]) for a, x in fc[i].items()) != lin([(df * dr, c[i * n + j])]):
            raise EnvelopeError(
                f"acting by f(e_{i+1}) does not reproduce left multiplication at ({i}, {j})")
    return EnvelopeTriple(e, h, action, f)


def sparse(v) -> dict:
    """The nonzero entries of v, by index."""
    return {k: x for k, x in enumerate(v) if x}


def cleared(vecs) -> tuple[list[dict], int]:
    """The nonzero entries of the vectors as integer numerators over their lcm denominator."""
    den = lcm(*(x.denominator for v in vecs for x in v if x))
    return [{k: x.numerator * (den // x.denominator) for k, x in enumerate(v) if x}
            for v in vecs], den


def lin(terms) -> dict:
    """sum x v over the terms (x, v), v a dict of nonzero entries; zeros dropped."""
    out: dict = {}
    for x, v in terms:
        for m, y in v.items():
            out[m] = out.get(m, 0) + x * y
    return {m: y for m, y in out.items() if y}


def assert_consequences(t: EnvelopeTriple) -> None:
    """What the three conditions imply: f a homomorphism, squares ideal in ker f,
    ker f in ker lambda."""
    e, h, f = t.e, t.h, t.f
    for i, j in product(range(e.dim), repeat=2):
        assert f.apply(e.c[i][j]) == h.product(f.col(i), f.col(j)), (i, j)
    assert all(is_zero_vec(f.apply(v)) for v in squares_ideal(e).basis)
    assert all(e.left_mul(v).is_zero() for v in kernel_basis(f))


def ref_quotient(a, m):
    """E/M on the coordinates off M's pivots, every product read modulo M."""
    comp = m.complement_coords

    def coords(v):
        red = m.reduce(v)
        return tuple(red[j] for j in comp)

    q = Matrix.from_cols([coords(basis_vec(a.dim, j)) for j in range(a.dim)])
    c = tuple(tuple(coords(a.product(basis_vec(a.dim, i), basis_vec(a.dim, j))) for j in comp)
              for i in comp)
    return StructureAlgebra(len(comp), c, tuple(a.basis_names[j] for j in comp),
                            f"{a.name}/M" if a.name else ""), q


def ref_quotient_algebra(a, m):
    if not all(m.contains(a.product(basis_vec(a.dim, k), v)) and m.contains(a.product(v, basis_vec(a.dim, k)))
               for v in m.basis for k in range(a.dim)):
        raise NotAnIdealError("subspace is not a two-sided ideal")
    return ref_quotient(a, m)


# the ideals of one algebra, read once: every builder below is run on several
# subspaces of the same algebra
squares_of, kernel_of = lru_cache(maxsize=64)(squares_ideal), lru_cache(maxsize=64)(kernel_of_lambda)


def ref_canonical_envelope(e, m) -> EnvelopeTriple:
    if m.ambient_dim != e.dim:
        raise EnvelopeError("ideal lives in the wrong ambient space")
    if not m.contains_subspace(squares_of(e)):
        raise EnvelopeError("ideal does not contain the squares ideal")
    if not kernel_of(e).contains_subspace(m):
        raise EnvelopeError("ideal is not contained in ker lambda")
    h, q = ref_quotient(e, m)  # the two containments make m an ideal
    mats = tuple(e.left_mul(basis_vec(e.dim, cb)) for cb in m.complement_coords)
    return ref_validate_envelope(e, h, ref_action(h, mats, space_dim=e.dim), q)


def ref_lambda_envelope(e) -> EnvelopeTriple:
    ok, witness = e.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    lams = [e.left_mul(basis_vec(n, i)) for i in range(n)]
    h, mats, span = ref_matrix_lie_algebra(n, lams, "L", f"lam({e.name})" if e.name else "")
    f = Matrix.from_cols([span.coords(m.flat) for m in lams])
    return ref_validate_envelope(e, h, ref_action(h, mats, space_dim=n), f)


def first_tuple(ranges, fails):
    return next((at for at in product(*ranges) if fails(*at)), None)


def ref_check_delta(ly, h, action, delta) -> None:
    n, hd = ly.dim, h.dim
    idx = range(n)
    d = {(i, j): sparse(delta[i][j]) for i in idx for j in idx}
    bb = {(i, j): sparse(ly.b[i][j]) for i in idx for j in idx}
    hc = {(a, b): sparse(h.c[a][b]) for a in range(hd) for b in range(hd)}
    r = [[sparse(m.col(k)) for k in idx] for m in action.mats]  # rho(e_a) e_k
    at = first_tuple((idx, idx), lambda i, j: delta[i][j] != vneg(delta[j][i]))
    if at is not None:
        raise ValueError(f"delta is not skew at {at}")
    at = first_tuple((idx, idx, idx), lambda i, j, k: lin((x, r[a][k]) for a, x in d[i, j].items())
                     != sparse(ly.t[i][j][k]))
    if at is not None:
        raise ValueError(f"delta1 fails at {at}: delta does not act as the ternary")
    # [e_a, Delta(e_i, e_j)] = Delta(rho_a e_i, e_j) + Delta(e_i, rho_a e_j)
    at = first_tuple((range(hd), idx, idx), lambda a, i, j: lin(
        (x, hc[a, b]) for b, x in d[i, j].items()) != lin(
        [*((x, d[m, j]) for m, x in r[a][i].items()), *((x, d[i, m]) for m, x in r[a][j].items())]))
    if at is not None:
        raise ValueError(f"delta2 fails at (h {at[0]}, {at[1]}, {at[2]}): not equivariant")
    at = first_tuple((idx, idx, idx), lambda i, j, k: lin(  # the cyclic sum of Delta(b(x, y), z)
        (x, d[m, z]) for (u, v, z) in ((i, j, k), (j, k, i), (k, i, j)) for m, x in bb[u, v].items()))
    if at is not None:
        raise ValueError(f"delta3 fails at {at}: cyclic sum over the binary")


def ref_ly_envelope(ly, h=None, action=None, delta=None) -> LYEnvelope:
    """g = h (+) m with [xi + x, eta + y] = ([xi, eta] + Delta(x, y)) + (xi y - eta x + <<x, y>>)."""
    n, b, t = ly.dim, ly.b, ly.t
    if (h is None) != (action is None) or (h is None) != (delta is None):
        raise ValueError("supply h, action and delta together or none of them")
    if h is None:
        at = first_tuple((range(n),) * 3, lambda i, j, k: t[i][j][k] != vneg(t[j][i][k]))
        if at is not None:
            raise ValueError(f"delta is not skew at {at}")
        gens = [Matrix.from_cols(t[i][j]) for i in range(n) for j in range(i + 1, n)]
        try:
            h, mats, span = ref_matrix_lie_algebra(n, gens, "d")
        except ValueError:
            raise ValueError("inner derivations do not close under commutators") from None
        action = ref_action(h, mats, space_dim=n)
        delta_t = tuple(tuple(span.coords(Matrix.from_cols(t[i][j]).flat) for j in range(n))
                        for i in range(n))
    else:
        delta_t = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in delta)
        if action.v_dim != n:
            raise ValueError("action matrices do not act on the LY space")
        ref_check_delta(ly, h, action, delta_t)
    hd = h.dim

    def cell(a, c, i, j):
        if i is None and j is None:
            return h.c[a][c], vzero(n)
        if i is None:
            return vzero(hd), action.mats[a].col(j)
        if j is None:
            return vzero(hd), vneg(action.mats[c].col(i))
        return delta_t[i][j], b[i][j]
    c = on_h_times_v(h, n, cell)
    g = StructureAlgebra(hd + n, c, tuple(h.basis_names) + tuple(f"m{i+1}" for i in range(n)))
    if not g.check_lie():
        raise ValueError("envelope bracket fails Jacobi")
    return LYEnvelope(g, h, action, delta_t)


# -- comparison -----------------------------------------------------------------

def exact(*tensors) -> bool:
    """Every entry of these nested tuples is a Fraction."""
    def walk(t):
        return all(walk(x) for x in t) if isinstance(t, tuple) else type(t) is Q
    return all(walk(t) for t in tensors)


def algebra_key(a: StructureAlgebra) -> tuple:
    return a.dim, a.c, a.basis_names, a.name, exact(a.c)


def action_key(act: ModuleAction) -> tuple:
    return algebra_key(act.h), act.mats, act.v_dim, exact(*(m.entries for m in act.mats))


def key(r) -> tuple:
    """The comparable parts of a result."""
    if isinstance(r, StructureAlgebra):
        return algebra_key(r)
    if isinstance(r, (Subspace, RefSubspace)):
        return r.ambient_dim, r.basis, exact(r.basis)
    if isinstance(r, LieYamaguti):
        return r.dim, r.b, r.t, exact(r.b, r.t)
    if isinstance(r, ModuleAction):
        return action_key(r)
    if isinstance(r, EnvelopeTriple):
        return (algebra_key(r.e), action_key(r.action), r.h is r.action.h, r.f.entries,
                exact(r.f.entries), algebra_key(r.g))
    if isinstance(r, LYEnvelope):
        return action_key(r.action), r.h is r.action.h, algebra_key(r.g), r.delta, exact(r.delta)
    h, q = r  # a quotient and its map
    return algebra_key(h), q.entries, exact(q.entries)


def outcome(build, *args):
    """The key of build(*args), or the type and message of the ValueError it raises."""
    try:
        return key(build(*args))
    except ValueError as err:
        return type(err), str(err)


def assert_same_envelopes(e: StructureAlgebra) -> None:
    assert outcome(lambda_envelope, e) == outcome(ref_lambda_envelope, e)
    for ideal in (squares_ideal, kernel_of_lambda):
        m = ideal(e)
        assert outcome(canonical_envelope, e, m) == outcome(ref_canonical_envelope, e, m)


def assert_same_ly_envelope(ly, *args):
    got = outcome(ly_envelope, ly, *args)
    assert got == outcome(ref_ly_envelope, ly, *args)
    return got


def nonabelian(a: StructureAlgebra) -> bool:
    return bool(a.sparse.entries)


# -- inputs ---------------------------------------------------------------------

def leibniz_bases() -> list[StructureAlgebra]:
    """Non-abelian Leibniz algebras of dimension 2 to 5."""
    small = [make_leibniz2(), make_heisenberg3(), make_so3(), make_aff1_hemi(),
             make_n2_hemi(), omni_algebras(1)[0]]
    sums = [direct_sum(make_leibniz2(), StructureAlgebra.abelian(1)),
            direct_sum(make_leibniz2(), make_leibniz2()),
            direct_sum(make_so3(), make_leibniz2()),
            direct_sum(make_heisenberg3(), omni_algebras(1)[0]),
            direct_sum(make_aff1_hemi(), make_leibniz2())]
    return small + sums


BASES = leibniz_bases()
WEIGHTS = st.sampled_from([Q(1), Q(2), Q(-1, 2), Q(3, 5), Q(-4, 3)])


@st.composite
def leibniz_algebras(draw) -> StructureAlgebra:
    """A seeded random nilpotent algebra, or a base algebra in the basis of
    the columns of L U D: L and U unitriangular with small integer entries,
    D a diagonal of rationals."""
    if draw(st.booleans()):
        return random_nilpotent_leibniz(Pcg32(draw(st.integers(0, 2**32 - 1))),
                                        draw(st.integers(2, 5)))
    base = draw(st.sampled_from(BASES))
    n = base.dim
    ints = st.integers(-2, 2)
    low = Matrix.from_rows([[draw(ints) if j < i else int(i == j) for j in range(n)]
                            for i in range(n)])
    up = Matrix.from_rows([[draw(ints) if j > i else int(i == j) for j in range(n)]
                           for i in range(n)])
    diag = Matrix.from_rows([[draw(WEIGHTS) if i == j else 0 for j in range(n)]
                             for i in range(n)])
    return base.change_basis(low @ up @ diag)


def perturbed_algebra(data, a: StructureAlgebra) -> StructureAlgebra:
    n = a.dim
    i, j, k = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3))
    rows = [[list(cell) for cell in row] for row in a.c]
    rows[i][j][k] += data.draw(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-3, 4), Q(5)]))
    return StructureAlgebra.from_constants(rows, a.basis_names, a.name)


def perturbed_mats(data, mats: Sequence[Matrix]) -> tuple[Matrix, ...]:
    out = list(mats)
    if not out or out[0].rows == 0:
        return tuple(out)
    a = data.draw(st.integers(0, len(out) - 1))
    n = out[a].rows
    r, s = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    rows = [list(row) for row in out[a].entries]
    rows[r][s] += data.draw(st.sampled_from([Q(1), Q(-1), Q(2, 3), Q(-5, 2)]))
    out[a] = Matrix.from_rows(rows)
    return tuple(out)


CORPUS = {name: a for name, a in build_corpus().items() if nonabelian(a)}
NEGATIVES = [make_nl3(), make_idem1(), make_broken3(),
             StructureAlgebra.from_products(2, {(0, 0): {1: 1}, (1, 0): {1: 1}}, name="left2")]


def valid_actions() -> list[ModuleAction]:
    """Lie actions from the package's constructions and the corpus."""
    acts = [gl_action(1), gl_action(2)]
    for a in BASES:
        acts.append(lambda_envelope(a).action)
        acts.append(canonical_envelope(a, squares_ideal(a)).action)
    so3 = make_so3()
    acts.append(ModuleAction(so3, tuple(so3.left_mul(basis_vec(3, i)) for i in range(3))))
    acts.append(ly_envelope(ly_from_leibniz(make_aff1_hemi())).action)
    return [act for act in acts if act.h.dim >= 2]


ACTIONS = valid_actions()


def random_ly(data, n: int) -> LieYamaguti:
    """A skew binary and a ternary skew in its first two slots, a few cells each."""
    b = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    t = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    ints = st.integers(0, n - 1)
    x = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2)])
    for i, j, k, v in data.draw(st.lists(st.tuples(ints, ints, ints, x), max_size=3)):
        b[i][j][k] += v
        b[j][i][k] -= v
    for i, j, k, m, v in data.draw(st.lists(st.tuples(ints, ints, ints, ints, x),
                                            max_size=5)):
        t[i][j][k][m] += v
        t[j][i][k][m] -= v
    return LieYamaguti.from_tensors(b, t)


# -- envelopes on matrix families ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_envelopes_match(name):
    assert_same_envelopes(CORPUS[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_ly_envelopes_match(name):
    assert_same_ly_envelope(ly_from_leibniz(CORPUS[name]))


@settings(max_examples=40, deadline=None)
@given(leibniz_algebras())
def test_random_leibniz_envelopes_match(e):
    assert_same_envelopes(e)
    assert_same_ly_envelope(ly_from_leibniz(e))


@pytest.mark.parametrize("d", [2, 3])
def test_omni_algebras_match(d):
    h = gl_algebra(d)
    ref = ref_action(h, gl_action(d).mats)
    assert outcome(gl_action, d) == action_key(ref)
    hemi, demi = omni_algebras(d)
    assert algebra_key(hemi) == algebra_key(ref_h_times_v(h, ref, Q(1), Q(0), f"omni_hemi({d})"))
    assert algebra_key(demi) == algebra_key(ref_h_times_v(h, ref, Q(1, 2), Q(-1, 2),
                                                          f"omni_demi({d})"))
    assert_same_envelopes(hemi)
    if d == 2:
        assert_same_ly_envelope(ly_from_leibniz(hemi))


# -- rejected actions and negatives -------------------------------------------------

def full_scan_outcome(h: StructureAlgebra, mats: Sequence[Matrix]):
    """outcome(ModuleAction, h, mats) for a Lie h, from the homomorphism scan run on
    every triple (i, j, k) of the action's identity, not only on i < j."""
    rho = unchecked_action(h, mats, mats[0].rows).sparse
    at = tensor.first_failure(h.dim, "ijk", [(1, rho, "i*", rho, "jk"), (-1, rho, "j*", rho, "ik"),
                                             (-1, rho, "*k", h.sparse, "ij")])
    return (key(unchecked_action(h, mats, mats[0].rows)) if at is None else
            (InvalidActionError, f"action is not a Lie homomorphism at basis pair {at[:2]}"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(ACTIONS))), st.data())
def test_perturbed_actions_match(which, data):
    """One matrix cell moved: the first failing pair must be the reference's, and
    the full scan's."""
    act = ACTIONS[which]
    mats = perturbed_mats(data, act.mats)
    assert (outcome(ModuleAction, act.h, mats) == outcome(ref_action, act.h, mats)
            == full_scan_outcome(act.h, mats))
    assert (outcome(ModuleAction, act.h, mats, act.v_dim)
            == outcome(ref_action, act.h, mats, act.v_dim))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(ACTIONS))), st.data())
def test_actions_of_perturbed_h_match(which, data):
    act = ACTIONS[which]
    h = perturbed_algebra(data, act.h)
    assert outcome(ModuleAction, h, act.mats) == outcome(ref_action, h, act.mats)


def test_actions_on_every_pair_match():
    """Scaled actions fail at each basis pair whose bracket is nonzero."""
    for act in ACTIONS:
        for x in (Q(2), Q(-1, 3)):
            mats = tuple(m * x for m in act.mats)
            assert outcome(ModuleAction, act.h, mats) == outcome(ref_action, act.h, mats)
        for a in range(act.h.dim):
            mats = tuple(m * Q(2) if b == a else m for b, m in enumerate(act.mats))
            assert outcome(ModuleAction, act.h, mats) == outcome(ref_action, act.h, mats)


@settings(max_examples=60, deadline=None)
@given(leibniz_algebras(), st.data())
def test_non_leibniz_negatives_match(e, data):
    bad = perturbed_algebra(data, e)
    assume(nonabelian(bad))
    assert_same_envelopes(bad)


@pytest.mark.parametrize("k", range(len(NEGATIVES)))
def test_fixed_negatives_match(k):
    assert_same_envelopes(NEGATIVES[k])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_ly_envelopes_match(n, data):
    """Inner derivations of a random ternary seldom close under commutators."""
    assert_same_ly_envelope(random_ly(data, n))


def test_random_ly_envelopes_reach_every_outcome():
    rng = Pcg32(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 4)
        t = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 4)):
            i, j, k, m = (rng.randrange(n) for _ in range(4))
            t[i][j][k][m] += 1
            t[j][i][k][m] -= 1
        got = assert_same_ly_envelope(LieYamaguti.from_tensors(
            [[[Q(0)] * n for _ in range(n)] for _ in range(n)], t))
        seen.add(got[1] if got[0] is ValueError else "built")
    assert seen == {"inner derivations do not close under commutators",
                    "envelope bracket fails Jacobi", "built"}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_matrix_lie_algebra_matches(n, data):
    """Random matrix families: the same algebra when they close, a ValueError
    when they do not."""
    x = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(1, 2)])
    mats = [Matrix.from_rows(data.draw(st.lists(st.lists(x, min_size=n, max_size=n),
                                                min_size=n, max_size=n)))
            for _ in range(data.draw(st.integers(0, 3)))]
    try:
        h, basis, span = ref_matrix_lie_algebra(n, mats, "p", "fam")
    except ValueError:
        with pytest.raises(ValueError):
            leibniz_forge.matrix_lie_algebra(n, mats, "p", "fam")
        return
    act, got_span = leibniz_forge.matrix_lie_algebra(n, mats, "p", "fam")
    assert act.v_dim == n
    assert (algebra_key(act.h), act.mats, got_span) == (algebra_key(h), basis, span)
