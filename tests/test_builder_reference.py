"""The envelope builders and what they read, against the code kept here.

The package reads E/M from the structure constants cleared at M's pivots,
lambda(e_i) from c[i], and the coordinates of a generator in its own span
from its entries at the span's pivots. It grows the squares ideal once on
canonical rows, writes the skew part (c_ij - c_ji) / 2 once over the nonzero
cells, and builds the three products on h x V with one body. The code kept
verbatim below recomputed each of these by dense contraction and
elimination: every basis product by contracting two basis vectors, each
lambda(e_i) by n contractions, each generator's coordinates by eliminating
its flat again, and the squares ideal by row-reducing the whole span in
every round. Equal results, every entry a Fraction, and equal exceptions,
type and message, pin quotient_algebra, squares_ideal, skew_symmetrize,
ly_from_leibniz, semidirect_lie, hemisemidirect, demisemidirect,
canonical_envelope, lambda_envelope and ly_envelope on the conftest corpus
and on hypothesis algebras.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    EnvelopeError,
    LieYamaguti,
    ModuleAction,
    NotAnIdealError,
    StructureAlgebra,
    Subspace,
    canonical_envelope,
    demisemidirect,
    gl_action,
    hemisemidirect,
    is_ideal,
    kernel_of_lambda,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    quotient_algebra,
    semidirect_lie,
    squares_ideal,
    validate_envelope,
)
from leibniz_forge.envelope import EnvelopeTriple
from leibniz_forge.linalg import Matrix, Vec, as_q, basis_vec, vadd
from leibniz_forge.products import action_products, matrix_lie_algebra
from leibniz_forge.tensor import SparseTensor, _add, materialize, skew_failure
from leibniz_forge.yamaguti import LYEnvelope, _check_delta, delta_matrix

from conftest import build_corpus
from test_action_reference import (
    ACTIONS,
    NEGATIVES,
    action_key,
    algebra_key,
    leibniz_algebras,
    perturbed_algebra,
    random_ly,
)


# -- the package code before, kept verbatim -----------------------------------------

def ref_squares_ideal(a: StructureAlgebra) -> Subspace:
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
        grown = Subspace.span(a.dim, span.basis + tuple(extra))
        if grown.dim == span.dim:
            return grown
        span = grown


def ref_quotient_algebra(a: StructureAlgebra, m: Subspace) -> tuple[StructureAlgebra, Matrix]:
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


def ref_skew_symmetrize(self: StructureAlgebra) -> StructureAlgebra:
    half = Q(1, 2)
    c = tuple(tuple(tuple(half * (self.c[i][j][k] - self.c[j][i][k])
                          for k in range(self.dim))
                    for j in range(self.dim))
              for i in range(self.dim))
    return StructureAlgebra(self.dim, c, self.basis_names, self.name)


def ref_ly_from_leibniz(e: StructureAlgebra) -> LieYamaguti:
    ok, witness = e.check_leibniz()
    if not ok:
        raise ValueError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n, c = e.dim, e.sparse
    b, t = {}, {}  # cells (i, j) -> {k: x} and (i, j, k) -> {l: x}
    for (i, j), cell in c.entries.items():
        _add(b, (i, j), cell, Q(1, 2))
        _add(b, (j, i), cell, Q(-1, 2))
        for l, x in cell.items():
            for (_, k), lk in c.group((0,)).get((l,), ()):
                _add(t, (i, j, k), lk, Q(-1, 4) * x)
    return LieYamaguti(n, materialize(n, 2, b), materialize(n, 3, t))


def _component_names(h: StructureAlgebra, v_dim: int) -> tuple[str, ...]:
    vnames = tuple(f"v{b+1}" for b in range(v_dim))
    if set(vnames) & set(h.basis_names):
        vnames = tuple(f"w{b+1}" for b in range(v_dim))
    return h.basis_names + vnames


def ref_semidirect_lie(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    products = action_products(act, Q(1), Q(-1))
    return StructureAlgebra.from_products(h.dim + act.v_dim, products,
                                          _component_names(h, act.v_dim), name)


def ref_hemisemidirect(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    products = action_products(act, Q(1), Q(0))
    return StructureAlgebra.from_products(h.dim + act.v_dim, products,
                                          _component_names(h, act.v_dim), name)


def ref_demisemidirect(h: StructureAlgebra, act: ModuleAction, name: str = "") -> StructureAlgebra:
    products = action_products(act, Q(1, 2), Q(-1, 2))
    return StructureAlgebra.from_products(h.dim + act.v_dim, products,
                                          _component_names(h, act.v_dim), name)


def ref_canonical_envelope(e: StructureAlgebra, m: Subspace) -> EnvelopeTriple:
    if m.ambient_dim != e.dim:
        raise EnvelopeError("ideal lives in the wrong ambient space")
    if not m.contains_subspace(ref_squares_ideal(e)):
        raise EnvelopeError("ideal does not contain the squares ideal")
    if not kernel_of_lambda(e).contains_subspace(m):
        raise EnvelopeError("ideal is not contained in ker lambda")
    h, q = ref_quotient_algebra(e, m)
    mats = tuple(e.left_mul(basis_vec(e.dim, cb)) for cb in m.complement_coords)
    action = ModuleAction(h, mats, space_dim=e.dim)
    return validate_envelope(e, h, action, q)


def ref_lambda_envelope(e: StructureAlgebra) -> EnvelopeTriple:
    ok, witness = e.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    lams = [e.left_mul(basis_vec(n, i)) for i in range(n)]
    action, span = matrix_lie_algebra(n, lams, "L", f"lam({e.name})" if e.name else "")
    f = Matrix.from_cols([span.coords(m.flat) for m in lams])
    return validate_envelope(e, action.h, action, f)


def ref_ly_envelope(ly: LieYamaguti,
                    h: StructureAlgebra | None = None,
                    action: ModuleAction | None = None,
                    delta: Sequence[Sequence[Vec]] | None = None) -> LYEnvelope:
    n, b, t = ly.dim, SparseTensor(ly.b, 2), SparseTensor(ly.t, 3)
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
        up = {key: span.coords(m.flat) for key, m in gens.items()}  # t is skew: the rest follow
        delta_t = tuple(tuple(up[i, j] if i < j else tuple(-x for x in up[j, i]) if j < i
                              else (Q(0),) * h.dim for j in range(n)) for i in range(n))
        d = SparseTensor(delta_t, 2)
    else:
        delta_t = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in delta)
        if action.v_dim != n:
            raise ValueError("action matrices do not act on the LY space")
        d = SparseTensor(delta_t, 2)
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


# -- comparison -----------------------------------------------------------------

def exact(*tensors) -> bool:
    """Every entry of these nested tuples is a Fraction."""
    def walk(t):
        return all(walk(x) for x in t) if isinstance(t, tuple) else type(t) is Q
    return all(walk(t) for t in tensors)


def key(r) -> tuple:
    """The comparable parts of a result, and whether its entries are all Fractions."""
    if isinstance(r, StructureAlgebra):
        return algebra_key(r), exact(r.c)
    if isinstance(r, Subspace):
        return r.ambient_dim, r.basis, exact(r.basis)
    if isinstance(r, LieYamaguti):
        return r.dim, r.b, r.t, exact(r.b, r.t)
    if isinstance(r, EnvelopeTriple):
        return (key(r.e), key(r.h), action_key(r.action), r.h is r.action.h, r.f.entries,
                exact(r.f.entries, *(m.entries for m in r.action.mats)))
    if isinstance(r, LYEnvelope):
        return action_key(r.action), r.h is r.action.h, key(r.g), r.delta, exact(r.delta)
    h, q = r  # a quotient and its map
    return key(h), q.entries, exact(q.entries)


def outcome(build, *args):
    """The key of build(*args), or the type and message of the ValueError it raises."""
    try:
        return key(build(*args))
    except ValueError as err:
        return type(err), str(err)


def ideals(a: StructureAlgebra) -> list[Subspace]:
    """Subspaces to divide by: squares, ker lambda, zero, whole, and the span
    of the first two structure constants (seldom an ideal)."""
    n = a.dim
    return [ref_squares_ideal(a), kernel_of_lambda(a), Subspace.zero(n), Subspace.whole(n),
            Subspace.span(n, [a.c[0][0], a.c[n - 1][0]] if n else [])]


def assert_same(a: StructureAlgebra) -> None:
    assert outcome(squares_ideal, a) == outcome(ref_squares_ideal, a)
    assert outcome(StructureAlgebra.skew_symmetrize, a) == outcome(ref_skew_symmetrize, a)
    assert outcome(lambda_envelope, a) == outcome(ref_lambda_envelope, a)
    assert outcome(ly_from_leibniz, a) == outcome(ref_ly_from_leibniz, a)
    for m in ideals(a) + [Subspace.zero(a.dim + 1)]:
        if m.ambient_dim == a.dim:
            assert outcome(quotient_algebra, a, m) == outcome(ref_quotient_algebra, a, m)
        assert outcome(canonical_envelope, a, m) == outcome(ref_canonical_envelope, a, m)
    if a.is_leibniz:
        ly = ly_from_leibniz(a)
        assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


# -- inputs ---------------------------------------------------------------------

CORPUS = build_corpus()
SMALL = [StructureAlgebra.abelian(0), StructureAlgebra.abelian(2)] + NEGATIVES


@st.composite
def any_algebras(draw) -> StructureAlgebra:
    """Algebras of dimension 1 to 4 with a few nonzero constants, seldom Leibniz."""
    n = draw(st.integers(1, 4))
    ints = st.integers(0, n - 1)
    x = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
    cells = draw(st.lists(st.tuples(ints, ints, ints, x), max_size=6))
    products: dict = {}
    for i, j, k, v in cells:
        products.setdefault((i, j), {})[k] = v
    return StructureAlgebra.from_products(n, products, name=draw(st.sampled_from(["", "a"])))


# -- tests ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_builders_match(name):
    assert_same(CORPUS[name])


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_small_and_negative_builders_match(k):
    assert_same(SMALL[k])


@settings(max_examples=40, deadline=None)
@given(leibniz_algebras())
def test_random_leibniz_builders_match(a):
    assert_same(a)


@settings(max_examples=40, deadline=None)
@given(leibniz_algebras(), st.data())
def test_perturbed_builders_match(a, data):
    assert_same(perturbed_algebra(data, a))


@settings(max_examples=80, deadline=None)
@given(any_algebras())
def test_arbitrary_algebras_match(a):
    assert_same(a)


def test_squares_ideal_grows_past_the_first_round():
    """e1 e1 = e2, e2 e3 = e4, e4 e3 = e5: the span of squares is e2, and the
    ideal reaches e4 and then e5 in two more rounds."""
    a = StructureAlgebra.from_products(5, {(0, 0): {1: 1}, (1, 2): {3: 1}, (3, 2): {4: Q(2, 3)}})
    assert outcome(squares_ideal, a) == outcome(ref_squares_ideal, a)
    assert squares_ideal(a).basis == tuple(basis_vec(5, k) for k in (1, 3, 4))


def copy(h: StructureAlgebra) -> StructureAlgebra:
    """An equal algebra that is not the same object."""
    return StructureAlgebra(h.dim, h.c, h.basis_names, h.name)


# the actions of test_action_reference, gl(d) on Q^d, and h with a basis name v1
# acting on Q^2, whose V block is then named w1, w2
H_TIMES_V = ACTIONS + [gl_action(d) for d in (1, 2, 3)] + [
    ModuleAction(StructureAlgebra.from_products(1, {}, ["v1"], "n"),
                 (Matrix.from_rows([[0, 1], [0, 0]]),))]


@pytest.mark.parametrize("k", range(len(H_TIMES_V)))
def test_products_on_h_times_v_match(k):
    act = H_TIMES_V[k]
    for build, ref in ((semidirect_lie, ref_semidirect_lie), (hemisemidirect, ref_hemisemidirect),
                       (demisemidirect, ref_demisemidirect)):
        for h in (act.h, copy(act.h)):
            for name in ("", "p"):
                assert outcome(build, h, act, name) == outcome(ref, h, act, name)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_ly_envelopes_match(n, data):
    ly = random_ly(data, n)
    assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


@pytest.mark.parametrize("name", ["aff1_hemi", "so3", "so3_hemi", "omni_hemi2", "env_omni_hemi1"])
def test_explicit_ly_envelopes_match(name):
    """The default envelope's (h, action, delta) given back, and with one cell of delta moved."""
    ly = ly_from_leibniz(CORPUS[name])
    env, n = ly_envelope(ly), ly.dim
    args = [(env.h, env.action, env.delta)]
    for i, j in ((0, 1), (1, 0), (n - 1, n - 1)):
        bad = [[list(cell) for cell in row] for row in env.delta]
        bad[i][j][0] += 1
        args.append((env.h, env.action, bad))
    args.append((env.h, gl_action(n + 1), env.delta))
    for h, action, delta in args:
        assert outcome(ly_envelope, ly, h, action, delta) \
            == outcome(ref_ly_envelope, ly, h, action, delta)
