"""Matrix Lie algebras and Lie actions against the dense commutator code kept here.

The package reads the structure constants of a span of matrices at the
span's pivot entries and leaves the closure check to ModuleAction, whose
homomorphism check is one sparse identity scan. The code kept verbatim below
forms every commutator densely twice: once to read its coordinates in the
span, and once more to compare it with the image of the bracket. Equal
results and equal exceptions, type and message, pin the envelopes built on
matrix families (lambda_envelope, canonical_envelope, ly_envelope, the omni
algebras) and the witness of every rejected action.

Abelian algebras are left out of the comparisons: there h = E/M = 0, which
the code kept here rejects with an internal message and the package rejects
with an EnvelopeError (tests/test_envelope.py).
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import leibniz_forge
from leibniz_forge import (
    EnvelopeError,
    InvalidActionError,
    LieYamaguti,
    ModuleAction,
    Pcg32,
    StructureAlgebra,
    Subspace,
    canonical_envelope,
    demisemidirect,
    direct_sum,
    gl_action,
    gl_algebra,
    hemisemidirect,
    kernel_of_lambda,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    omni_algebras,
    quotient_algebra,
    random_nilpotent_leibniz,
    squares_ideal,
    validate_envelope,
)
from leibniz_forge.linalg import Matrix, basis_vec
from leibniz_forge.products import action_products
from leibniz_forge.tensor import SparseTensor
from leibniz_forge.yamaguti import LYEnvelope, delta_matrix, inner_derivations

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


# -- dense commutator code, kept verbatim ----------------------------------------

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
    """ModuleAction.__post_init__ with its commutator loop; the action is then
    built without the package's own check."""
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
    act = object.__new__(ModuleAction)
    for key, value in (("h", h), ("mats", mats), ("space_dim", space_dim)):
        object.__setattr__(act, key, value)
    return act


def ref_canonical_envelope(e: StructureAlgebra, m: Subspace):
    if m.ambient_dim != e.dim:
        raise EnvelopeError("ideal lives in the wrong ambient space")
    if not m.contains_subspace(squares_ideal(e)):
        raise EnvelopeError("ideal does not contain the squares ideal")
    if not kernel_of_lambda(e).contains_subspace(m):
        raise EnvelopeError("ideal is not contained in ker lambda")
    h, q = quotient_algebra(e, m)
    mats = tuple(e.left_mul(basis_vec(e.dim, cb)) for cb in m.complement_coords)
    action = ref_action(h, mats)
    return validate_envelope(e, h, action, q)


def ref_lambda_envelope(e: StructureAlgebra):
    ok, witness = e.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    lams = [e.left_mul(basis_vec(n, i)) for i in range(n)]
    h, mats, span = ref_matrix_lie_algebra(n, lams, "L", f"lam({e.name})" if e.name else "")
    f = Matrix.from_cols([span.coords(m.flat) for m in lams])
    return validate_envelope(e, h, ref_action(h, mats), f)


def ref_ly_envelope(ly: LieYamaguti) -> LYEnvelope:
    """ly_envelope with its default h, action and delta."""
    n = ly.dim
    try:
        h, mats, span = ref_matrix_lie_algebra(n, inner_derivations(ly)[0], "d")
    except ValueError:
        raise ValueError("inner derivations do not close under commutators") from None
    action = ref_action(h, mats, space_dim=n)
    delta_t = tuple(tuple(span.coords(delta_matrix(ly, i, j).flat) for j in range(n))
                    for i in range(n))
    d = SparseTensor(delta_t, 2)
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


# -- comparison -----------------------------------------------------------------

def algebra_key(a: StructureAlgebra) -> tuple:
    return a.dim, a.c, a.basis_names, a.name


def action_key(act: ModuleAction) -> tuple:
    return algebra_key(act.h), act.mats, act.v_dim


def outcome(build, *args):
    """What build(*args) gives: its comparable parts, or the exception it raises."""
    try:
        r = build(*args)
    except ValueError as err:
        return type(err), str(err)
    if isinstance(r, ModuleAction):
        return action_key(r)
    if isinstance(r, LYEnvelope):
        return action_key(r.action), r.h is r.action.h, algebra_key(r.g), r.delta
    return (action_key(r.action), r.h is r.action.h, algebra_key(r.e), r.f.entries,
            algebra_key(r.g))


def assert_same_envelopes(e: StructureAlgebra) -> None:
    assert outcome(lambda_envelope, e) == outcome(ref_lambda_envelope, e)
    for ideal in (squares_ideal, kernel_of_lambda):
        m = ideal(e)
        assert outcome(canonical_envelope, e, m) == outcome(ref_canonical_envelope, e, m)


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


# -- envelopes on matrix families ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_envelopes_match(name):
    assert_same_envelopes(CORPUS[name])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_ly_envelopes_match(name):
    ly = ly_from_leibniz(CORPUS[name])
    assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


@settings(max_examples=40, deadline=None)
@given(leibniz_algebras())
def test_random_leibniz_envelopes_match(e):
    assert_same_envelopes(e)
    ly = ly_from_leibniz(e)
    assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


@pytest.mark.parametrize("d", [2, 3])
def test_omni_algebras_match(d):
    h = gl_algebra(d)
    ref = ref_action(h, gl_action(d).mats)
    assert outcome(gl_action, d) == action_key(ref)
    hemi, demi = omni_algebras(d)
    assert algebra_key(hemi) == algebra_key(hemisemidirect(h, ref, f"omni_hemi({d})"))
    assert algebra_key(demi) == algebra_key(demisemidirect(h, ref, f"omni_demi({d})"))
    assert_same_envelopes(hemi)
    if d == 2:
        ly = ly_from_leibniz(hemi)
        assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


# -- rejected actions and negatives -------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(ACTIONS))), st.data())
def test_perturbed_actions_match(which, data):
    """One matrix cell moved: the first failing pair must be the reference's."""
    act = ACTIONS[which]
    mats = perturbed_mats(data, act.mats)
    assert outcome(ModuleAction, act.h, mats) == outcome(ref_action, act.h, mats)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_ly_envelopes_match(n, data):
    """Inner derivations of a random ternary seldom close under commutators."""
    ly = random_ly(data, n)
    assert outcome(ly_envelope, ly) == outcome(ref_ly_envelope, ly)


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
        ly = LieYamaguti.from_tensors([[[Q(0)] * n for _ in range(n)] for _ in range(n)], t)
        got = outcome(ly_envelope, ly)
        assert got == outcome(ref_ly_envelope, ly)
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
    got = leibniz_forge.matrix_lie_algebra(n, mats, "p", "fam")
    if len(got) == 2:  # (action, span) since the action check closes the span
        act, got_span = got
        got = act.h, act.mats, got_span
        assert act.v_dim == n
    assert (algebra_key(got[0]), got[1], got[2]) == (algebra_key(h), basis, span)
