"""The envelope builders and what they read, against the dense definitions of
tests/test_action_reference.py and tests/test_yamaguti_reference.py.

The package reads E/M from the structure constants cleared at M's pivots,
lambda(e_i) from c[i], and the coordinates of a generator in its own span
from its entries at the span's pivots. It grows the squares ideal once on
canonical rows, writes the skew part (c_ij - c_ji) / 2 once over the nonzero
cells, and builds the three products on h x V with one body. Equal results,
every entry a Fraction, and equal exceptions, type and message, pin
quotient_algebra, squares_ideal, skew_symmetrize, ly_from_leibniz,
semidirect_lie, hemisemidirect, demisemidirect, canonical_envelope,
lambda_envelope and ly_envelope on the conftest corpus and on hypothesis
algebras.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    ModuleAction,
    StructureAlgebra,
    Subspace,
    canonical_envelope,
    demisemidirect,
    gl_action,
    hemisemidirect,
    kernel_of_lambda,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    quotient_algebra,
    semidirect_lie,
    squares_ideal,
)
from leibniz_forge.linalg import Matrix, basis_vec

from conftest import build_corpus
from test_action_reference import (
    ACTIONS,
    NEGATIVES,
    assert_same_ly_envelope,
    leibniz_algebras,
    outcome,
    perturbed_algebra,
    ref_canonical_envelope,
    ref_h_times_v,
    ref_lambda_envelope,
    ref_quotient_algebra,
)
from test_linalg_reference import ref_squares_ideal
from test_yamaguti_reference import dense_ly_from_leibniz


def ref_skew_symmetrize(a: StructureAlgebra) -> StructureAlgebra:
    n = a.dim
    c = tuple(tuple(tuple(Q(1, 2) * (a.c[i][j][k] - a.c[j][i][k]) for k in range(n))
                    for j in range(n)) for i in range(n))
    return StructureAlgebra(n, c, a.basis_names, a.name)


def ideals(a: StructureAlgebra) -> list[Subspace]:
    """Subspaces to divide by: squares, ker lambda, zero, whole, and the span
    of the first two structure constants (seldom an ideal)."""
    n = a.dim
    return [squares_ideal(a), kernel_of_lambda(a), Subspace.zero(n), Subspace.whole(n),
            Subspace.span(n, [a.c[0][0], a.c[n - 1][0]] if n else [])]


def assert_same(a: StructureAlgebra) -> None:
    assert outcome(squares_ideal, a) == outcome(ref_squares_ideal, a)
    assert outcome(StructureAlgebra.skew_symmetrize, a) == outcome(ref_skew_symmetrize, a)
    assert outcome(lambda_envelope, a) == outcome(ref_lambda_envelope, a)
    assert outcome(ly_from_leibniz, a) == outcome(dense_ly_from_leibniz, a)
    for m in ideals(a) + [Subspace.zero(a.dim + 1)]:
        if m.ambient_dim == a.dim:
            assert outcome(quotient_algebra, a, m) == outcome(ref_quotient_algebra, a, m)
        assert outcome(canonical_envelope, a, m) == outcome(ref_canonical_envelope, a, m)
    if a.is_leibniz:
        assert_same_ly_envelope(ly_from_leibniz(a))


# -- inputs ---------------------------------------------------------------------

CORPUS = build_corpus()
# dim 24 with five products, most cells zero: the span of squares is e2 + e24 and
# e11 (e6.e7 + e7.e6 cancels at e2), and the ideal reaches e4, e5 - e7 and then e2
# in three more rounds
WIDE = StructureAlgebra.from_products(24, {(0, 0): {1: Q(1), 23: Q(1)}, (1, 2): {3: Q(1)},
                                           (3, 2): {4: Q(2, 3), 6: Q(-2, 3)},
                                           (5, 6): {1: Q(1)}, (6, 5): {1: Q(-1), 10: Q(1)}})
SMALL = [StructureAlgebra.abelian(0), StructureAlgebra.abelian(2)] + NEGATIVES + [WIDE]


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
    for build, left, right in ((semidirect_lie, Q(1), Q(-1)), (hemisemidirect, Q(1), Q(0)),
                               (demisemidirect, Q(1, 2), Q(-1, 2))):
        for h in (act.h, copy(act.h)):
            for name in ("", "p"):
                assert outcome(build, h, act, name) == outcome(ref_h_times_v, h, act, left, right,
                                                               name)


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
        assert_same_ly_envelope(ly, h, action, delta)
