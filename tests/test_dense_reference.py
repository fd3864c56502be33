"""Property tests against a short dense reference kept in this file.

The package evaluates products and checks over the nonzero structure
constants only. The references below walk every dense index tuple in
lexicographic order, as the definitions read, so equal results pin both the
verdicts and the first failing basis tuple (the witness) of every check.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    LieYamaguti,
    Pcg32,
    StructureAlgebra,
    gl_algebra,
    graph_criterion,
    omni_algebras,
    random_algebra,
    random_nilpotent_leibniz,
    validate_ly,
)
from leibniz_forge.linalg import Matrix, commutator, vadd, vneg, vscale, vsub
from leibniz_forge.products import GraphCriterionReport

from conftest import make_broken3, make_heisenberg3, make_leibniz2, make_nl3, make_so3


# -- dense reference ----------------------------------------------------------

def e(n, i):
    return tuple(Q(int(k == i)) for k in range(n))


def vsum(vs, n):
    out = (Q(0),) * n
    for v in vs:
        out = vadd(out, v)
    return out


def comb(rows, v):
    """sum_l v[l] rows[l]."""
    return vsum((vscale(vl, rows[l]) for l, vl in enumerate(v) if vl), len(rows[0]))


def ref_product(c, x, y):
    n = len(c)
    return vsum((vscale(x[i] * y[j], c[i][j])
                 for i, j in product(range(n), repeat=2) if x[i] and y[j]), n)


def ref_ternary(t, x, y, z):
    n = len(t)
    return vsum((vscale(x[i] * y[j] * z[k], t[i][j][k])
                 for i, j, k in product(range(n), repeat=3) if x[i] and y[j] and z[k]), n)


def ref_left_mul(c, x):
    n = len(c)
    return Matrix.from_cols([ref_product(c, x, e(n, j)) for j in range(n)])


def ref_check_leibniz(c):
    n = len(c)
    for i, j, k in product(range(n), repeat=3):
        lhs = ref_product(c, e(n, i), c[j][k])
        rhs = vadd(ref_product(c, c[i][j], e(n, k)), ref_product(c, e(n, j), c[i][k]))
        if lhs != rhs:
            return False, (i, j, k, lhs, rhs)
    return True, None


def ref_graph_criterion(c):
    """Closure, circle product, demi-closure and graph Jacobi, as matrices."""
    n = len(c)
    lam = [ref_left_mul(c, e(n, i)) for i in range(n)]
    pairs = list(product(range(n), repeat=2))
    closure = next(((i, j) for i, j in pairs
                    if commutator(lam[i], lam[j]) != ref_left_mul(c, c[i][j])), None)
    circle = next(((i, j) for i, j in pairs if i <= j and any(vadd(c[i][j], c[j][i]))), None)
    demi = all(commutator(lam[i], lam[j])
               == ref_left_mul(c, vscale(Q(1, 2), vsub(c[i][j], c[j][i]))) for i, j in pairs)

    def bracket(x, y):
        return commutator(x[0], y[0]), vscale(Q(1, 2), vsub(x[0].apply(y[1]), y[0].apply(x[1])))

    pts = [(lam[m], e(n, m)) for m in range(n)]

    def jacobi(i, j, k):
        terms = [bracket(bracket(pts[x], pts[y]), pts[z])
                 for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
        return ((terms[0][0] + terms[1][0] + terms[2][0]).is_zero()
                and not any(vsum([v for _, v in terms], n)))

    lie_sub = (demi and circle is None
               and all(jacobi(*ijk) for ijk in product(range(n), repeat=3)))
    return GraphCriterionReport(closure is None, lie_sub, circle is None, closure, circle)


def ref_validate_ly(ly):
    """(ok, axiom, at) of LY1-LY6, each scanned over basis tuples in order."""
    n, b, t = ly.dim, ly.b, ly.t
    idx = range(n)

    def cyc(i, j, k):
        return (i, j, k), (j, k, i), (k, i, j)

    def ly3(i, j, k):
        return not any(vsum([vadd(comb([b[l][z] for l in idx], b[x][y]), t[x][y][z])
                             for x, y, z in cyc(i, j, k)], n))

    def ly4(i, j, k, u):
        return not any(vsum([comb([t[l][z][u] for l in idx], b[x][y])
                             for x, y, z in cyc(i, j, k)], n))

    def ly5(i, j, u, v):
        return comb(t[i][j], b[u][v]) == vadd(comb([b[l][v] for l in idx], t[i][j][u]),
                                              comb([b[u][l] for l in idx], t[i][j][v]))

    def ly6(i, j, u, v, w):
        return comb(t[i][j], t[u][v][w]) == vsum(
            [comb([t[l][v][w] for l in idx], t[i][j][u]),
             comb([t[u][l][w] for l in idx], t[i][j][v]),
             comb([t[u][v][l] for l in idx], t[i][j][w])], n)

    for name, arity, holds in (
            ("LY1", 2, lambda i, j: b[i][j] == vneg(b[j][i])),
            ("LY2", 3, lambda i, j, k: t[i][j][k] == vneg(t[j][i][k])),
            ("LY3", 3, ly3), ("LY4", 4, ly4), ("LY5", 4, ly5), ("LY6", 5, ly6)):
        for at in product(idx, repeat=arity):
            if not holds(*at):
                return False, name, at
    return True, None, None


# -- inputs -------------------------------------------------------------------

def ly_tensors(a):
    """Skew part and -(e_i e_j) e_k / 4 of any algebra; a valid LY iff a is Leibniz."""
    n, c = a.dim, a.c
    b = tuple(tuple(vscale(Q(1, 2), vsub(c[i][j], c[j][i])) for j in range(n))
              for i in range(n))
    t = tuple(tuple(tuple(vscale(Q(-1, 4), ref_product(c, c[i][j], e(n, k)))
                          for k in range(n)) for j in range(n)) for i in range(n))
    return LieYamaguti(n, b, t)


def bump(tensor, key, v):
    """Copy of a nested-tuple tensor with v added at key."""
    i = key[0]
    inner = tensor[i] + v if len(key) == 1 else bump(tensor[i], key[1:], v)
    return tensor[:i] + (inner,) + tensor[i + 1:]


def perturb(ly, binary, key, v, skew):
    """Add v at key and, if skew, -v at key with its first two slots swapped."""
    b, t = ly.b, ly.t
    swapped = (key[1], key[0]) + key[2:]
    if binary:
        b = bump(b, key, v)
        b = bump(b, swapped, -v) if skew else b
    else:
        t = bump(t, key, v)
        t = bump(t, swapped, -v) if skew else t
    return LieYamaguti(ly.dim, b, t)


def pair2(beta, d):
    """2-dim skew pair with b(e0, e1) = beta and t(e0, e1, .) = D."""
    zero = (Q(0), Q(0))
    b01 = tuple(map(Q, beta))
    t01 = tuple(tuple(Q(d[l][k]) for l in range(2)) for k in range(2))
    b = ((zero, b01), (vneg(b01), zero))
    t = (((zero, zero), t01), (tuple(map(vneg, t01)), (zero, zero)))
    return LieYamaguti(2, b, t)


HEMI2, DEMI2 = omni_algebras(2)
FIXED = {
    "omni_hemi2": HEMI2, "omni_demi2": DEMI2, "gl2": gl_algebra(2),
    "so3": make_so3(), "heis3": make_heisenberg3(), "leibniz2": make_leibniz2(),
    "nl3": make_nl3(), "broken3": make_broken3(),
}

seeds = st.integers(0, 2 ** 32 - 1)
small = st.integers(-2, 2)


def random_algebras(top):
    return st.one_of(
        st.builds(lambda s, d: random_algebra(Pcg32(s), d), seeds, st.integers(1, top - 1)),
        st.builds(lambda s, d: random_nilpotent_leibniz(Pcg32(s), d), seeds,
                  st.integers(2, top)))


def vectors(n):
    return st.tuples(*[small.map(Q)] * n)


def check_products(a, x, y):
    assert a.product(x, y) == ref_product(a.c, x, y)
    assert a.left_mul(x) == ref_left_mul(a.c, x)


# -- algebras -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(random_algebras(5), st.data())
def test_random_algebras_match_reference(a, data):
    x, y = data.draw(vectors(a.dim)), data.draw(vectors(a.dim))
    check_products(a, x, y)
    assert a.check_leibniz() == ref_check_leibniz(a.c)
    assert graph_criterion(a) == ref_graph_criterion(a.c)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_algebras_match_reference(name):
    a = StructureAlgebra(FIXED[name].dim, FIXED[name].c, FIXED[name].basis_names)
    n = a.dim
    check_products(a, tuple(Q(k - 1, 2) for k in range(n)), tuple(Q(3 - k) for k in range(n)))
    assert a.check_leibniz() == ref_check_leibniz(a.c)
    assert graph_criterion(a) == ref_graph_criterion(a.c)


# -- Lie-Yamaguti -------------------------------------------------------------

def ly_case(ly):
    rep = validate_ly(ly)
    expected = ref_validate_ly(ly)
    assert (rep.ok, rep.axiom, rep.at) == expected
    return expected[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_algebras(4), st.sampled_from([HEMI2, DEMI2])), st.data())
def test_perturbed_ly_matches_reference(a, data):
    ly = ly_tensors(a)
    n = a.dim
    binary = data.draw(st.booleans())
    key = data.draw(st.tuples(*[st.integers(0, n - 1)] * (3 if binary else 4)))
    v = data.draw(st.sampled_from([-2, -1, 1, 2]).map(Q))
    ly = perturb(ly, binary, key, v, skew=data.draw(st.booleans()) and key[0] != key[1])
    ly_case(ly)
    x, y, z = (data.draw(vectors(n)) for _ in range(3))
    assert ly.binary(x, y) == ref_product(ly.b, x, y)
    assert ly.ternary(x, y, z) == ref_ternary(ly.t, x, y, z)


@settings(max_examples=80, deadline=None)
@given(st.tuples(small, small), st.tuples(st.tuples(small, small), st.tuples(small, small)))
def test_two_dimensional_skew_pairs_match_reference(beta, d):
    ly_case(pair2(beta, d))


def test_every_axiom_is_hit():
    hemi_ly = ly_tensors(HEMI2)
    cases = [
        hemi_ly,                                             # valid
        perturb(hemi_ly, True, (0, 1, 2), Q(1), False),      # LY1
        perturb(hemi_ly, False, (0, 1, 2, 3), Q(1), False),  # LY2
        perturb(hemi_ly, True, (0, 1, 2), Q(1), True),       # LY3
        perturb(hemi_ly, False, (0, 1, 0, 0), Q(1), True),   # LY4
        pair2((1, 0), ((0, 0), (0, 1))),                     # LY5
        pair2((0, 0), ((1, 0), (0, 0))),                     # LY6
    ]
    hit = [ly_case(ly) for ly in cases]
    assert hit == [None, "LY1", "LY2", "LY3", "LY4", "LY5", "LY6"]
