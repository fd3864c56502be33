"""Exact loop operations against a dense matrix-exponential reference.

The package applies exp(s lambda(x)) to vectors as a series that stops at its
first zero term. The reference below forms the whole matrix instead: it
certifies nilpotency by repeated squaring and a power scan, then sums the
finite Taylor series with dense matmuls, as the definitions read. Equal
results, and equal first failing samples of the loop laws, pin the exact
behaviour; the float path is pinned bit for bit against its own recipe.

Two orderings are kept here as references as well: the gate checked in the
order basis -> sampled -> envelope, and the law suite evaluated law by law
with a fresh set of exponentials for every law and sample.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    FloatMatrix,
    Matrix,
    NotNilpotentError,
    Pcg32,
    StructureAlgebra,
    left_divide,
    left_inner_mapping,
    left_inverse,
    loop_context,
    loop_gate,
    loop_product,
    loop_property_check,
    mat_exp_exact,
    mat_exp_float,
    omni_algebras,
    random_algebra,
    random_nilpotent_leibniz,
    random_vector,
)
from leibniz_forge.linalg import basis_vec, exp_apply, is_nilpotent, vadd, vneg, vsub, vzero
from leibniz_forge.loops import (
    _GATE_SAMPLES,
    _GATE_SEED,
    LoopContext,
    LoopGate,
    _coerce,
    _envelope_nilpotent,
    _Loop,
)

from conftest import make_nl3, make_so3, make_so3_hemi

S = Q(1, 2)


# -- dense reference ----------------------------------------------------------

def ref_is_nilpotent(m):
    """(True, least k with m^k = 0) or (False, None), by squaring up to the dimension."""
    n = m.rows
    if n == 0:
        return True, 0
    p, k = m, 1
    while k < n:
        p, k = p @ p, 2 * k
    if not p.is_zero():
        return False, None
    power = Matrix.identity(n)
    for idx in range(1, n + 1):
        power = power @ m
        if power.is_zero():
            return True, idx


def ref_mat_exp(m):
    nil, idx = ref_is_nilpotent(m)
    if not nil:
        raise NotNilpotentError("not nilpotent; use float mode")
    out = term = Matrix.identity(m.rows)
    for k in range(1, idx):
        term = term @ m * Q(1, k)
        out = out + term
    return out


def ref_exp(a, x, sign):
    return ref_mat_exp(a.left_mul(x) * (sign * S))


def ref_product(a, x, y):
    return vadd(x, ref_exp(a, x, 1).apply(y))


def ref_inverse(a, x):
    return vneg(ref_exp(a, x, -1).apply(x))


def ref_divide(a, x, y):
    return ref_exp(a, x, -1).apply(vsub(y, x))


def ref_inner(a, x, y):
    return ref_exp(a, ref_product(a, x, y), -1) @ ref_exp(a, x, 1) @ ref_exp(a, y, 1)


def ref_first_failures(a, samples, seed):
    """Per law, the index of the first failing sample or None, in suite order."""
    n = a.dim
    rng = Pcg32(seed)
    quads = [tuple(random_vector(rng, n) for _ in range(4)) for _ in range(samples)]
    zero = vzero(n)

    def p(x, y):
        return ref_product(a, x, y)

    def inner(x, y, v):
        return ref_inner(a, x, y).apply(v)

    inv, div = (lambda x: ref_inverse(a, x)), (lambda x, y: ref_divide(a, x, y))
    laws = (
        lambda u, v, w, z: p(zero, u) == u and p(u, zero) == u,
        lambda u, v, w, z: p(u, div(u, v)) == v and div(u, p(u, v)) == v,
        lambda u, v, w, z: inv(u) == div(u, zero) and p(u, inv(u)) == zero,
        lambda u, v, w, z: p(inv(u), p(u, v)) == v,
        lambda u, v, w, z: p(u, p(v, w)) == p(p(u, v), inner(u, v, w)),
        lambda u, v, w, z: inner(u, v, p(w, z)) == p(inner(u, v, w), inner(u, v, z)),
    )
    return [next((k for k, q in enumerate(quads) if not law(*q)), None) for law in laws]


def ref_loop_gate(a):
    """The gate in the order basis -> sampled -> envelope, each layer run only
    when the one before it passes."""
    if not all(is_nilpotent(a.left_mul(basis_vec(a.dim, i)))[0] for i in range(a.dim)):
        return LoopGate(False, False, False)
    rng = Pcg32(_GATE_SEED)
    if not all(is_nilpotent(a.left_mul(random_vector(rng, a.dim)))[0]
               for _ in range(_GATE_SAMPLES)):
        return LoopGate(True, False, False)
    return LoopGate(True, True, _envelope_nilpotent(a))


def ref_witnesses(ctx, samples, seed):
    """Per law, the witness text (None when it passes), evaluated law by law
    with a fresh _Loop for every law and sample."""
    n = ctx.algebra.dim
    rng = Pcg32(seed)
    quads = [tuple(random_vector(rng, n) for _ in range(4)) for _ in range(samples)]
    zero = _coerce(ctx.mode, vzero(n))
    laws = (
        (1, lambda lp, a, b, c, d: lp.close(lp.product(zero, a), a)
         and lp.close(lp.product(a, zero), a)),
        (2, lambda lp, a, b, c, d: lp.close(lp.product(a, lp.divide(a, b)), b)
         and lp.close(lp.divide(a, lp.product(a, b)), b)),
        (1, lambda lp, a, b, c, d: lp.close(lp.inverse(a), lp.divide(a, zero))
         and lp.close(lp.product(a, lp.inverse(a)), zero)),
        (2, lambda lp, a, b, c, d: lp.close(lp.product(lp.inverse(a), lp.product(a, b)), b)),
        (3, lambda lp, a, b, c, d: lp.close(lp.product(a, lp.product(b, c)),
                                            lp.product(lp.product(a, b), lp.inner(a, b, c)))),
        (4, lambda lp, a, b, c, d: lp.close(lp.inner(a, b, lp.product(c, d)),
                                            lp.product(lp.inner(a, b, c), lp.inner(a, b, d)))),
    )
    out = []
    for reads, law in laws:
        bad = next((k for k, q in enumerate(quads)
                    if not law(_Loop(ctx), *(_coerce(ctx.mode, v) for v in q))), None)
        out.append(None if bad is None else f"sample {bad}: " + ", ".join(
            f"{v}=({', '.join(map(str, x))})" for v, x in zip("abcd", quads[bad][:reads])))
    return out


def first_failures(report):
    """The sample index that each check's witness names, or None when it passes."""
    return [None if c.ok else int(c.witness.split(":")[0].removeprefix("sample "))
            for c in report.checks]


# -- strategies ---------------------------------------------------------------

seeds = st.integers(0, 2 ** 32 - 1)
small = st.integers(-2, 2).map(Q)


@st.composite
def nilpotent_algebras(draw):
    return random_nilpotent_leibniz(Pcg32(draw(seeds)), draw(st.integers(2, 5)))


@st.composite
def triangular_algebras(draw):
    """e_i e_j in the span of e_k, k > max(i, j): every lambda(x) is strictly
    triangular, so the gate passes, but the product is rarely Leibniz."""
    n = draw(st.integers(2, 4))
    return StructureAlgebra.from_products(n, {
        (i, j): {k: draw(small) for k in range(max(i, j) + 1, n)}
        for i in range(n) for j in range(n)})


def vectors(n):
    return st.tuples(*[small] * n)


@st.composite
def square_matrices(draw):
    """Small integer matrices, half of them strictly upper triangular in a
    scrambled basis (nilpotent), the rest mostly not nilpotent."""
    n = draw(st.integers(1, 4))
    rows = [list(draw(vectors(n))) for _ in range(n)]
    if draw(st.booleans()):
        rows = [[x if j > i else Q(0) for j, x in enumerate(r)] for i, r in enumerate(rows)]
        perm = draw(st.permutations(range(n)))
        rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return Matrix.from_rows(rows)


def omni2_e12_slice():
    """Elements (xi, x) of omni_hemi(2) with xi in the span of E12, where lambda is nilpotent."""
    return st.builds(lambda q, x, y: (Q(0), q, Q(0), Q(0), x, y), small, small, small)


OMNI2 = omni_algebras(2)[0]


# -- the series and the matrix exponential ------------------------------------

@settings(max_examples=80, deadline=None)
@given(square_matrices(), st.data())
def test_exp_apply_matches_dense_series(m, data):
    v = data.draw(vectors(m.rows))
    power, total = v, v
    for k in range(1, m.rows + 1):
        power = m.apply(power)
        if k < m.rows:
            total = vadd(total, tuple(x * Q(1, factorial(k)) for x in power))
    if any(power):
        with pytest.raises(NotNilpotentError, match="use float mode$"):
            exp_apply(m, v)
    else:
        assert exp_apply(m, v) == total
    if ref_is_nilpotent(m)[0]:
        assert exp_apply(m, v) == ref_mat_exp(m).apply(v)


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_mat_exp_exact_matches_reference(m):
    if ref_is_nilpotent(m)[0]:
        assert mat_exp_exact(m) == ref_mat_exp(m)
    else:
        with pytest.raises(NotNilpotentError, match="use float mode$"):
            mat_exp_exact(m)


# -- loop operations on nilpotent algebras ------------------------------------

@settings(max_examples=30, deadline=None)
@given(nilpotent_algebras(), st.data())
def test_loop_operations_match_reference(a, data):
    ctx = loop_context(a, s=S)
    assert ctx.mode == "exact"
    x, y = data.draw(vectors(a.dim)), data.draw(vectors(a.dim))
    lam = a.left_mul(x) * S
    assert mat_exp_exact(lam) == ref_mat_exp(lam)
    assert exp_apply(lam, y) == ref_mat_exp(lam).apply(y)
    assert loop_product(ctx, x, y) == ref_product(a, x, y)
    assert left_inverse(ctx, x) == ref_inverse(a, x)
    assert left_divide(ctx, x, y) == ref_divide(a, x, y)
    assert left_inner_mapping(ctx, x, y) == ref_inner(a, x, y)


@settings(max_examples=30, deadline=None)
@given(omni2_e12_slice(), omni2_e12_slice())
def test_omni2_e12_slice_matches_reference(x, y):
    ctx = LoopContext(OMNI2, S, "exact")
    assert loop_product(ctx, x, y) == ref_product(OMNI2, x, y)
    assert left_inverse(ctx, x) == ref_inverse(OMNI2, x)
    assert left_divide(ctx, x, y) == ref_divide(OMNI2, x, y)
    assert left_inner_mapping(ctx, x, y) == ref_inner(OMNI2, x, y)


@settings(max_examples=30, deadline=None)
@given(st.one_of(nilpotent_algebras(), triangular_algebras()), st.integers(0, 1000))
def test_property_report_matches_reference(a, seed):
    ctx = loop_context(a, s=S)
    assert ctx.mode == "exact"
    assert first_failures(loop_property_check(ctx, samples=3, seed=seed)) == \
        ref_first_failures(a, 3, seed)


@pytest.mark.parametrize("name", ["leibniz2", "n2_hemi", "nilp2_s11", "nilp3_s12",
                                  "nilp4_s13", "nilp5_s14", "nilp4_s15", "nl3"])
def test_first_failing_samples_match_reference(name, corpus, nl3):
    a = nl3 if name == "nl3" else corpus[name]
    rep = loop_property_check(loop_context(a, s=S), samples=8, seed=1)
    assert first_failures(rep) == ref_first_failures(a, 8, 1)


# -- the gate, envelope first ------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.one_of(nilpotent_algebras(),
                 st.builds(lambda sd, n: random_algebra(Pcg32(sd), n), seeds, st.integers(2, 4))))
def test_gate_matches_sampled_first_reference(a):
    assert loop_gate(a) == ref_loop_gate(a)


def test_gate_matches_reference_on_corpus(corpus, nl3):
    for a in [*corpus.values(), nl3]:
        assert loop_gate(a) == ref_loop_gate(a), a.name


@pytest.mark.parametrize("dim, products, gate", [
    # lambda(x)^2 = x_1 x_2 I, so a sample with both coordinates nonzero rejects it
    (2, {(0, 1): {0: 1}, (1, 0): {1: 1}}, LoopGate(True, False, False)),
    # every lambda(x) is nilpotent, but the envelope of the lambda(e_i) is not
    (3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 0): {1: 1}, (1, 1): {2: -1}},
     LoopGate(True, True, False)),
])
def test_gate_reaches_the_sampled_layer(dim, products, gate):
    a = StructureAlgebra.from_products(dim, products)
    assert loop_gate(a) == ref_loop_gate(a) == gate


# -- float mode and the exact edge case ---------------------------------------

@pytest.mark.parametrize("make, mode, tol", [
    *[(make, "float", tol) for make in (make_so3, make_so3_hemi, make_nl3)
      for tol in (1e-8, 1e-14)],
    (make_nl3, "exact", 1e-9),
])
def test_report_matches_law_by_law_reference(make, mode, tol):
    # at 1e-14 some float laws fail on rounding alone, at different first samples
    ctx = loop_context(make(), s=S, mode=mode, tol=tol)
    rep = loop_property_check(ctx, samples=12, seed=1)
    witnesses = ref_witnesses(ctx, 12, 1)
    assert [c.witness for c in rep.checks] == witnesses
    assert [c.ok for c in rep.checks] == [w is None for w in witnesses]


@pytest.mark.parametrize("make", [make_so3, make_so3_hemi])
def test_float_product_is_bit_identical(make):
    a = make()
    ctx = loop_context(a, s=S, tol=1e-8)
    assert ctx.mode == "float"
    rng = Pcg32(3)
    for _ in range(10):
        x, y = random_vector(rng, a.dim), random_vector(rng, a.dim)
        xf, yf = tuple(map(float, x)), tuple(map(float, y))
        lam = FloatMatrix.from_rows(list(zip(*[a.sparse.contract(xf, j) for j in range(a.dim)])))
        ey = mat_exp_float(lam * float(S), tol=1e-12).apply(yf)
        assert loop_product(ctx, x, y) == tuple(p + q for p, q in zip(xf, ey))


def test_direct_exact_so3_context():
    # lambda(x) is a rotation generator: the series for y dies only when
    # lambda(x) y = 0, and then the exact value is returned
    ctx = LoopContext(make_so3(), S, "exact")
    x = basis_vec(3, 0)
    with pytest.raises(NotNilpotentError, match="use float mode$"):
        loop_product(ctx, x, basis_vec(3, 1))
    assert loop_product(ctx, x, vzero(3)) == x
    assert loop_product(ctx, x, (Q(2), Q(0), Q(0))) == (Q(3), Q(0), Q(0))
