"""Loop operations, the law suite and the gate against a dense reference.

The package applies exp(s lambda(x)) to integer-scaled vectors as a series
that stops at its first zero term, and decides the gate on the envelope
first. The reference below certifies nilpotency by repeated squaring and a
power scan and sums the finite Taylor series with dense matmuls, as the
definitions read; applied to one vector, it sums m^k v / k! up to k = n and
raises exactly when m^n v is not zero. The loop operations and the six laws
are written on it, in exact mode and, through the float recipe below, in float
mode; the gate checks basis -> sampled -> envelope, the last as the span of
products of k generators in the n^2-dimensional space of matrices. Equal
values, equal reports with their "sample k" witnesses and equal LoopGates pin
the behaviour on rational and 40-digit entries and several values of s.

The float exponential on FloatMatrix products and sign * s * lambda(x) built
from sparse.contract are kept as they were: the float path must return the
same bits, and raise the documented "non-finite entry" error where the recipe
lets a math.fsum error out.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import cache, partial
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
    Subspace,
    direct_sum,
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
from leibniz_forge.courant import CheckResult
from leibniz_forge.linalg import (
    as_q,
    basis_vec,
    exp_apply,
    is_nilpotent,
    vadd,
    vneg,
    vsub,
    vzero,
)
from leibniz_forge.loops import (
    _GATE_SAMPLES,
    _GATE_SEED,
    LoopContext,
    LoopGate,
    LoopPropertyReport,
    _envelope_nilpotent,
    _s_lambda,
)

from conftest import make_idem1, make_nl3, make_so3, make_so3_hemi
from test_linalg import big_rationals

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


def ref_exp_power(m, v):
    """m^n v, n the dimension."""
    for _ in range(m.rows):
        v = m.apply(v)
    return v


def ref_exp_apply(m, v):
    """exp(m) v = sum_k m^k v / k!, which ends by k = n exactly when m^n v = 0."""
    if any(ref_exp_power(m, v)):
        raise NotNilpotentError("not nilpotent; use float mode")
    power = total = tuple(as_q(x) for x in v)
    for k in range(1, m.rows):
        power = m.apply(power)
        total = vadd(total, tuple(x * Q(1, factorial(k)) for x in power))
    return total


def ref_exp(a, x, sign, s=S):
    return ref_mat_exp(a.left_mul(x) * (sign * s))


def ref_product(a, x, y, s=S):
    return vadd(x, ref_exp(a, x, 1, s).apply(y))


def ref_inverse(a, x, s=S):
    return vneg(ref_exp(a, x, -1, s).apply(x))


def ref_divide(a, x, y, s=S):
    return ref_exp(a, x, -1, s).apply(vsub(y, x))


def ref_inner(a, x, y, s=S):
    return (ref_exp(a, ref_product(a, x, y, s), -1, s) @ ref_exp(a, x, 1, s)
            @ ref_exp(a, y, 1, s))


# The loop in either mode, as its definitions read: in exact mode exp(+-s lambda(x))
# is the finite series on each vector, in float mode the float recipe below
# followed by mat_exp_float (pinned bit for bit on its own).

def ref_matrix(ctx, x, sign):
    if ctx.mode == "exact":
        return ctx.algebra.left_mul(x) * (sign * ctx.s)
    return ref_float_s_lambda(ctx, x, sign)


class RefLoop:
    """The loop on vectors in the mode's form; each exp(+-s lambda(x)) built once."""

    def __init__(self, ctx) -> None:
        self.ctx, self.exps = ctx, {}

    def coerce(self, v) -> tuple:
        return tuple(as_q(c) if self.ctx.mode == "exact" else float(c) for c in v)

    def exp(self, x, sign):
        """v -> exp(sign s lambda(x)) v."""
        if (x, sign) not in self.exps:
            m, ctx = ref_matrix(self.ctx, x, sign), self.ctx
            self.exps[x, sign] = (partial(ref_exp_apply, m) if ctx.mode == "exact"
                                  else mat_exp_float(m, tol=min(ctx.tol, 1e-12)).apply)
        return self.exps[x, sign]

    def close(self, u, v) -> bool:
        if self.ctx.mode == "exact":
            return u == v
        return max((abs(p - q) for p, q in zip(u, v)), default=0.0) <= self.ctx.tol

    def product(self, x, y):
        return vadd(x, self.exp(x, 1)(y))

    def inverse(self, x):
        return vneg(self.exp(x, -1)(x))

    def divide(self, a, b):
        return self.exp(a, -1)(vsub(b, a))

    def inner(self, a, b, v):
        return self.exp(self.product(a, b), -1)(self.exp(a, 1)(self.exp(b, 1)(v)))

    def inner_matrix(self, a, b):
        ctx = self.ctx
        exp = ref_mat_exp if ctx.mode == "exact" else partial(mat_exp_float, tol=min(ctx.tol, 1e-12))
        return (exp(ref_matrix(ctx, self.product(a, b), -1)) @ exp(ref_matrix(ctx, a, 1))
                @ exp(ref_matrix(ctx, b, 1)))


def ref_operations(ctx):
    """loop_product, left_inverse, left_divide and left_inner_mapping, on (x, y)."""
    lp = RefLoop(ctx)
    c = lp.coerce
    return (lambda x, y: lp.product(c(x), c(y)), lambda x, y: lp.inverse(c(x)),
            lambda x, y: lp.divide(c(x), c(y)), lambda x, y: lp.inner_matrix(c(x), c(y)))


def ref_loop_property_check(ctx, samples: int = 64, seed: int = 0) -> LoopPropertyReport:
    """Every law on every sample until it fails."""
    n = ctx.algebra.dim
    rng = Pcg32(seed)
    quads = [tuple(random_vector(rng, n) for _ in range(4)) for _ in range(samples)]
    lp = RefLoop(ctx)
    p, inv, div, inner, close, zero = (lp.product, lp.inverse, lp.divide, lp.inner, lp.close,
                                       lp.coerce(vzero(n)))
    laws = (("identity", 1, lambda a, b, c, d: close(p(zero, a), a) and close(p(a, zero), a)),
            ("left_division", 2, lambda a, b, c, d: close(p(a, div(a, b)), b)
             and close(div(a, p(a, b)), b)),
            ("left_inverse", 1, lambda a, b, c, d: close(inv(a), div(a, zero))
             and close(p(a, inv(a)), zero)),
            ("left_inverse_property", 2, lambda a, b, c, d: close(p(inv(a), p(a, b)), b)),
            ("inner_mapping_defining", 3, lambda a, b, c, d: close(p(a, p(b, c)),
                                                                 p(p(a, b), inner(a, b, c)))),
            ("inner_mapping_automorphism", 4, lambda a, b, c, d: close(
                inner(a, b, p(c, d)), p(inner(a, b, c), inner(a, b, d)))))
    bad: list[int | None] = [None] * len(laws)
    for k, q in enumerate(quads):
        vs = [lp.coerce(v) for v in q]
        for i, (_, _, law) in enumerate(laws):
            if bad[i] is None and not law(*vs):
                bad[i] = k
    checks = tuple(CheckResult(name, k is None, None if k is None else f"sample {k}: " + ", ".join(
        f"{v}=({', '.join(map(str, x))})" for v, x in zip("abcd", quads[k][:reads])))
        for (name, reads, _), k in zip(laws, bad))
    return LoopPropertyReport(all(c.ok for c in checks), checks)


def ref_envelope_nilpotent(a: StructureAlgebra) -> bool:
    """Is the associative algebra generated by all lambda(e_i) nilpotent?

    Tracks the span W_k of products of exactly k generators. If the envelope
    is nilpotent W_k dies within n^2 + 1 steps; a nonzero fixed point W_(k+1)
    = W_k proves it never dies.
    """
    n = a.dim
    gens = [a.left_mul(basis_vec(n, i)) for i in range(n)]
    chain = Subspace.span(n * n, [g.flat for g in gens])
    for _ in range(n * n + 1):
        if chain.dim == 0:
            return True
        nxt = Subspace.span(n * n, [(Matrix.from_flat(w, n) @ g).flat
                                    for w in chain.basis for g in gens])
        if nxt == chain:
            return False
        chain = nxt
    return chain.dim == 0


def ref_loop_gate(a):
    """The gate in the order basis -> sampled -> envelope, each layer run only
    when the one before it passes."""
    if not all(is_nilpotent(a.left_mul(basis_vec(a.dim, i)))[0] for i in range(a.dim)):
        return LoopGate(False, False, False)
    rng = Pcg32(_GATE_SEED)
    if not all(is_nilpotent(a.left_mul(random_vector(rng, a.dim)))[0]
               for _ in range(_GATE_SAMPLES)):
        return LoopGate(True, False, False)
    return LoopGate(True, True, ref_envelope_nilpotent(a))


# The float exponential, product and apply as they were on FloatMatrix
# operations (FloatMatrix @ is spelled ref_float_matmul), and sign * s *
# lambda(x) built from one sparse.contract per column: the float path must
# return the same bits and raise the same errors.

def ref_float_matmul(a: FloatMatrix, b: FloatMatrix) -> FloatMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = list(zip(*b.entries))
    return FloatMatrix(tuple(tuple(math.fsum(x * y for x, y in zip(r, c)) for c in bt)
                             for r in a.entries))


def ref_float_apply(m: FloatMatrix, v) -> tuple[float, ...]:
    return tuple(math.fsum(x * y for x, y in zip(r, v)) for r in m.entries)


def ref_mat_exp_float(m, tol: float = 1e-12) -> FloatMatrix:
    """exp(m) by scaling and squaring with the Taylor tail bounded below tol."""
    fm = FloatMatrix.from_exact(m) if isinstance(m, Matrix) else m
    if fm.rows != fm.cols:
        raise ValueError("exp is defined for square matrices")
    n = fm.rows
    if n == 0:
        return fm
    norm = fm.inf_norm()
    j = 0
    while norm > 0.5:
        norm /= 2.0
        j += 1
    scaled = fm * (0.5 ** j)
    out = term = FloatMatrix.identity(n)
    # tail bound: after the k-th term the remainder is < |term| since |scaled| <= 1/2;
    # squaring amplifies roughly 2^j-fold, so demand a j-scaled margin
    cutoff = tol * (0.5 ** j) / math.e
    for k in range(1, 80):
        term = ref_float_matmul(term, scaled) * (1.0 / k)
        out = out + term
        if term.inf_norm() < cutoff:
            break
    for _ in range(j):
        out = ref_float_matmul(out, out)
    return out


def ref_float_s_lambda(ctx, x, sign):
    cols = [ctx.algebra.sparse.contract(x, j) for j in range(ctx.algebra.dim)]
    return FloatMatrix.from_rows(list(zip(*cols))) * float(sign * ctx.s)


# -- strategies ---------------------------------------------------------------

seeds = st.integers(0, 2 ** 32 - 1)
small = st.integers(-2, 2).map(Q)
rationals = st.builds(Q, st.integers(-60, 60), st.integers(1, 7))
nonzero_rationals = rationals.filter(bool)
mixed = st.one_of(rationals, big_rationals)
s_values = st.sampled_from([Q(1, 2), Q(2, 3), Q(-3, 5), Q(7)])
wide_s = st.one_of(st.sampled_from([Q(0), Q(2, 3), Q(-3, 5), Q(7)]), big_rationals.filter(bool))
BIG = Q(10 ** 59 + 7, 3)  # a 60-digit numerator


@cache  # one strategy object per argument: building one costs more than a draw
def vectors(n, entries=small):
    return st.tuples(*[entries] * n)


@st.composite
def nilpotent_algebras(draw, scales=None):
    """A random nilpotent Leibniz algebra, its constants scaled by a drawn rational
    when scales are given: each side of the Leibniz identity scales by its square."""
    a = random_nilpotent_leibniz(Pcg32(draw(seeds)), draw(st.integers(2, 5)))
    if scales is None:
        return a
    t = draw(scales)
    return StructureAlgebra.from_constants([[[t * x for x in cell] for cell in row]
                                            for row in a.c])


@st.composite
def big_basis_algebras(draw):
    """A random nilpotent Leibniz algebra in the basis of the columns of an upper
    triangular matrix with big entries and a nonzero diagonal, its rows permuted."""
    a = draw(nilpotent_algebras())
    n, perm = a.dim, draw(st.permutations(range(a.dim)))
    rows = [[draw(big_rationals.filter(bool)) if j == i else draw(big_rationals) if j > i
             else Q(0) for j in range(n)] for i in range(n)]
    return a.change_basis(Matrix.from_rows([rows[perm[i]] for i in range(n)]))


@st.composite
def triangular_algebras(draw, entries=small):
    """e_i e_j in the span of e_k, k > max(i, j): every lambda(x) is strictly
    triangular, so the gate passes, but the product is rarely Leibniz."""
    n = draw(st.integers(2, 4))
    return StructureAlgebra.from_products(n, {
        (i, j): {k: draw(entries) for k in range(max(i, j) + 1, n)}
        for i in range(n) for j in range(n)})


@st.composite
def square_matrices(draw, entries=small, smallest=1):
    """Matrices of sizes smallest-4, half of them strictly upper triangular in a
    scrambled basis (nilpotent), the rest mostly not nilpotent."""
    n = draw(st.integers(smallest, 4))
    rows = [list(draw(vectors(n, entries))) for _ in range(n)]
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
    if ref_is_nilpotent(m)[0]:
        assert exp_apply(m, v) == ref_exp_apply(m, v) == ref_mat_exp(m).apply(v)
    elif any(ref_exp_power(m, v)):
        with pytest.raises(NotNilpotentError, match="use float mode$"):
            exp_apply(m, v)
    else:
        assert exp_apply(m, v) == ref_exp_apply(m, v)


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
    assert loop_property_check(ctx, samples=3, seed=seed) == ref_loop_property_check(ctx, 3, seed)


@pytest.mark.parametrize("name", ["leibniz2", "n2_hemi", "nilp2_s11", "nilp3_s12",
                                  "nilp4_s13", "nilp5_s14", "nilp4_s15", "nl3"])
def test_first_failing_samples_match_reference(name, corpus, nl3):
    a = nl3 if name == "nl3" else corpus[name]
    rep = loop_property_check(loop_context(a, s=S), samples=8, seed=1)
    assert rep == ref_loop_property_check(loop_context(a, s=S), 8, 1)


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


# the two algebras on which the gate reaches its sampled layer
SAMPLED_LAYER_EDGES = [
    # lambda(x)^2 = x_1 x_2 I, so a sample with both coordinates nonzero rejects it
    (2, {(0, 1): {0: 1}, (1, 0): {1: 1}}),
    # every lambda(x) is nilpotent, but the envelope of the lambda(e_i) is not
    (3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 0): {1: 1}, (1, 1): {2: -1}}),
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(lambda sd, n: random_algebra(Pcg32(sd), n), seeds, st.integers(1, 5)),
                 nilpotent_algebras(), triangular_algebras(), big_basis_algebras()))
def test_envelope_layer_matches_n2_reference(a):
    assert _envelope_nilpotent(a) == ref_envelope_nilpotent(a)
    assert loop_gate(a) == ref_loop_gate(a)


@pytest.mark.parametrize("make", [
    lambda: StructureAlgebra.from_products(0, {}),
    lambda: StructureAlgebra.from_products(1, {}),
    make_idem1, make_so3, make_nl3,
    *[lambda dim=dim, products=products: StructureAlgebra.from_products(dim, products)
      for dim, products in SAMPLED_LAYER_EDGES],
])
def test_envelope_layer_matches_n2_reference_on_fixed_algebras(make):
    a = make()
    assert _envelope_nilpotent(a) == ref_envelope_nilpotent(a)
    assert loop_gate(a) == ref_loop_gate(a)


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
    assert rep == ref_loop_property_check(ctx, 12, 1)
    assert [c.ok for c in rep.checks] == [c.witness is None for c in rep.checks]


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


def bits(value):
    """repr of every entry, so that -0.0 and 0.0 differ."""
    rows = value.entries if isinstance(value, FloatMatrix) else (value,)
    return [[repr(x) for x in r] for r in rows]


def float_outcome(f, *args):
    """The bits of f(*args), or the type and message of the error it raises."""
    try:
        return bits(f(*args))
    except (ValueError, OverflowError) as e:
        return type(e).__name__, str(e)


SCALES = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3]


@cache  # one strategy object per argument: building one costs more than a draw
def float_entries(scale):
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), unit).map(lambda t: t * scale)


@st.composite
def float_matrices(draw, rows=None, cols=None):
    """Float matrices of sizes 0-6 with entries up to a drawn scale, 1e-3 to
    1e3: up to about a dozen squarings, and exponentials that overflow."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = rows if cols is None else cols
    entry = float_entries(draw(st.sampled_from(SCALES)))
    return FloatMatrix(tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows)))


@settings(max_examples=300, deadline=None)
@given(float_matrices(), st.sampled_from([1e-8, 1e-12, 1e-14]))
def test_mat_exp_float_is_bit_identical_to_reference(m, tol):
    """Where the code kept here lets a math.fsum error out of a squaring, the
    package raises the documented non-finite entry ValueError instead."""
    got, want = float_outcome(mat_exp_float, m, tol), float_outcome(ref_mat_exp_float, m, tol)
    if want in (("OverflowError", "intermediate overflow in fsum"),
                ("ValueError", "-inf + inf in fsum")):
        assert got[0] == "ValueError" and got[1].startswith("non-finite entry ")
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_float_matmul_and_apply_are_bit_identical_to_reference(r, k, c, data):
    a = data.draw(float_matrices(r, k))
    b = data.draw(float_matrices(k, c))
    v = data.draw(st.tuples(*[float_entries(data.draw(st.sampled_from(SCALES)))] * k))
    assert float_outcome(a.__matmul__, b) == float_outcome(ref_float_matmul, a, b)
    assert float_outcome(a.apply, v) == float_outcome(ref_float_apply, a, v)
    tall = data.draw(float_matrices(k + 1, c))
    assert float_outcome(a.__matmul__, tall) == ("ValueError", "shape mismatch")
    assert float_outcome(ref_float_matmul, a, tall) == ("ValueError", "shape mismatch")


@pytest.mark.parametrize("rows", [
    [[800.0]],
    [[400.0, 400.0], [400.0, 400.0]],
    # overflows one squaring before the last, which would turn 0 * inf into nan
    [[0.0, 0.0], [0.0, 2000.0]],
])
def test_float_exp_overflow_raises_as_reference(rows):
    m = FloatMatrix.from_rows(rows)
    with pytest.raises(ValueError) as want:
        ref_mat_exp_float(m)
    with pytest.raises(ValueError) as got:
        mat_exp_float(m)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("non-finite entry ")


@pytest.mark.parametrize("make", [
    make_so3, make_so3_hemi, make_nl3,
    # every c_ij^k nonzero: four terms add into each entry, so their order shows
    lambda: StructureAlgebra.from_products(4, {
        (i, j): {k: Q((-1) ** (i + k) * (i + 2 * j + 3 * k + 1), 7 + i + j + k) for k in range(4)}
        for i in range(4) for j in range(4)}),
])
@pytest.mark.parametrize("s", [Q(1, 2), Q(-3, 5), Q(7)])
def test_float_s_lambda_is_bit_identical_to_contract_reference(make, s):
    a = make()
    ctx = LoopContext(a, s, "float", 1e-8)
    rng = Pcg32(5)
    xs = [vzero(a.dim), basis_vec(a.dim, a.dim - 1), tuple(Q(1, 3 + i) for i in range(a.dim)),
          *(random_vector(rng, a.dim) for _ in range(12))]
    for x in xs:
        xf = tuple(map(float, x))
        for sign in (1, -1):
            assert bits(_s_lambda(ctx, xf, sign)) == bits(ref_float_s_lambda(ctx, xf, sign))


def test_direct_exact_so3_context():
    # lambda(x) is a rotation generator: the series for y dies only when
    # lambda(x) y = 0, and then the exact value is returned
    ctx = LoopContext(make_so3(), S, "exact")
    x = basis_vec(3, 0)
    with pytest.raises(NotNilpotentError, match="use float mode$"):
        loop_product(ctx, x, basis_vec(3, 1))
    assert loop_product(ctx, x, vzero(3)) == x
    assert loop_product(ctx, x, (Q(2), Q(0), Q(0))) == (Q(3), Q(0), Q(0))


# -- rational entries against the Fraction series -----------------------------

def outcome(f, *args):
    """f(*args), or the NotNilpotentError message when it raises one."""
    try:
        return f(*args)
    except NotNilpotentError as e:
        return ("raised", str(e))


def assert_fractions(value):
    rows = value.entries if isinstance(value, Matrix) else (value,)
    assert all(type(x) is Q for r in rows for x in r)


@settings(max_examples=150, deadline=None)
@given(square_matrices(rationals, 0), st.data())
def test_exp_apply_matches_fraction_series_on_rationals(m, data):
    v = data.draw(vectors(m.rows, rationals))
    got, want = outcome(exp_apply, m, v), outcome(ref_exp_apply, m, v)
    assert got == want
    if got != ("raised", "not nilpotent; use float mode"):
        assert_fractions(got)


@settings(max_examples=100, deadline=None)
@given(square_matrices(rationals, 0))
def test_mat_exp_exact_and_nilpotency_match_on_rationals(m):
    assert is_nilpotent(m) == ref_is_nilpotent(m)
    got = outcome(mat_exp_exact, m)
    if ref_is_nilpotent(m)[0]:
        assert got == ref_mat_exp(m)
        assert_fractions(got)
    else:
        assert got == ("raised", "not nilpotent; use float mode")


@settings(max_examples=40, deadline=None)
@given(st.one_of(nilpotent_algebras(nonzero_rationals), triangular_algebras(rationals)),
       s_values, st.data())
def test_loop_operations_match_reference_on_rationals(a, s, data):
    ctx = loop_context(a, s=s)
    assert ctx.mode == "exact"
    x, y = data.draw(vectors(a.dim, rationals)), data.draw(vectors(a.dim, rationals))
    lam = a.left_mul(x) * s
    got = (loop_product(ctx, x, y), left_inverse(ctx, x), left_divide(ctx, x, y),
           left_inner_mapping(ctx, x, y), exp_apply(lam, y), mat_exp_exact(lam))
    assert got == (ref_product(a, x, y, s), ref_inverse(a, x, s), ref_divide(a, x, y, s),
                   ref_inner(a, x, y, s), ref_mat_exp(lam).apply(y), ref_mat_exp(lam))
    for value in got:
        assert_fractions(value)


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[rationals] * 3), st.tuples(*[rationals] * 3), s_values)
def test_omni2_e12_slice_matches_reference_on_rationals(xs, ys, s):
    x, y = (Q(0), xs[0], Q(0), Q(0), xs[1], xs[2]), (Q(0), ys[0], Q(0), Q(0), ys[1], ys[2])
    ctx = LoopContext(OMNI2, s, "exact")
    got = (loop_product(ctx, x, y), left_inverse(ctx, x), left_divide(ctx, x, y),
           left_inner_mapping(ctx, x, y))
    assert got == (ref_product(OMNI2, x, y, s), ref_inverse(OMNI2, x, s),
                   ref_divide(OMNI2, x, y, s), ref_inner(OMNI2, x, y, s))
    for value in got:
        assert_fractions(value)


@settings(max_examples=40, deadline=None)
@given(vectors(3, rationals), vectors(3, rationals), s_values)
def test_direct_exact_so3_raises_where_fraction_series_does(x, y, s):
    # so(3) is not nilpotent: the series for y dies only when lambda(x) y = 0
    a = make_so3()
    ctx = LoopContext(a, s, "exact")
    want = outcome(lambda: vadd(x, ref_exp_apply(a.left_mul(x) * s, y)))
    assert outcome(loop_product, ctx, x, y) == want
    want = outcome(lambda: ref_exp_apply(a.left_mul(x) * -s, vsub(y, x)))
    assert outcome(left_divide, ctx, x, y) == want


@pytest.mark.parametrize("rows", [
    [],                                             # 0 x 0
    [[Q(0)]],                                       # 1 x 1, nilpotent
    [[Q(-3, 7)]],                                   # 1 x 1, not nilpotent
    [[Q(0)] * 3] * 3,                               # the zero matrix
    [[0, BIG, Q(1, 6)], [0, 0, Q(-3, 5)], [0, 0, 0]],
    [[0, BIG, 0], [0, 0, Q(5, 7)], [Q(2, 3), 0, 0]],
])
def test_edge_matrices_match_fraction_kernels(rows):
    m = Matrix.from_rows(rows)
    n = m.rows
    assert is_nilpotent(m) == ref_is_nilpotent(m)
    for v in (vzero(n), tuple(Q(k + 1, 7) for k in range(n)), (BIG,) * n):
        got = outcome(exp_apply, m, v)
        assert got == outcome(ref_exp_apply, m, v)
        if type(got) is tuple and got[:1] != ("raised",):
            assert_fractions(got)
    if ref_is_nilpotent(m)[0]:
        assert mat_exp_exact(m) == ref_mat_exp(m)
        assert_fractions(mat_exp_exact(m))
    else:
        with pytest.raises(NotNilpotentError, match="use float mode$"):
            mat_exp_exact(m)


@pytest.mark.parametrize("s", [Q(1, 2), Q(2, 3), Q(-3, 5), Q(7)])
def test_loop_zero_vector_and_big_numerator(s, corpus):
    a = corpus["nilp4_s13"]
    ctx = loop_context(a, s=s)
    zero, big = vzero(4), (BIG, Q(-1, 7), Q(0), Q(60, 7))
    for x, y in ((zero, zero), (zero, big), (big, zero), (big, big)):
        assert loop_product(ctx, x, y) == ref_product(a, x, y, s)
        assert left_inverse(ctx, x) == ref_inverse(a, x, s)
        assert left_divide(ctx, x, y) == ref_divide(a, x, y, s)
        assert left_inner_mapping(ctx, x, y) == ref_inner(a, x, y, s)
        assert_fractions(left_inner_mapping(ctx, x, y))
        assert_fractions(loop_product(ctx, x, y))


# -- integer vectors against the Fraction loop --------------------------------

@st.composite
def gate_edge_algebras(draw):
    """An algebra whose basis lambda(e_i) are nilpotent but whose envelope is
    not, scaled by a rational, relabelled, and next to a nilpotent algebra."""
    dim, products = draw(st.sampled_from(SAMPLED_LAYER_EDGES))
    t = draw(st.one_of(nonzero_rationals, big_rationals.filter(bool)))
    perm = draw(st.permutations(range(dim)))
    edge = StructureAlgebra.from_products(dim, {
        (perm[i], perm[j]): {perm[k]: t * c for k, c in cell.items()}
        for (i, j), cell in products.items()})
    if draw(st.booleans()):
        return edge
    return direct_sum(random_nilpotent_leibniz(Pcg32(draw(seeds)), draw(st.integers(1, 3))), edge)


def big_scaled_algebras():
    """Nilpotent or strictly triangular constants over large denominators."""
    return st.one_of(nilpotent_algebras(big_rationals.filter(bool)), triangular_algebras(mixed))


def result(f, *args):
    """f(*args), or the type and message of the error it raises: float exponentials
    of large matrices overflow, and exact series on so(3) do not die."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as e:
        return ("raised", type(e).__name__, str(e))


OPERATIONS = (loop_product, lambda ctx, x, y: left_inverse(ctx, x), left_divide,
              left_inner_mapping)


def operation_outcomes(ctx, x, y):
    got = [result(f, ctx, x, y) for f in OPERATIONS]
    assert got == [result(f, x, y) for f in ref_operations(ctx)]
    return got


@settings(max_examples=80, deadline=None)
@given(st.one_of(gate_edge_algebras(), big_scaled_algebras(), nilpotent_algebras(),
                 st.builds(lambda sd, n: random_algebra(Pcg32(sd), n), seeds, st.integers(1, 5))))
def test_gate_matches_subspace_chain_gate(a):
    assert _envelope_nilpotent(a) == ref_envelope_nilpotent(a)
    assert loop_gate(a) == ref_loop_gate(a)


@settings(max_examples=40, deadline=None)
@given(st.one_of(gate_edge_algebras(), big_scaled_algebras()), wide_s, st.integers(0, 1000))
def test_property_report_matches_fraction_loop(a, s, seed):
    ctx = loop_context(a, s=s)
    assert result(loop_property_check, ctx, 3, seed) == \
        result(ref_loop_property_check, ctx, 3, seed)
    direct = LoopContext(a, s, "exact")
    assert result(loop_property_check, direct, 2, seed) == \
        result(ref_loop_property_check, direct, 2, seed)


@settings(max_examples=40, deadline=None)
@given(st.one_of(gate_edge_algebras(), big_scaled_algebras()), wide_s, st.data())
def test_loop_operations_match_fraction_loop_on_big_rationals(a, s, data):
    ctx = loop_context(a, s=s)
    x, y = data.draw(vectors(a.dim, mixed)), data.draw(vectors(a.dim, mixed))
    got = operation_outcomes(ctx, x, y)
    if ctx.mode == "exact":
        for value in got:
            assert_fractions(value)


@settings(max_examples=60, deadline=None)
@given(vectors(3, mixed), wide_s, st.data())
def test_direct_exact_so3_raises_where_fraction_loop_does(x, s, data):
    ctx = LoopContext(make_so3(), s, "exact")
    y = data.draw(st.one_of(vectors(3, mixed), vectors(3),
                            big_rationals.map(lambda t: tuple(t * c for c in x))))
    operation_outcomes(ctx, x, y)
    seed = data.draw(st.integers(0, 1000))
    assert result(loop_property_check, ctx, 2, seed) == \
        result(ref_loop_property_check, ctx, 2, seed)
