"""The Courant layer against the coordinate formulas it stands for.

Every sum over one index (interior products, sharp, the vector-field bracket,
directional derivatives, the Lie derivative, i_xi d theta, the DY.X term of
the loop connection) is written below as the explicit double loop it stands
for, and the Dorfman product, the Courant bracket (x . y - y . x) / 2, the
ternary, h_act, h_bracket and the double recovery check are written on those
loops. Graph closure is checked by a reference that brackets all k^2 input
pairs, and the axiom suites by references that evaluate every case before
they look for the first failure. Equal values, equal (ok, pair) results and
equal "case k" witnesses, also when the bracket or the Dorfman product is made
to fail on chosen cases, pin the behaviour on drawn sections with zero
components, zero sections and large denominators.

Operands over different variable counts raise the ValueError
"variable count mismatch" in every kernel, also when a zero component or a
zero section would let a loop run past the shorter operand (the first kernels
raised an IndexError there).

Last, an oracle that does not read the Courant code at all: on Weinstein's
linear sections (E_pq -> x_p d/dx_q, e_k -> dx_k; A. Weinstein, "Omni-Lie
algebras", arXiv:math/9912190) the Dorfman product is the omni_hemi product
and the Courant bracket the omni_demi product, and the graph of the
Lie-Poisson bivector of a skew algebra closes exactly when the algebra is Lie.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    Bivector,
    OneForm,
    Pcg32,
    Poly,
    Section,
    TwoForm,
    VectorField,
    connection_eval,
    courant_samples,
    gl_algebra,
    graph_criterion,
    omni_algebras,
    random_algebra,
    random_one_form,
    random_poly,
    random_unimodular,
    random_vector_field,
)
from leibniz_forge import courant
from leibniz_forge.courant import (
    form_class,
    graph_closure_check,
    interior_one_form,
    interior_two_form,
    sigma_double,
    vf_bracket,
)

from conftest import build_corpus, linear_section, make_heisenberg3, make_so3


# -- references -----------------------------------------------------------------

def psum(n, polys):
    """The sum of the polys, added up term by term in one dict."""
    acc: dict = {}
    for p in polys:
        for m, c in p.terms:
            acc[m] = acc.get(m, 0) + c
    return Poly.from_dict(n, acc)


def ref_interior_one_form(xi, theta):
    return psum(xi.nvars, (a * b for a, b in zip(xi.components, theta.components)))


def ref_interior_two_form(xi, omega):
    n = xi.nvars
    return OneForm(n, tuple(psum(n, (xi.components[i] * omega.entries[i][j] for i in range(n)))
                            for j in range(n)))


def ref_sharp(pi, theta):
    n = pi.nvars
    return VectorField(n, tuple(psum(n, (pi.entries[i][j] * theta.components[j]
                                         for j in range(n))) for i in range(n)))


def ref_derive(xi, p):
    return psum(xi.nvars, (c * p.partial(i) for i, c in enumerate(xi.components)))


def ref_vf_bracket(a, b):
    n, u, v = a.nvars, a.components, b.components
    return VectorField(n, tuple(psum(n, (u[i] * v[k].partial(i) - v[i] * u[k].partial(i)
                                         for i in range(n))) for k in range(n)))


def ref_lie_derivative(xi, theta):
    """(L_xi th)_j = sum_i xi_i d_i th_j + th_i d_j xi_i."""
    n, a, t = xi.nvars, xi.components, theta.components
    return OneForm(n, tuple(psum(n, (a[i] * t[j].partial(i) + t[i] * a[i].partial(j)
                                     for i in range(n))) for j in range(n)))


def ref_i_d(xi, theta):
    """(i_xi d th)_j = sum_i xi_i (d_i th_j - d_j th_i)."""
    n, a, t = xi.nvars, xi.components, theta.components
    return OneForm(n, tuple(psum(n, (a[i] * (t[j].partial(i) - t[i].partial(j))
                                     for i in range(n))) for j in range(n)))


def ref_dorfman_product(x, y):
    """x . y = ([xi, eta], L_xi phi - i_eta d th) for x = (xi, th) and y = (eta, phi)."""
    return Section(ref_vf_bracket(x.vf, y.vf),
                   ref_lie_derivative(x.vf, y.form) - ref_i_d(y.vf, x.form))


def ref_courant_bracket(x, y):
    return (ref_dorfman_product(x, y) - ref_dorfman_product(y, x)).scale(Q(1, 2))


def ref_courant_ternary(x, y, z):
    return ref_dorfman_product(ref_dorfman_product(x, y), z).scale(Q(-1, 4))


def ref_h_act(a, e):
    return ref_dorfman_product(Section(*a), e)


def ref_h_bracket(a, b):
    (xi1, phi1), (xi2, phi2) = a, b
    return ref_vf_bracket(xi1, xi2), form_class(ref_i_d(xi1, phi2) - ref_i_d(xi2, phi1))


def ref_double_recovery_check(x, y):
    """The E part of the sigma_(1/2) bracket against courant.courant_bracket, which
    the witness tests may perturb."""
    (a, _), (b, _) = sigma_double(Q(1, 2), x), sigma_double(Q(1, 2), y)
    return ref_h_act(a, y) - ref_h_act(b, x) == courant.courant_bracket(x, y)


def ref_connection_eval(a, s, x, y):
    n = a.dim
    comps = [psum(n, (y.components[k].partial(j) * x.components[j] for j in range(n)))
             for k in range(n)]
    for (i, j), cell in a.sparse.entries.items():
        xy = x.components[i] * y.components[j]
        for k, ck in cell.items():
            comps[k] = comps[k] - xy * (Q(s) * ck)
    return VectorField(n, tuple(comps))


def ref_graph_section(kind, data, u):
    if kind == "poisson":
        return Section(ref_sharp(data, u), u)
    if kind == "twoform":
        return Section(u, ref_interior_two_form(u, data))
    raise ValueError(f"unknown graph kind {kind!r}")


def ref_graph_residual(kind, data, s):
    if kind == "poisson":
        return s.vf - ref_sharp(data, s.form)
    if kind == "twoform":
        return s.form - ref_interior_two_form(s.vf, data)
    raise ValueError(f"unknown graph kind {kind!r}")


def ref_graph_closure_check(kind, data, inputs):
    """Bracket every ordered pair of graph points, in row-major order."""
    sections = [ref_graph_section(kind, data, u) for u in inputs]
    for i, x in enumerate(sections):
        for j, y in enumerate(sections):
            if not ref_graph_residual(kind, data, courant.courant_bracket(x, y)).is_zero():
                return False, (i, j)
    return True, None


def _first_of_all(name, outcomes):
    """The witness of a suite that evaluated every case before looking."""
    bad = next((i for i, ok in enumerate(outcomes) if not ok), None)
    return courant.CheckResult(name, bad is None, None if bad is None else f"case {bad}")


def ref_axiom_suite(triples, funcs):
    """The five axioms on the package's brackets, which the witness tests may perturb."""
    c = courant
    cycled = [funcs[i % len(funcs)] for i in range(len(triples))]
    ax1 = [((c.courant_bracket(c.courant_bracket(x, y), z)
             + c.courant_bracket(c.courant_bracket(y, z), x)
             + c.courant_bracket(c.courant_bracket(z, x), y))
            - c.d_section(c.t_function(x, y, z))).is_zero() for x, y, z in triples]
    ax2 = [(c.courant_bracket(x, y).vf - c.vf_bracket(x.vf, y.vf)).is_zero()
           for x, y, _ in triples]
    ax3 = [(c.courant_bracket(x, y.scale(f))
            - (c.courant_bracket(x, y).scale(f) + y.scale(x.vf.derive(f))
               - c.d_section(f).scale(c.pairing(x, y)))).is_zero()
           for (x, y, _), (f, _g) in zip(triples, cycled)]
    ax4 = [c.pairing(c.d_section(f), c.d_section(g)).is_zero() and c.d_section(f).vf.is_zero()
           for f, g in funcs]
    ax5 = [(x.vf.derive(c.pairing(y, z))
            - (c.pairing(c.dorfman_product(x, y), z)
               + c.pairing(y, c.dorfman_product(x, z)))).is_zero() for x, y, z in triples]
    return [_first_of_all(name, outcomes) for name, outcomes in
            (("axiom1", ax1), ("axiom2", ax2), ("axiom3", ax3), ("axiom4", ax4), ("axiom5", ax5))]


def ref_dorfman_checks(triples, funcs):
    c = courant
    dp, cb, ds, pr = c.dorfman_product, c.courant_bracket, c.d_section, c.pairing
    cycled = [funcs[i % len(funcs)] for i in range(len(triples))]
    leibniz = [(dp(x, dp(y, z)) - (dp(dp(x, y), z) + dp(y, dp(x, z)))).is_zero()
               for x, y, z in triples]
    decomposition = [(dp(x, y) - cb(x, y) - ds(pr(x, y))).is_zero()
                     and (cb(x, y) - (dp(x, y) - dp(y, x)).scale(Q(1, 2))).is_zero()
                     and (dp(x, y) + dp(y, x) - ds(pr(x, y)).scale(2)).is_zero()
                     for x, y, _ in triples]
    ideal = [(dp(x, ds(f)) - ds(x.vf.derive(f))).is_zero()
             and (dp(x, ds(f)) - ds(pr(x, ds(f))).scale(2)).is_zero()
             and dp(ds(f), x).is_zero()
             for (x, _, _), (f, _g) in zip(triples, cycled)]
    return [_first_of_all("dorfman_leibniz", leibniz),
            _first_of_all("skew_symmetric_decomposition", decomposition),
            _first_of_all("d_image_ideal", ideal)]


# -- drawn data -------------------------------------------------------------------

@cache  # one strategy object per argument: building one costs more than a draw
def polys(n):
    monos = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(monos, coeffs, max_size=3).map(lambda d: Poly.from_dict(n, d))


@st.composite
def fields(draw):
    """(n, vector field, vector field, 1-form, skew upper part) in 1-3 variables."""
    n = draw(st.integers(1, 3))

    def comps():
        return tuple(draw(polys(n)) for _ in range(n))

    upper = {(i, j): draw(polys(n)) for i in range(n) for j in range(i + 1, n)}
    return n, VectorField(n, comps()), VectorField(n, comps()), OneForm(n, comps()), upper


class TestContractions:
    @settings(max_examples=60, deadline=None)
    @given(fields())
    def test_interior_products(self, data):
        n, xi, _, theta, upper = data
        omega = TwoForm.from_upper(n, upper)
        assert interior_one_form(xi, theta) == ref_interior_one_form(xi, theta)
        assert interior_two_form(xi, omega) == ref_interior_two_form(xi, omega)

    @settings(max_examples=60, deadline=None)
    @given(fields())
    def test_sharp(self, data):
        n, _, _, theta, upper = data
        pi = Bivector.from_upper(n, upper)
        assert pi.sharp(theta) == ref_sharp(pi, theta)

    @settings(max_examples=60, deadline=None)
    @given(fields(), st.data())
    def test_derive_and_bracket(self, data, draw):
        n, a, b, theta, _ = data
        p = draw.draw(polys(n))
        assert a.derive(p) == ref_derive(a, p)
        assert vf_bracket(a, b) == ref_vf_bracket(a, b)
        assert courant.lie_derivative_one_form(a, theta) == ref_lie_derivative(a, theta)

    @settings(max_examples=40, deadline=None)
    @given(fields(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([Q(0), Q(1, 2), Q(-3, 7)]))
    def test_connection_eval(self, data, seed, s):
        n, x, y, _, _ = data
        a = random_algebra(Pcg32(seed), n)
        assert connection_eval(a, s, x, y) == ref_connection_eval(a, s, x, y)


# -- graph closure ------------------------------------------------------------------

def _seeded_skew(seed, n):
    rng = Pcg32(seed)
    return {(i, j): random_poly(rng, n, 1) for i in range(n) for j in range(i + 1, n)}


X = [Poly.var(3, i) for i in range(3)]
KNOWN_GRAPHS = [
    ("poisson", Bivector.from_upper(3, {(0, 1): X[2], (0, 2): X[1] * Q(-1), (1, 2): X[0]})),
    ("poisson", Bivector.from_upper(3, {(0, 1): Poly.const(3, 1), (0, 2): X[0]})),
    ("twoform", TwoForm.from_upper(3, {(0, 1): X[2]})),
    ("twoform", TwoForm.from_upper(3, {(0, 1): X[0]})),
    ("poisson", Bivector.from_upper(2, {(0, 1): Poly.var(2, 0)})),
    ("twoform", TwoForm.from_upper(1, {})),
]


class TestGraphClosure:
    @pytest.mark.parametrize("kind, data", KNOWN_GRAPHS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_known_graphs(self, kind, data, seed):
        rng = Pcg32(seed)
        draw = random_one_form if kind == "poisson" else random_vector_field
        inputs = [draw(rng, data.nvars, max_degree=1) for _ in range(4)]
        assert graph_closure_check(kind, data, inputs) == ref_graph_closure_check(kind, data, inputs)

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_skew_matrices(self, kind, n, seed):
        upper = _seeded_skew(seed, n)
        data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
        rng = Pcg32(100 + seed)
        draw = random_one_form if kind == "poisson" else random_vector_field
        inputs = [draw(rng, n, max_degree=1) for _ in range(3)]
        assert graph_closure_check(kind, data, inputs) == ref_graph_closure_check(kind, data, inputs)


# -- axiom suites and their witnesses -------------------------------------------

def _bump(n):
    one = Poly.const(n, 1)
    return Section(VectorField(n, (one,) + tuple(Poly.zero(n) for _ in range(n - 1))),
                   OneForm(n, (one,) + tuple(Poly.zero(n) for _ in range(n - 1))))


def perturb(monkeypatch, name, triples, cases):
    """Make courant.<name>(x, y) wrong exactly when (x, y) are the first two
    sections of one of the chosen cases."""
    real = getattr(courant, name)
    targets = [(triples[k][0], triples[k][1]) for k in cases]
    bump = _bump(triples[0][0].nvars)

    def perturbed(x, y):
        out = real(x, y)
        if any(x is a and y is b for a, b in targets):
            out = out + bump
        return out

    monkeypatch.setattr(courant, name, perturbed)


SUITES = [(courant.axiom_suite, ref_axiom_suite), (courant.dorfman_checks, ref_dorfman_checks)]


class TestSuiteWitnesses:
    @pytest.mark.parametrize("suite, ref", SUITES)
    @pytest.mark.parametrize("seed, nvars", [(7, 1), (3, 2), (11, 3)])
    def test_unperturbed(self, suite, ref, seed, nvars):
        s = courant_samples(seed, nvars, 4)
        got = suite(s.triples, s.funcs)
        assert got == ref(s.triples, s.funcs)
        assert all(r.ok for r in got)

    @pytest.mark.parametrize("suite, ref", SUITES)
    @pytest.mark.parametrize("name", ["courant_bracket", "dorfman_product"])
    @pytest.mark.parametrize("seed, nvars, cases", [
        (5, 1, [0]), (6, 2, [2]), (8, 2, [1, 3]), (9, 3, [3]), (12, 3, [1, 2]),
    ])
    def test_perturbed_cases(self, monkeypatch, suite, ref, name, seed, nvars, cases):
        s = courant_samples(seed, nvars, 4)
        perturb(monkeypatch, name, s.triples, cases)
        got = suite(s.triples, s.funcs)
        assert got == ref(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


# -- zero components, zero sections and mismatches -----------------------------------

M61 = 2**61 - 1
SMALL = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
BIG = st.sampled_from([Q(10**30, 7), Q(-10**30, 7), Q(1, M61), Q(-3, M61), Q(1, 6), Q(-1, 3)])


@cache  # one strategy object per argument: building one costs more than a draw
def sparse_polys(n, coeffs):
    """Zero about one time in two."""
    monos = st.tuples(*[st.integers(0, 2)] * n)
    drawn = st.dictionaries(monos, coeffs, max_size=2).map(lambda d: Poly.from_dict(n, d))
    return st.one_of(st.just(Poly.zero(n)), drawn)


@st.composite
def sparse_sections(draw, n, coeffs=SMALL):
    """A section with many zero components, or the zero section one time in five."""
    if draw(st.integers(0, 4)) == 0:
        return Section.zero(n)
    comps = [draw(sparse_polys(n, coeffs)) for _ in range(2 * n)]
    return Section(VectorField(n, tuple(comps[:n])), OneForm(n, tuple(comps[n:])))


@st.composite
def sparse_cases(draw, coeffs=SMALL):
    """(x, y, z, f, g) over one variable count, or with y over another one time in six."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3)) if draw(st.integers(0, 5)) == 0 else n
    x, z, y = draw(sparse_sections(n, coeffs)), draw(sparse_sections(n, coeffs)), draw(sparse_sections(m, coeffs))
    f, g = draw(sparse_polys(n, coeffs)), draw(sparse_polys(n, coeffs))
    return x, y, z, f, g


def kernel_calls(u, v):
    """(same variable count, package call, reference call) for every kernel on u, v."""
    h_u, h_v = (u.vf, u.form), (v.vf, v.form)
    pairs = [
        (lambda: vf_bracket(u.vf, v.vf), lambda: ref_vf_bracket(u.vf, v.vf)),
        (lambda: courant.lie_derivative_one_form(u.vf, v.form),
         lambda: ref_lie_derivative(u.vf, v.form)),
        (lambda: courant._i_d(u.nvars, (1, v.vf, u.form)), lambda: ref_i_d(v.vf, u.form)),
        (lambda: courant._i_d(u.nvars, (1, u.vf, v.form), (-1, v.vf, u.form)),
         lambda: ref_i_d(u.vf, v.form) - ref_i_d(v.vf, u.form)),
        (lambda: courant.courant_bracket(u, v), lambda: ref_courant_bracket(u, v)),
        (lambda: courant.dorfman_product(u, v), lambda: ref_dorfman_product(u, v)),
        (lambda: courant.double_recovery_check(u, v), lambda: ref_double_recovery_check(u, v)),
        (lambda: courant.h_bracket(h_u, h_v), lambda: ref_h_bracket(h_u, h_v)),
    ]
    pairs = [(u.nvars == v.nvars, call, ref) for call, ref in pairs]
    for s in (Q(1, 2), Q(-3)):
        a, b = sigma_double(s, u), sigma_double(s, v)
        for p, q in ((a, b), (a, a), (b, a)):
            pairs.append((p[1].nvars == q[1].nvars, lambda p=p, q=q: courant.double_equal(p, q),
                          lambda p=p, q=q: p[0][0] == q[0][0] and p[0][1] == q[0][1]
                          and p[1] == q[1]))
    return pairs


def assert_same_kernels(x, y, z, f, g):
    for u, v in ((x, y), (y, x), (x, x), (x, z)):
        for same, call, ref in kernel_calls(u, v):
            if same:
                assert call() == ref()
            else:
                with pytest.raises(ValueError, match="^variable count mismatch$"):
                    call()
    triples, funcs = [(x, y, z), (z, x, x)], [(f, g), (g, f)]
    for suite, ref in SUITES:
        if x.nvars == y.nvars:
            assert suite(triples, funcs) == ref(triples, funcs)
        else:
            with pytest.raises(ValueError, match="^variable count mismatch$"):
                suite(triples, funcs)


class TestZeroComponents:
    @settings(max_examples=80, deadline=None)
    @given(sparse_cases())
    def test_sparse_sections(self, case):
        assert_same_kernels(*case)

    @settings(max_examples=40, deadline=None)
    @given(sparse_cases(BIG))
    def test_large_denominators(self, case):
        assert_same_kernels(*case)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (1, 2), (2, 2)])
    def test_zero_sections(self, n, m):
        """Zero sections over different variable counts raise as any other mismatch."""
        x, y = Section.zero(n), Section.zero(m)
        assert_same_kernels(x, y, x, Poly.zero(n), Poly.zero(n))
        assert_same_kernels(y, x, y, Poly.zero(m), Poly.zero(m))

    def test_seeded_samples(self):
        for seed, nvars in ((1, 2), (2, 3)):
            s = courant_samples(seed, nvars, 3)
            (x, y, z), (f, g) = s.triples[0], s.funcs[0]
            assert_same_kernels(x, y, z, f, g)
            assert courant.axiom_suite(s.triples, s.funcs) == ref_axiom_suite(s.triples, s.funcs)
            assert courant.dorfman_checks(s.triples, s.funcs) == ref_dorfman_checks(s.triples, s.funcs)


# -- linear sections: the omni algebras inside T (+) T* --------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_linear_sections_carry_the_omni_products(d):
    """Both sides are bilinear, so equality on every basis pair is equality on
    all of gl(d) x Q^d: the Dorfman product is omni_hemi's, the Courant bracket
    omni_demi's."""
    hemi, demi = omni_algebras(d)
    n = hemi.dim
    basis = [tuple(Q(int(k == i)) for k in range(n)) for i in range(n)]
    phi = [linear_section(d, v) for v in basis]
    for i in range(n):
        for j in range(n):
            assert courant.dorfman_product(phi[i], phi[j]) == linear_section(d, hemi.c[i][j]), (i, j)
            assert courant.courant_bracket(phi[i], phi[j]) == linear_section(d, demi.c[i][j]), (i, j)


def lie_poisson(a):
    """pi^ij = sum_k c_ij^k x_k, the linear bivector of a skew algebra."""
    n = a.dim
    return Bivector.from_upper(n, {(i, j): psum(n, (Poly.var(n, k) * c
                                                    for k, c in enumerate(a.c[i][j]) if c))
                                   for i in range(n) for j in range(i + 1, n)})


def skew_algebras():
    """The corpus made skew, seeded skew draws, and Lie algebras in seeded bases."""
    out = [a.skew_symmetrize() for a in build_corpus().values()]
    out += [random_algebra(Pcg32(seed), 3 + seed % 2).skew_symmetrize() for seed in range(16)]
    for seed, lie in enumerate([make_so3(), make_heisenberg3(), gl_algebra(2)] * 4):
        out.append(lie.change_basis(random_unimodular(Pcg32(seed), lie.dim)))
    return out


def test_lie_poisson_graph_closes_iff_lie():
    """graph_closure_check on the frame dx_0 ... dx_(n-1) against graph_criterion and
    is_lie, with Lie and non-Lie algebras drawn about equally."""
    verdicts = []
    for a in skew_algebras():
        n = a.dim
        frame = [OneForm(n, tuple(Poly.const(n, int(k == i)) for k in range(n))) for i in range(n)]
        ok, _ = graph_closure_check("poisson", lie_poisson(a), frame)
        assert ok == graph_criterion(a).graph_is_lie_subalgebra == a.is_lie, a.c
        verdicts.append(ok)
    assert 0.3 <= sum(verdicts) / len(verdicts) <= 0.7
