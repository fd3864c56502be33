"""The Courant layer against hand-written references.

Every sum over one index (interior products, sharp, the vector-field bracket,
directional derivatives, the DY.X term of the loop connection) is written
below as the explicit double loop it stands for. Graph closure is checked by a
reference with one on-graph test per kind, and the axiom suites by references
that evaluate every case before they look for the first failure. Equal values,
equal (ok, pair) results and equal "case k" witnesses, also when the bracket
or the Dorfman product is made to fail on chosen cases, pin the behaviour.

The `parent_*` functions are the bracket kernels and checks as they were before
the zero components of the vector-field operand were skipped and before the
checks compared canonical forms, kept verbatim up to renaming: they list every
component, and every check tests a difference for zero. The current code must
give equal values, equal `CheckResult`s and the same errors on sections with
zero components, on zero sections, on mismatched variable counts and on large
denominators. Where the old code indexed past a shorter operand (an
`IndexError`), the current one may raise the `ValueError` of a mismatch.
"""

from __future__ import annotations

from fractions import Fraction as Q

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
    random_algebra,
    random_one_form,
    random_poly,
    random_vector_field,
)
from leibniz_forge import courant
from leibniz_forge.courant import (
    _field,
    _first_failure,
    _once,
    _t_value,
    _with_funcs,
    d_section,
    graph_closure_check,
    interior_one_form,
    interior_two_form,
    pairing,
    sigma_double,
    vf_bracket,
)
from leibniz_forge.poly import _contract


# -- references -----------------------------------------------------------------

def ref_interior_one_form(xi, theta):
    out = Poly.zero(xi.nvars)
    for a, b in zip(xi.components, theta.components):
        out = out + a * b
    return out


def ref_interior_two_form(xi, omega):
    n = xi.nvars
    comps = []
    for j in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            acc = acc + xi.components[i] * omega.entries[i][j]
        comps.append(acc)
    return OneForm(n, tuple(comps))


def ref_sharp(pi, theta):
    comps = []
    for i in range(pi.nvars):
        acc = Poly.zero(pi.nvars)
        for j in range(pi.nvars):
            acc = acc + pi.entries[i][j] * theta.components[j]
        comps.append(acc)
    return VectorField(pi.nvars, tuple(comps))


def ref_vf_bracket(a, b):
    n = a.nvars
    comps = []
    for k in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            acc = acc + a.components[i] * b.components[k].partial(i)
            acc = acc - b.components[i] * a.components[k].partial(i)
        comps.append(acc)
    return VectorField(n, tuple(comps))


def ref_derive(xi, p):
    out = Poly.zero(xi.nvars)
    for i, c in enumerate(xi.components):
        out = out + c * p.partial(i)
    return out


def ref_connection_eval(a, s, x, y):
    n = a.dim
    comps = []
    for k in range(n):
        acc = Poly.zero(n)
        for j in range(n):
            acc = acc + y.components[k].partial(j) * x.components[j]
        comps.append(acc)
    for (i, j), cell in a.sparse.entries.items():
        xy = x.components[i] * y.components[j]
        for k, ck in cell.items():
            comps[k] = comps[k] - xy * (Q(s) * ck)
    return VectorField(n, tuple(comps))


def ref_graph_closure_check(kind, data, inputs):
    if kind == "poisson":
        sections = [Section(ref_sharp(data, th), th) for th in inputs]

        def on_graph(s):
            return (s.vf - ref_sharp(data, s.form)).is_zero()
    else:
        sections = [Section(xi, ref_interior_two_form(xi, data)) for xi in inputs]

        def on_graph(s):
            return (s.form - ref_interior_two_form(s.vf, data)).is_zero()
    for i in range(len(sections)):
        for j in range(len(sections)):
            if not on_graph(courant.courant_bracket(sections[i], sections[j])):
                return False, (i, j)
    return True, None


def _first_of_all(name, outcomes):
    """The witness of a suite that evaluated every case before looking."""
    bad = next((i for i, ok in enumerate(outcomes) if not ok), None)
    return courant.CheckResult(name, bad is None, None if bad is None else f"case {bad}")


def ref_axiom_suite(triples, funcs):
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


# -- the kernels and checks before zero skipping and canonical comparison ---------

def parent_vf_bracket(a, b):
    n, u, v = a.nvars, a.components, b.components
    return _field(n, lambda k: [t for i in range(n)
                                for t in ((1, u[i], v[k], i), (-1, v[i], u[k], i))])


def parent_lie_derivative_one_form(xi, theta):
    n, a, t = xi.nvars, xi.components, theta.components
    return _field(n, lambda j: [u for i in range(n)
                                for u in ((1, a[i], t[j], i), (1, t[i], a[i], j))])


def parent_i_d(nvars, *terms):
    """sum w i_xi d th over the terms (w, xi, th), by the coordinate formula
    (i_xi d th)_j = sum_i xi_i d_i th_j - xi_i d_j th_i."""
    comps = [(w, xi.components, th.components) for w, xi, th in terms]
    return _field(nvars, lambda j: [u for w, a, t in comps for i in range(nvars)
                                    for u in ((w, a[i], t[j], i), (-w, a[i], t[i], j))])


def parent_courant_bracket(x, y):
    """[x, y], its 1-form by the courant form_j of the module docstring."""
    n, h, mh = x.nvars, Q(1, 2), Q(-1, 2)
    xi, th, eta, phi = (f.components for f in (x.vf, x.form, y.vf, y.form))
    form = _field(n, lambda j: [t for i in range(n) for t in (
        (1, xi[i], phi[j], i), (-1, eta[i], th[j], i), (h, phi[i], xi[i], j),
        (mh, xi[i], phi[i], j), (mh, th[i], eta[i], j), (h, eta[i], th[i], j))])
    return Section(parent_vf_bracket(x.vf, y.vf), form)


def parent_dorfman_product(x, y):
    """x . y = ([xi, eta], L_xi phi - i_eta dth) for x = (xi, th) and y = (eta, phi)."""
    form = parent_lie_derivative_one_form(x.vf, y.form) - parent_i_d(x.nvars, (1, y.vf, x.form))
    return Section(parent_vf_bracket(x.vf, y.vf), form)


def parent_axiom_suite(triples, funcs):
    br = _once(parent_courant_bracket)

    def ax1(x, y, z):
        xy, yz, zx = br(x, y), br(y, z), br(z, x)
        lhs = parent_courant_bracket(xy, z) + parent_courant_bracket(yz, x) + parent_courant_bracket(zx, y)
        return (lhs - d_section(_t_value(x, y, z, xy, yz, zx))).is_zero()

    def ax2(x, y, _z):
        return (br(x, y).vf - parent_vf_bracket(x.vf, y.vf)).is_zero()

    def ax3(x, y, _z, f, _g):
        lhs = parent_courant_bracket(x, y.scale(f))
        rhs = (br(x, y).scale(f)
               + y.scale(x.vf.derive(f))
               - d_section(f).scale(pairing(x, y)))
        return (lhs - rhs).is_zero()

    def ax4(f, g):
        return pairing(d_section(f), d_section(g)).is_zero() and d_section(f).vf.is_zero()

    def ax5(x, y, z):
        lhs = x.vf.derive(pairing(y, z))
        rhs = (pairing(parent_dorfman_product(x, y), z) + pairing(y, parent_dorfman_product(x, z)))
        return (lhs - rhs).is_zero()

    return [_first_failure("axiom1", triples, ax1),
            _first_failure("axiom2", triples, ax2),
            _first_failure("axiom3", _with_funcs(triples, funcs), ax3),
            _first_failure("axiom4", funcs, ax4),
            _first_failure("axiom5", triples, ax5)]


def parent_dorfman_checks(triples, funcs):
    x_dot_y = _once(parent_dorfman_product)  # read by the first two: 9 products per triple

    def leibniz(x, y, z):
        lhs = parent_dorfman_product(x, parent_dorfman_product(y, z))
        rhs = (parent_dorfman_product(x_dot_y(x, y), z)
               + parent_dorfman_product(y, parent_dorfman_product(x, z)))
        return (lhs - rhs).is_zero()

    def decomposition(x, y, _z):
        xy, yx, br, dxy = (x_dot_y(x, y), parent_dorfman_product(y, x),
                           parent_courant_bracket(x, y), d_section(pairing(x, y)))
        return ((xy - br - dxy).is_zero() and (br - (xy - yx).scale(Q(1, 2))).is_zero()
                and (xy + yx - dxy.scale(2)).is_zero())

    def d_image_ideal(x, _y, _z, f, _g):
        df = d_section(f)
        left = parent_dorfman_product(x, df)
        return ((left - d_section(x.vf.derive(f))).is_zero()
                and (left - d_section(pairing(x, df)).scale(2)).is_zero()
                and parent_dorfman_product(df, x).is_zero())

    return [_first_failure("dorfman_leibniz", triples, leibniz),
            _first_failure("skew_symmetric_decomposition", triples, decomposition),
            _first_failure("d_image_ideal", _with_funcs(triples, funcs), d_image_ideal)]


def parent_double_equal(a, b):
    return all((p - q).is_zero() for p, q in zip((*a[0], a[1]), (*b[0], b[1])))


def parent_h_act(a, e):
    """Action on a plain section: the Dorfman product of (xi, phi) with it."""
    return parent_dorfman_product(Section(*a), e)


def parent_double_recovery_check(x, y):
    """The E part of the sigma_(1/2) bracket, h_act(a, y) - h_act(b, x), is [x, y]."""
    (a, _), (b, _) = sigma_double(Q(1, 2), x), sigma_double(Q(1, 2), y)
    return (parent_h_act(a, y) - parent_h_act(b, x) - parent_courant_bracket(x, y)).is_zero()


# -- drawn data -------------------------------------------------------------------

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
        assert (interior_two_form(xi, omega).components
                == ref_interior_two_form(xi, omega).components)

    @settings(max_examples=60, deadline=None)
    @given(fields())
    def test_sharp(self, data):
        n, _, _, theta, upper = data
        pi = Bivector.from_upper(n, upper)
        assert pi.sharp(theta).components == ref_sharp(pi, theta).components

    @settings(max_examples=60, deadline=None)
    @given(fields(), st.data())
    def test_derive_and_bracket(self, data, draw):
        n, a, b, _, _ = data
        p = draw.draw(polys(n))
        assert a.derive(p) == ref_derive(a, p)
        assert vf_bracket(a, b).components == ref_vf_bracket(a, b).components

    @settings(max_examples=40, deadline=None)
    @given(fields(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([Q(0), Q(1, 2), Q(-3, 7)]))
    def test_connection_eval(self, data, seed, s):
        n, x, y, _, _ = data
        a = random_algebra(Pcg32(seed), n)
        assert connection_eval(a, s, x, y).components == ref_connection_eval(a, s, x, y).components


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


def _perturb(monkeypatch, name, triples, cases):
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
        _perturb(monkeypatch, name, s.triples, cases)
        got = suite(s.triples, s.funcs)
        assert got == ref(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


# -- zero components, zero sections and mismatches against the parent code ----------

M61 = 2**61 - 1
SMALL = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
BIG = st.sampled_from([Q(10**30, 7), Q(-10**30, 7), Q(1, M61), Q(-3, M61), Q(1, 6), Q(-1, 3)])


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


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, IndexError) as exc:
        return ("error", type(exc), str(exc))


def assert_same_outcome(fn, ref, *args):
    """Equal values, or the same ValueError; where the old code raised an IndexError,
    the current one raises it or a ValueError."""
    got, want = outcome(fn, *args), outcome(ref, *args)
    if want[0] == "error" and want[1] is IndexError:
        assert got[0] == "error" and got[1] in (IndexError, ValueError), (got, want)
    else:
        assert got == want


def assert_same_kernels(x, y, z, f, g):
    for u, v in ((x, y), (y, x), (x, x), (x, z)):
        assert_same_outcome(courant.vf_bracket, parent_vf_bracket, u.vf, v.vf)
        assert_same_outcome(courant.lie_derivative_one_form, parent_lie_derivative_one_form, u.vf, v.form)
        assert_same_outcome(courant._i_d, parent_i_d, u.nvars, (1, v.vf, u.form))
        assert_same_outcome(courant._i_d, parent_i_d, u.nvars, (1, u.vf, v.form), (-1, v.vf, u.form))
        assert_same_outcome(courant.courant_bracket, parent_courant_bracket, u, v)
        assert_same_outcome(courant.dorfman_product, parent_dorfman_product, u, v)
        assert_same_outcome(courant.double_recovery_check, parent_double_recovery_check, u, v)
        assert_same_outcome(courant.h_bracket, lambda a, b: (parent_vf_bracket(a[0], b[0]), courant.form_class(
            parent_i_d(a[0].nvars, (1, a[0], b[1]), (-1, b[0], a[1])))), (u.vf, u.form), (v.vf, v.form))
        for s in (Q(1, 2), Q(-3)):
            a, b = outcome(sigma_double, s, u), outcome(sigma_double, s, v)
            if a[0] == b[0] == "ok":
                for p, q in ((a[1], b[1]), (a[1], a[1]), (b[1], a[1])):
                    assert_same_outcome(courant.double_equal, parent_double_equal, p, q)
    triples, funcs = [(x, y, z), (z, x, x)], [(f, g), (g, f)]
    assert_same_outcome(courant.axiom_suite, parent_axiom_suite, triples, funcs)
    assert_same_outcome(courant.dorfman_checks, parent_dorfman_checks, triples, funcs)


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
            assert courant.axiom_suite(s.triples, s.funcs) == parent_axiom_suite(s.triples, s.funcs)
            assert courant.dorfman_checks(s.triples, s.funcs) == parent_dorfman_checks(s.triples, s.funcs)
