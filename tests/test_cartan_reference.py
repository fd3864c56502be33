"""The Cartan-form brackets, the suites, graph closure and the integer contraction
against the Courant oracle of tests/test_courant_reference.py.

The package derives the Courant bracket, the ternary, h_act, h_bracket and the
double bracket from one Dorfman product in its Cartan form, computes each
bracket of a suite once, scans only the graph pairs i < j, and computes each
output component as one integer contraction. The oracle writes each of them as
the coordinate formula it stands for. Equal values, equal (ok, pair) results
and equal "case k" witnesses, also when the bracket or the Dorfman product is
made to fail on chosen cases, pin them. Graph witnesses are pinned on graphs
that truly fail (drawn and seeded skew matrices, most of them not Poisson or
not closed), never with a bracket perturbed only at (x, y): the i < j scan
relies on the exact skewness [y, x] = -[x, y], which such a perturbation breaks.

Equal `terms` tuples (`Fraction` coefficients, `int` exponents, sorted order)
against the oracle and the Poly oracle of tests/test_poly_reference.py, on
drawn sections in 1-4 variables with zero and constant components, on sums
that cancel to zero and on seeded Courant samples, pin the integer kernel.
Every result is also checked in the stored form of `Poly`; large coprime
denominators (10^30/7, 1/(2^61 - 1)) and sums whose denominators cancel
(1/6 + 1/3 stores 2) exercise it.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import Bivector, OneForm, Pcg32, Poly, Section, TwoForm, VectorField
from leibniz_forge import courant
from leibniz_forge.courant import _dot, _with_funcs, d_one_form, interior_one_form, interior_two_form
from leibniz_forge.sampling import (
    courant_samples,
    random_one_form,
    random_poly,
    random_section,
    random_vector_field,
)

from test_courant_reference import (
    perturb,
    ref_axiom_suite,
    ref_courant_bracket,
    ref_courant_ternary,
    ref_derive,
    ref_dorfman_checks,
    ref_dorfman_product,
    ref_double_recovery_check,
    ref_graph_closure_check,
    ref_graph_residual,
    ref_graph_section,
    ref_h_act,
    ref_h_bracket,
    ref_interior_one_form,
    ref_interior_two_form,
    ref_lie_derivative,
    ref_sharp,
    ref_vf_bracket,
)
from test_poly_reference import assert_exact, pack, ref_dot, ref_mul

# -- drawn data ---------------------------------------------------------------------

M61 = 2**61 - 1
BIG_COEFFS = st.sampled_from([Q(10**30, 7), Q(-10**30, 7), Q(1, M61), Q(-3, M61), Q(M61, 10**30),
                              Q(1, 6), Q(1, 3), Q(-1, 2), Q(5, 6)])


@cache  # one strategy object per argument: building one costs more than a draw
def polys(n, coeffs=None):
    """Polynomials of degree <= 3 in n variables: zero, constants and up to three terms."""
    monos = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    if coeffs is None:
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    drawn = st.dictionaries(monos, coeffs, max_size=3).map(lambda d: Poly.from_dict(n, d))
    return st.one_of(st.just(Poly.zero(n)), coeffs.map(lambda c: Poly.const(n, c)), drawn)


@st.composite
def sections(draw, count, coeffs=None):
    """count sections in 1-4 variables; their 1-forms are mostly not closed."""
    n = draw(st.integers(1, 4))

    def comps():
        return tuple(draw(polys(n, coeffs)) for _ in range(n))

    return [Section(VectorField(n, comps()), OneForm(n, comps())) for _ in range(count)]


def _samples(seed, nvars, count=4):
    return courant_samples(seed, nvars, count)


SAMPLE_RUNS = [(seed, nvars) for seed in (1, 7, 1009) for nvars in (1, 2, 3)]
PERTURBED_RUNS = [(1, 1, [0]), (7, 2, [2]), (1009, 2, [1, 3]), (7, 3, [3]), (1, 3, [1, 2])]


def _assert_same_values(x, y, z):
    assert courant.courant_bracket(x, y) == ref_courant_bracket(x, y)
    assert courant.courant_ternary(x, y, z) == ref_courant_ternary(x, y, z)
    assert courant.h_act((x.vf, x.form), y) == ref_h_act((x.vf, x.form), y)
    assert (courant.h_bracket((x.vf, x.form), (y.vf, y.form))
            == ref_h_bracket((x.vf, x.form), (y.vf, y.form)))


class TestValues:
    @settings(max_examples=60, deadline=None)
    @given(sections(3))
    def test_drawn_sections(self, xyz):
        _assert_same_values(*xyz)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        for x, y, z in _samples(seed, nvars).triples:
            _assert_same_values(x, y, z)

    def test_degree_three_samples(self):
        for x, y, z in courant_samples(1009, 3, 2, max_degree=3).triples:
            _assert_same_values(x, y, z)

    @pytest.mark.parametrize("rng_seed, nvars", [(14, 2), (7, 3)])
    def test_double_recovery_pairs(self, rng_seed, nvars):
        rng = Pcg32(rng_seed)
        for _ in range(6):
            x, y = random_section(rng, nvars), random_section(rng, nvars)
            a, b = courant.sigma_double(Q(1, 2), x), courant.sigma_double(Q(1, 2), y)
            got = courant.double_bracket(a, b)
            assert got[0] == ref_h_bracket(a[0], b[0])
            assert got[1] == ref_h_act(a[0], b[1]) - ref_h_act(b[0], a[1])
            assert courant.double_recovery_check(x, y)
            assert got[1] == ref_courant_bracket(x, y)


# -- suites and their witnesses -------------------------------------------------------

class TestDorfmanChecks:
    @settings(max_examples=25, deadline=None)
    @given(sections(3), st.data())
    def test_drawn_sections(self, xyz, data):
        n = xyz[0].nvars
        funcs = [(data.draw(polys(n)), data.draw(polys(n)))]
        triples = [tuple(xyz), (xyz[1], xyz[2], xyz[0])]
        assert courant.dorfman_checks(triples, funcs) == ref_dorfman_checks(triples, funcs)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        s = _samples(seed, nvars)
        got = courant.dorfman_checks(s.triples, s.funcs)
        assert got == ref_dorfman_checks(s.triples, s.funcs)
        assert all(r.ok for r in got)

    @pytest.mark.parametrize("name", ["courant_bracket", "dorfman_product"])
    @pytest.mark.parametrize("seed, nvars, cases", PERTURBED_RUNS)
    def test_perturbed_cases(self, monkeypatch, name, seed, nvars, cases):
        s = _samples(seed, nvars)
        perturb(monkeypatch, name, s.triples, cases)
        got = courant.dorfman_checks(s.triples, s.funcs)
        assert got == ref_dorfman_checks(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


class TestAxiomSuite:
    @settings(max_examples=25, deadline=None)
    @given(sections(3), st.data())
    def test_drawn_sections(self, xyz, data):
        n = xyz[0].nvars
        funcs = [(data.draw(polys(n)), data.draw(polys(n)))]
        triples = [tuple(xyz), (xyz[1], xyz[2], xyz[0]), (xyz[0], xyz[0], xyz[2])]
        assert courant.axiom_suite(triples, funcs) == ref_axiom_suite(triples, funcs)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        s = _samples(seed, nvars)
        got = courant.axiom_suite(s.triples, s.funcs)
        assert got == ref_axiom_suite(s.triples, s.funcs)
        assert all(r.ok for r in got)

    @pytest.mark.parametrize("name", ["courant_bracket", "dorfman_product"])
    @pytest.mark.parametrize("seed, nvars, cases", PERTURBED_RUNS)
    def test_perturbed_cases(self, monkeypatch, name, seed, nvars, cases):
        s = _samples(seed, nvars)
        perturb(monkeypatch, name, s.triples, cases)
        got = courant.axiom_suite(s.triples, s.funcs)
        assert got == ref_axiom_suite(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


class TestDoubleRecovery:
    @settings(max_examples=25, deadline=None)
    @given(sections(2))
    def test_drawn_sections(self, xy):
        assert courant.double_recovery_check(*xy) is ref_double_recovery_check(*xy) is True

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        for x, y, z in _samples(seed, nvars).triples:
            for a, b in ((x, y), (y, z), (z, x)):
                assert courant.double_recovery_check(a, b) is ref_double_recovery_check(a, b) is True

    @pytest.mark.parametrize("seed, nvars, cases", [(1, 1, [0]), (1009, 2, [1, 3]), (7, 3, [2])])
    def test_perturbed_cases(self, monkeypatch, seed, nvars, cases):
        triples = _samples(seed, nvars).triples
        perturb(monkeypatch, "courant_bracket", triples, cases)
        for k, (x, y, _z) in enumerate(triples):
            got = courant.double_recovery_check(x, y)
            assert got is ref_double_recovery_check(x, y) is (k not in cases)


# -- graph closure --------------------------------------------------------------------

X = [Poly.var(3, i) for i in range(3)]
GRAPHS = [
    ("poisson", Bivector.from_upper(3, {(0, 1): X[2], (0, 2): X[1] * Q(-1), (1, 2): X[0]})),
    ("poisson", Bivector.from_upper(3, {(0, 1): Poly.const(3, 1), (0, 2): X[0]})),
    ("poisson", Bivector.from_upper(2, {(0, 1): Poly.const(2, 1)})),
    ("twoform", TwoForm.from_upper(3, {(0, 1): X[2]})),
    ("twoform", TwoForm.from_upper(2, {(0, 1): Poly.var(2, 0)})),
    ("twoform", TwoForm.from_upper(1, {})),
]


def assert_same_closure(kind, data, inputs):
    got = courant.graph_closure_check(kind, data, inputs)
    assert got == ref_graph_closure_check(kind, data, inputs)
    return got


class TestGraphs:
    @pytest.mark.parametrize("kind, data", GRAPHS)
    @pytest.mark.parametrize("seed", [1, 7, 1009])
    def test_known_graphs(self, kind, data, seed):
        rng = Pcg32(seed)
        draw = random_one_form if kind == "poisson" else random_vector_field
        inputs = [draw(rng, data.nvars, max_degree=1) for _ in range(4)]
        assert_same_closure(kind, data, inputs)
        assert_same_closure(kind, data, [])
        for u in inputs:
            point = courant.graph_section(kind, data, u)
            assert point == ref_graph_section(kind, data, u)
            assert courant.graph_residual(kind, data, point) == ref_graph_residual(kind, data, point)

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 7, 1009])
    def test_seeded_skew_matrices(self, kind, n, seed):
        rng = Pcg32(seed)
        upper = {(i, j): random_poly(rng, n, 1) for i in range(n) for j in range(i + 1, n)}
        data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
        draw = random_one_form if kind == "poisson" else random_vector_field
        assert_same_closure(kind, data, [draw(rng, n, max_degree=1) for _ in range(3)])
        s = random_section(rng, n)
        assert courant.graph_residual(kind, data, s) == ref_graph_residual(kind, data, s)

    @pytest.mark.parametrize("name", ["graph_section", "graph_residual"])
    def test_unknown_kind_message(self, name):
        data = TwoForm.from_upper(2, {})
        arg = OneForm.zero(2) if name == "graph_section" else Section.zero(2)
        for fn in (getattr(courant, name), globals()[f"ref_{name}"]):
            with pytest.raises(ValueError, match="unknown graph kind 'bogus'"):
                fn("bogus", data, arg)


@cache  # one strategy object per argument: building one costs more than a draw
def low_polys(n, degree):
    monos = st.tuples(*[st.integers(0, degree)] * n).filter(lambda m: sum(m) <= degree)
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    return st.dictionaries(monos, coeffs, max_size=2).map(lambda d: Poly.from_dict(n, d))


@st.composite
def graphs(draw):
    """(kind, skew data, inputs) in 3 variables, since in fewer every bivector is
    Poisson and every 2-form closed: data of degree <= 2, often not Poisson or
    not closed, and up to six inputs of degree <= 1."""
    kind = draw(st.sampled_from(["poisson", "twoform"]))
    n = 3
    upper = {(i, j): draw(low_polys(n, 2)) for i in range(n) for j in range(i + 1, n)}
    data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
    inputs = [OneForm(n, tuple(draw(low_polys(n, 1)) for _ in range(n)))
              for _ in range(draw(st.integers(0, 6)))]
    return kind, data, inputs


def _sparse_input(rng, n):
    """A zero input, one with one nonzero component, or a generic one, so that
    early pairs often stay on the graph and later pairs leave it."""
    u = random_one_form(rng, n, max_degree=1)
    pick = rng.randrange(3)
    if pick == 2:
        return u
    keep = rng.randrange(n) if pick == 1 else -1
    return OneForm(n, tuple(c if i == keep else Poly.zero(n) for i, c in enumerate(u.components)))


class TestGraphWitnesses:
    """Graphs that truly fail, so the first failing pair of the i < j scan is
    compared with the first of the full row-major scan."""

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_drawn_graphs(self, graph):
        assert_same_closure(*graph)

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_seeded_skew_matrices(self, kind, n):
        witnesses = []
        for seed in range(1, 13):
            rng = Pcg32(seed)
            upper = {(i, j): random_poly(rng, n, 1) for i in range(n) for j in range(i + 1, n)}
            data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
            witnesses.append(assert_same_closure(kind, data, [_sparse_input(rng, n)
                                                              for _ in range(6)])[1])
        # the data fail often, and not only at the first pair
        assert sum(w is not None for w in witnesses) >= 3
        assert any(w not in (None, (0, 1)) for w in witnesses)


# -- the integer contraction ------------------------------------------------------------

def _assert_same_terms(got, want):
    """Equal terms, Fraction by Fraction and exponent by exponent, in sorted order,
    and every Poly in its stored form."""
    if isinstance(got, Section):
        _assert_same_terms(got.vf, want.vf)
        _assert_same_terms(got.form, want.form)
        return
    if isinstance(got, OneForm):
        assert got.nvars == want.nvars
        for g, w in zip(got.components, want.components, strict=True):
            _assert_same_terms(g, w)
        return
    assert got.nvars == want.nvars and got.terms == want.terms
    assert_exact(got)


def _assert_same_kernels(x, y, f):
    """Every function that became one contraction per output component, on x, y and f."""
    n = x.nvars
    _assert_same_terms(courant.courant_bracket(x, y), ref_courant_bracket(x, y))
    _assert_same_terms(courant.dorfman_product(x, y), ref_dorfman_product(x, y))
    for got, want in zip(courant.h_bracket((x.vf, x.form), (y.vf, y.form)),
                         ref_h_bracket((x.vf, x.form), (y.vf, y.form)), strict=True):
        _assert_same_terms(got, want)
    _assert_same_terms(courant.vf_bracket(x.vf, y.vf), ref_vf_bracket(x.vf, y.vf))
    _assert_same_terms(courant.lie_derivative_one_form(x.vf, y.form),
                       ref_lie_derivative(x.vf, y.form))
    _assert_same_terms(x.vf.derive(f), ref_derive(x.vf, f))
    _assert_same_terms(interior_one_form(x.vf, y.form), ref_interior_one_form(x.vf, y.form))
    omega = d_one_form(y.form)
    _assert_same_terms(interior_two_form(x.vf, omega), ref_interior_two_form(x.vf, omega))
    _assert_same_terms(omega.sharp(x.form), ref_sharp(omega, x.form))
    a, b = x.vf.components + x.form.components, y.vf.components + y.form.components
    _assert_same_terms(_dot(n, a, b), ref_dot(n, a, b))
    for p, q in zip(a, b):
        _assert_same_terms(p * q, ref_mul(p, q))
        _assert_same_terms(p * f, ref_mul(p, f))


def _assert_cancelling(x, f):
    """Sums that cancel to zero: the brackets of x with itself, and a dot whose
    second half undoes its first."""
    n = x.nvars
    h = (x.vf, x.form)
    for got, want in ((courant.courant_bracket(x, x), ref_courant_bracket(x, x)),
                      (courant.vf_bracket(x.vf, x.vf), ref_vf_bracket(x.vf, x.vf)),
                      (courant.h_bracket(h, h)[1], ref_h_bracket(h, h)[1])):
        _assert_same_terms(got, want)
        assert got.is_zero()
    ps = x.vf.components + tuple(-c for c in x.vf.components)
    qs = x.form.components * 2
    _assert_same_terms(_dot(n, ps, qs), ref_dot(n, ps, qs))
    assert _dot(n, ps, qs).is_zero()
    const = Poly.const(n, Q(-3, 2))
    _assert_same_terms(x.vf.derive(const), ref_derive(x.vf, const))
    assert x.vf.derive(const).is_zero()
    _assert_same_terms(f * Poly.zero(n), ref_mul(f, Poly.zero(n)))


class TestIntegerContraction:
    @settings(max_examples=80, deadline=None)
    @given(sections(2), st.data())
    def test_drawn_sections(self, xy, data):
        x, y = xy
        f = data.draw(polys(x.nvars))
        _assert_same_kernels(x, y, f)
        _assert_same_kernels(y, x, f)
        _assert_cancelling(x, f)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        s = _samples(seed, nvars)
        for x, y, z, f, g in _with_funcs(s.triples, s.funcs):
            for u, v, h in ((x, y, f), (y, z, g), (z, x, f)):
                _assert_same_kernels(u, v, h)
            _assert_cancelling(x, g)

    def test_degree_three_samples(self):
        s = courant_samples(1009, 3, 2, max_degree=3)
        for x, y, z in s.triples:
            _assert_same_kernels(x, y, s.funcs[0][0])
            _assert_same_kernels(z, courant.courant_bracket(x, y), s.funcs[0][1])

    @settings(max_examples=60, deadline=None)
    @given(sections(2, BIG_COEFFS), st.data())
    def test_large_coprime_denominators(self, xy, data):
        x, y = xy
        f = data.draw(polys(x.nvars, BIG_COEFFS))
        _assert_same_kernels(x, y, f)
        _assert_same_kernels(y, x, f)
        _assert_cancelling(x, f)

    def test_cancelling_denominators(self):
        """Items over 6 and 3 whose sum is over 2, and a big prime that cancels."""
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        xi = VectorField(2, (x1 * Q(1, 6), x2 * Q(1, 3)))
        eta = VectorField(2, (x1 * Q(1, M61), x2 * Q(M61)))
        theta = OneForm(2, (Poly.const(2, 1), Poly.const(2, 1)))
        half = interior_one_form(xi, OneForm(2, (x2, x1)))
        assert (half.den, half.nums) == (2, ((pack((1, 1)), 1),))
        _assert_same_terms(half, ref_interior_one_form(xi, OneForm(2, (x2, x1))))
        assert interior_one_form(eta, theta) == x1 * Q(1, M61) + x2 * M61
        for a, b in ((xi, eta), (eta, xi), (xi, xi)):
            _assert_same_terms(courant.vf_bracket(a, b), ref_vf_bracket(a, b))
            x, y = Section(a, theta), Section(b, OneForm(2, b.components))
            _assert_same_terms(courant.courant_bracket(x, y), ref_courant_bracket(x, y))
            _assert_same_terms(courant.dorfman_product(x, y), ref_dorfman_product(x, y))
