"""Symbolic Courant calculus on R^n with polynomial coefficients."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    Bivector,
    OneForm,
    Pcg32,
    Poly,
    Section,
    TwoForm,
    VectorField,
    axiom_suite,
    courant_bracket,
    courant_samples,
    courant_ternary,
    d_function,
    d_one_form,
    d_section,
    dorfman_checks,
    dorfman_product,
    double_bracket,
    double_equal,
    double_recovery_check,
    form_class,
    graph_closure_check,
    graph_section_poisson,
    graph_section_twoform,
    h_bracket,
    homotopy_quotient,
    interior_one_form,
    interior_two_form,
    lie_derivative_one_form,
    pairing,
    random_one_form,
    random_poly,
    random_section,
    random_vector_field,
    sigma_double,
    t_function,
    vf_bracket,
)


def lie_derivative_one_form_coord(xi: VectorField, theta: OneForm) -> OneForm:
    """Coordinate formula (L_xi theta)_j = sum_i (xi_i d_i theta_j + theta_i d_j xi_i).

    Reference for the Cartan formula that the package uses.
    """
    n = xi.nvars
    comps = []
    for j in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            acc = acc + xi.components[i] * theta.components[j].partial(i)
            acc = acc + theta.components[i] * xi.components[i].partial(j)
        comps.append(acc)
    return OneForm(n, tuple(comps))


def p(n, expr_terms):
    return Poly.from_dict(n, expr_terms)


def vf(n, *comps):
    return VectorField(n, tuple(comps))


def of(n, *comps):
    return OneForm(n, tuple(comps))


def zero_p(n):
    return Poly.zero(n)


@pytest.fixture(scope="module")
def r2():
    # handy generators on R^2: coordinates, unit fields, unit forms
    x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
    one, zero = Poly.const(2, 1), Poly.zero(2)
    d1 = vf(2, one, zero)
    d2 = vf(2, zero, one)
    dx1 = of(2, one, zero)
    dx2 = of(2, zero, one)
    return x1, x2, d1, d2, dx1, dx2


class TestDifferentialOperators:
    def test_d_function(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        df = d_function(x1 * x2)
        assert df.components == (x2, x1)

    def test_d_squared_is_zero(self):
        rng = Pcg32(3)
        for _ in range(10):
            f = random_poly(rng, 3, max_degree=3)
            dd = d_one_form(d_function(f))
            assert dd.is_zero()

    def test_interiors(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        assert interior_one_form(d1, dx1) == Poly.const(2, 1)
        assert interior_one_form(d1, dx2) == Poly.zero(2)
        omega = d_one_form(of(2, Poly.zero(2), x1))  # d(x1 dx2) = dx1 ^ dx2
        assert interior_two_form(d1, omega).components == (Poly.zero(2), Poly.const(2, 1))
        assert interior_two_form(d2, omega).components == (Poly.const(2, -1), Poly.zero(2))

    def test_vf_bracket(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        b = vf_bracket(d1, vf(2, Poly.zero(2), x1))
        assert b.components == (Poly.zero(2), Poly.const(2, 1))
        assert vf_bracket(d1, d2).components == (Poly.zero(2), Poly.zero(2))

    def test_cartan_vs_coordinate_lie_derivative(self):
        rng = Pcg32(5)
        for _ in range(12):
            xi = random_vector_field(rng, 3)
            theta = random_one_form(rng, 3)
            a = lie_derivative_one_form(xi, theta)
            b = lie_derivative_one_form_coord(xi, theta)
            assert (a - b).is_zero()

    def test_jacobi_for_vector_fields(self):
        rng = Pcg32(9)
        for _ in range(6):
            a = random_vector_field(rng, 2)
            b = random_vector_field(rng, 2)
            c = random_vector_field(rng, 2)
            total = (vf_bracket(a, vf_bracket(b, c))
                     - vf_bracket(vf_bracket(a, b), c)
                     - vf_bracket(b, vf_bracket(a, c)))
            assert total.is_zero()


class TestBracketOracles:
    def test_pure_vector_fields(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, of(2, zero_p(2), zero_p(2)))
        y = Section(vf(2, zero_p(2), x1), of(2, zero_p(2), zero_p(2)))
        out = courant_bracket(x, y)
        assert out.vf.components == (zero_p(2), Poly.const(2, 1))
        assert out.form.is_zero()

    def test_field_against_form(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, OneForm.zero(2))
        y = Section(VectorField.zero(2), of(2, x1, zero_p(2)))
        out = courant_bracket(x, y)
        assert out.vf.is_zero()
        assert out.form.components == (Poly.const(2, Q(1, 2)), zero_p(2))

    def test_dorfman_asymmetry(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, OneForm.zero(2))
        y = Section(VectorField.zero(2), of(2, x1, zero_p(2)))
        fwd = dorfman_product(x, y)
        assert fwd.vf.is_zero()
        assert fwd.form.components == (Poly.const(2, 1), zero_p(2))
        back = dorfman_product(y, x)
        assert back.is_zero()

    def test_t_function_value(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, OneForm.zero(2))
        y = Section(vf(2, zero_p(2), x1), OneForm.zero(2))
        z = Section(VectorField.zero(2), dx2)
        assert t_function(x, y, z) == Poly.const(2, Q(1, 4))

    def test_ternary_closed_form(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, OneForm.zero(2))
        y = Section(vf(2, zero_p(2), x1), OneForm.zero(2))
        z = Section(VectorField.zero(2), of(2, zero_p(2), x2))
        out = courant_ternary(x, y, z)
        assert out.vf.is_zero()
        assert out.form.components == (zero_p(2), Poly.const(2, Q(-1, 4)))
        # matches -1/4 (x . y) . z with the Dorfman product
        direct = dorfman_product(dorfman_product(x, y), z).scale(Q(-1, 4))
        assert (out - direct).is_zero()

    def test_pairing_is_halved(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, dx1)
        assert pairing(x, x) == Poly.const(2, 1)
        y = Section(d1, dx2)
        assert pairing(x, y) == Poly.const(2, Q(1, 2))

    def test_d_lemma_resolved_identities(self):
        rng = Pcg32(11)
        for _ in range(8):
            x = random_section(rng, 2)
            f = random_poly(rng, 2)
            left = dorfman_product(x, d_section(f))
            mid = d_section(x.vf.derive(f))
            right = d_section(pairing(x, d_section(f))).scale(2)
            assert (left - mid).is_zero()
            assert (left - right).is_zero()
            assert dorfman_product(d_section(f), x).is_zero()


class TestAxiomSuite:
    def test_seeded_samples_pass(self):
        samples = courant_samples(seed=7, nvars=2, count=12)
        for res in axiom_suite(samples.triples, samples.funcs):
            assert res.ok, f"{res.name}: {res.witness}"
        for res in dorfman_checks(samples.triples, samples.funcs):
            assert res.ok, f"{res.name}: {res.witness}"

    def test_check_names(self):
        samples = courant_samples(seed=1, nvars=1, count=3)
        names = [r.name for r in axiom_suite(samples.triples, samples.funcs)]
        assert names == ["axiom1", "axiom2", "axiom3", "axiom4", "axiom5"]
        names = [r.name for r in dorfman_checks(samples.triples, samples.funcs)]
        assert names == ["dorfman_leibniz", "skew_symmetric_decomposition",
                         "d_image_ideal"]


class TestGraphs:
    def test_constant_bivector_closes(self):
        pi = Bivector.from_upper(2, {(0, 1): Poly.const(2, 1)})
        rng = Pcg32(2)
        inputs = [random_one_form(rng, 2) for _ in range(5)]
        ok, witness = graph_closure_check("poisson", pi, inputs)
        assert ok and witness is None

    def test_lie_poisson_so3_closes(self):
        x1, x2, x3 = (Poly.var(3, i) for i in range(3))
        pi = Bivector.from_upper(3, {(0, 1): x3, (0, 2): x2 * Q(-1), (1, 2): x1})
        rng = Pcg32(4)
        inputs = [random_one_form(rng, 3, max_degree=1) for _ in range(5)]
        ok, witness = graph_closure_check("poisson", pi, inputs)
        assert ok and witness is None

    def test_non_jacobi_bivector_witness(self):
        x1 = Poly.var(3, 0)
        pi = Bivector.from_upper(3, {(0, 1): Poly.const(3, 1), (0, 2): x1})
        one3 = Poly.const(3, 1)
        theta = OneForm(3, (Poly.zero(3), one3, Poly.zero(3)))  # dx2
        eta = OneForm(3, (Poly.zero(3), Poly.zero(3), one3))  # dx3
        ok, witness = graph_closure_check("poisson", pi, [theta, eta])
        assert not ok and witness == (0, 1)
        # the bracket leaves the graph by the constant residual field d1
        a = graph_section_poisson(pi, theta)
        b = graph_section_poisson(pi, eta)
        br = courant_bracket(a, b)
        residual = br.vf - pi.sharp(br.form)
        assert residual.components == (one3, Poly.zero(3), Poly.zero(3))

    def test_closed_two_form_closes(self):
        x1 = Poly.var(2, 0)
        omega = TwoForm.from_upper(2, {(0, 1): x1})  # x1 dx1 ^ dx2, closed
        rng = Pcg32(6)
        inputs = [random_vector_field(rng, 2, max_degree=1) for _ in range(5)]
        ok, witness = graph_closure_check("twoform", omega, inputs)
        assert ok and witness is None

    def test_non_closed_two_form_witness(self):
        x3 = Poly.var(3, 2)
        omega = TwoForm.from_upper(3, {(0, 1): x3})  # x3 dx1 ^ dx2, not closed
        one3 = Poly.const(3, 1)
        d1 = VectorField(3, (one3, Poly.zero(3), Poly.zero(3)))
        d2 = VectorField(3, (Poly.zero(3), one3, Poly.zero(3)))
        ok, witness = graph_closure_check("twoform", omega, [d1, d2])
        assert not ok and witness == (0, 1)

    def test_graph_sections_shape(self):
        pi = Bivector.from_upper(2, {(0, 1): Poly.const(2, 1)})
        theta = OneForm(2, (Poly.const(2, 1), Poly.zero(2)))
        sec = graph_section_poisson(pi, theta)
        # pi-sharp(dx1) pairs the first slot: (pi^{j i} theta_j)
        assert sec.form == theta
        omega = TwoForm.from_upper(2, {(0, 1): Poly.const(2, 1)})
        xi = VectorField(2, (Poly.const(2, 1), Poly.zero(2)))
        sec2 = graph_section_twoform(omega, xi)
        assert sec2.vf == xi


class TestHomotopyQuotient:
    def test_worked_example(self):
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        theta = OneForm(2, (x2, Poly.zero(2)))  # x2 dx1
        rep, potential = homotopy_quotient(theta)
        assert potential == x1 * x2 * Q(1, 2)
        assert rep.components == (x2 * Q(1, 2), x1 * Q(-1, 2))

    def test_kills_exact_forms(self):
        rng = Pcg32(8)
        for _ in range(10):
            f = random_poly(rng, 3, max_degree=3)
            assert form_class(d_function(f)).is_zero()

    def test_idempotent(self):
        rng = Pcg32(10)
        for _ in range(10):
            theta = random_one_form(rng, 2, max_degree=3)
            rep = form_class(theta)
            assert (form_class(rep) - rep).is_zero()


class TestDoubleSemidirect:
    def test_recovery_random_pairs(self):
        rng = Pcg32(14)
        for _ in range(10):
            x = random_section(rng, 2)
            y = random_section(rng, 2)
            assert double_recovery_check(x, y)

    def test_h_bracket_jacobi_samples(self):
        rng = Pcg32(16)
        for _ in range(4):
            a = (random_vector_field(rng, 2, 1), form_class(random_one_form(rng, 2, 1)))
            b = (random_vector_field(rng, 2, 1), form_class(random_one_form(rng, 2, 1)))
            c = (random_vector_field(rng, 2, 1), form_class(random_one_form(rng, 2, 1)))
            lhs = h_bracket(a, h_bracket(b, c))
            m1 = h_bracket(h_bracket(a, b), c)
            m2 = h_bracket(b, h_bracket(a, c))
            assert (lhs[0] - m1[0] - m2[0]).is_zero()
            assert (lhs[1] - form_class(m1[1] + m2[1])).is_zero()

    def test_double_bracket_antisymmetry(self):
        rng = Pcg32(18)
        for _ in range(5):
            a = (( random_vector_field(rng, 2, 1),
                   form_class(random_one_form(rng, 2, 1))), random_section(rng, 2, 1))
            b = ((random_vector_field(rng, 2, 1),
                  form_class(random_one_form(rng, 2, 1))), random_section(rng, 2, 1))
            ab = double_bracket(a, b)
            ba = double_bracket(b, a)
            neg = ((ba[0][0].scale(-1), form_class(ba[0][1].scale(-1))),
                   ba[1].scale(-1))
            assert double_equal(ab, neg)

    def test_sigma_scales(self, r2):
        x1, x2, d1, d2, dx1, dx2 = r2
        x = Section(d1, of(2, x2, zero_p(2)))
        (xi, phi), e = sigma_double(Q(1, 2), x)
        assert e == x
        assert xi.components == (Poly.const(2, Q(1, 2)), zero_p(2))
        assert (phi - form_class(x.form.scale(Q(1, 2)))).is_zero()


class TestSamples:
    def test_courant_samples_deterministic(self):
        a = courant_samples(seed=20, nvars=2, count=10)
        b = courant_samples(seed=20, nvars=2, count=10)
        assert a.triples == b.triples and a.funcs == b.funcs
        c = courant_samples(seed=21, nvars=2, count=10)
        assert a.triples != c.triples

    def test_counts(self):
        s = courant_samples(seed=1, nvars=3, count=9)
        assert len(s.triples) == 9
        assert len(s.funcs) >= 1
