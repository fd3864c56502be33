"""Symbolic Courant calculus on R^n with polynomial coefficients."""

from __future__ import annotations

import copy
import pickle
import re
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
from leibniz_forge import courant


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


def _count_calls(monkeypatch, name):
    """Count the calls of courant.<name> from here on."""
    calls = [0]
    real = getattr(courant, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(courant, name, counted)
    return calls


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


class TestPolyInput:
    @pytest.mark.parametrize("mono", [(0.5, 1), (True, 0), (0, False), (1, -1), (1,), ("1", 0),
                                      (0, 0, 0)])
    def test_from_dict_rejects_bad_exponents(self, mono):
        """The public constructor Poly(nvars, terms) raises the same error."""
        for build in (lambda: Poly.from_dict(2, {mono: 1}), lambda: Poly(2, [(mono, 1)])):
            with pytest.raises(ValueError, match="bad exponent tuple"):
                build()

    def test_from_dict_accepts_valid_input(self):
        big = Poly.from_dict(2, {(10**6, 0): 3, (0, 10**6): Q(1, 2), (1, 1): 0})
        assert big.terms == (((0, 10**6), Q(1, 2)), ((10**6, 0), Q(3)))
        assert big.partial(0).terms == (((10**6 - 1, 0), Q(3 * 10**6)),)
        assert (big * big).terms[0] == ((0, 2 * 10**6), Q(1, 4))
        assert Poly.from_dict(2, {}) == Poly.zero(2)

    @pytest.mark.parametrize("mono", [(2**63, 0), (0, 2**63), (2**64, 1), (2**63 + 5, 2**63)])
    def test_exponents_are_bounded_below_2_to_the_63(self, mono):
        for build in (lambda: Poly.from_dict(2, {mono: 1}), lambda: Poly(2, [(mono, 1)]),
                      lambda: Poly.monomial(2, mono, 1)):
            with pytest.raises(ValueError, match=re.escape(f"bad exponent tuple {mono!r} for 2 variables")):
                build()

    def test_products_past_the_bound_raise(self):
        top = 2**63 - 1
        p = Poly.from_dict(2, {(top, 1): 1, (1, top): Q(1, 2)})
        assert p.terms == (((1, top), Q(1, 2)), ((top, 1), Q(1)))
        assert p.partial(0).terms == (((0, top), Q(1, 2)), ((top - 1, 1), Q(top)))
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        assert (Poly.from_dict(2, {(top - 1, 0): 3}) * x).terms == (((top, 0), Q(3)),)
        half = Poly.from_dict(2, {(2**62, 0): 1})
        for a, b, bad in ((p, x, (2**63, 1)), (x, p, (2**63, 1)), (p, y, (1, 2**63)),
                          (half, half * y * y * y, (2**63, 3))):
            with pytest.raises(ValueError, match=re.escape(f"bad exponent tuple {bad!r} for 2 variables")):
                a * b

    def test_constructor_drops_zero_coefficients(self):
        p = Poly(2, (((0, 0), Q(0)),))
        assert p.is_zero() and p == Poly.zero(2) and hash(p) == hash(Poly.zero(2))
        assert Poly(2, (((1, 0), Q(1, 3)), ((0, 1), 0))) == Poly.var(2, 0) * Q(1, 3)

    def test_constructor_sorts_terms(self):
        terms = (((1, 0), Q(1, 2)), ((0, 0), Q(-3)), ((0, 2), Q(5, 7)))
        p, q = Poly(2, terms), Poly(2, sorted(terms))
        assert p == q and hash(p) == hash(q) and p.terms == tuple(sorted(terms))
        assert p == Poly.from_dict(2, dict(terms))

    def test_constructor_adds_repeated_monomials(self):
        p = Poly(1, (((1,), Q(1, 6)), ((1,), Q(1, 3)), ((0,), 1), ((0,), -1)))
        assert p.terms == (((1,), Q(1, 2)),) and (p.den, p.nums) == (2, ((1, 1),))  # key of x1: 1

    @pytest.mark.parametrize("coeff", [0.5, 1.0, None, 1j])
    def test_constructor_rejects_inexact_coefficients(self, coeff):
        for build in (lambda: Poly(2, (((1, 0), coeff),)),
                      lambda: Poly.from_dict(2, {(1, 0): coeff})):
            with pytest.raises(TypeError, match="not an exact scalar"):
                build()

    def test_copy_and_pickle_round_trip(self):
        p = Poly.from_dict(2, {(1, 0): Q(10**30, 7), (0, 3): Q(-1, 2**61 - 1)})
        for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert again == p and type(again) is Poly and again.terms == p.terms
        assert eval(repr(p), {"Poly": Poly, "Fraction": Q}) == p


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

    def test_kernel_fields_are_built_checked(self, monkeypatch):
        """Brackets and Lie derivatives skip the construction check, and each
        equals the field that the checked construction makes of its components."""
        rng = Pcg32(7)
        xi, eta = random_vector_field(rng, 3), random_vector_field(rng, 3)
        theta = random_one_form(rng, 3)
        checks = []
        post_init = OneForm.__post_init__
        monkeypatch.setattr(OneForm, "__post_init__", lambda f: checks.append(f) or post_init(f))
        fields = [vf_bracket(xi, eta), lie_derivative_one_form(xi, theta),
                  courant_bracket(Section(xi, theta), Section(eta, theta)).form]
        assert checks == []
        for f in fields:
            assert f == OneForm(3, f.components) == VectorField(3, f.components)
            assert len(f.components) == 3 and all(p.nvars == 3 for p in f.components)
        assert len(checks) == 2 * len(fields)

    @pytest.mark.parametrize("nvars, comps", [(2, (Poly.zero(2),)), (2, (Poly.var(3, 0),) * 2),
                                              (3, (Poly.zero(3), Poly.zero(3), Poly.zero(2)))])
    def test_direct_fields_still_checked(self, nvars, comps):
        for cls in (OneForm, VectorField):
            with pytest.raises(ValueError, match="one polynomial per variable"):
                cls(nvars, comps)

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

    def test_contractions_per_bracket(self, monkeypatch):
        # the bracket is written from its coordinate formula: one integer
        # contraction per output component, 2n per bracket, and no d or interior product
        kernels = _count_calls(monkeypatch, "_contract")
        others = [_count_calls(monkeypatch, name)
                  for name in ("d_one_form", "interior_one_form", "d_function")]
        triples = courant_samples(seed=1, nvars=3, count=4).triples
        for x, y, _z in triples:
            courant.courant_bracket(x, y)
        assert kernels[0] == 2 * 3 * len(triples)
        assert [calls[0] for calls in others] == [0, 0, 0]

    def test_contractions_per_h_bracket(self, monkeypatch):
        # i_xi1 dphi2 - i_xi2 dphi1 takes the path of the Dorfman product's i_eta dth:
        # one contraction per form component, as the vector field bracket makes
        kernels = _count_calls(monkeypatch, "_contract")
        others = [_count_calls(monkeypatch, name) for name in ("d_one_form", "interior_two_form")]
        triples = courant_samples(seed=1, nvars=3, count=4).triples
        for x, y, _z in triples:
            courant.h_bracket((x.vf, x.form), (y.vf, y.form))
        assert kernels[0] == 2 * 3 * len(triples)
        assert [calls[0] for calls in others] == [0, 0]

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

    @pytest.mark.parametrize("seed, nvars, count", [(1, 3, 4), (7, 2, 6), (1009, 1, 5)])
    def test_brackets_per_triple(self, monkeypatch, seed, nvars, count):
        # [x,y], [y,z], [z,x] once each, the three outer brackets of axiom1, and
        # [x, f y]: 7 per triple, where computing each where it is used takes 12
        samples = courant_samples(seed, nvars, count)
        calls = _count_calls(monkeypatch, "courant_bracket")
        assert all(r.ok for r in axiom_suite(samples.triples, samples.funcs))
        assert calls[0] == 7 * count

    @pytest.mark.parametrize("seed, nvars, count", [(1, 3, 4), (7, 2, 6), (1009, 1, 5)])
    def test_dorfman_products_per_triple(self, monkeypatch, seed, nvars, count):
        # x . y once for both the Leibniz rule and the decomposition: 9 per triple,
        # 36 on courant_samples(1, 3, 4), where computing it in each takes 10
        samples = courant_samples(seed, nvars, count)
        calls = _count_calls(monkeypatch, "dorfman_product")
        assert all(r.ok for r in dorfman_checks(samples.triples, samples.funcs))
        assert calls[0] == 9 * count


class TestZeroSkipping:
    """Zero components of the vector fields list no kernel items, and the checks
    compare canonical forms; a mismatch of variable counts raises all the same."""

    def test_zero_vector_fields_list_no_items(self, monkeypatch):
        items = []
        real = courant._contract
        monkeypatch.setattr(courant, "_contract", lambda n, its: items.extend(its) or real(n, its))
        rng = Pcg32(3)
        x = Section(VectorField.zero(3), random_one_form(rng, 3))
        y = Section(VectorField.zero(3), random_one_form(rng, 3))
        assert courant_bracket(x, y).is_zero() and vf_bracket(x.vf, y.vf).is_zero()
        assert lie_derivative_one_form(x.vf, y.form).is_zero()
        assert items == []
        xi = VectorField(3, (Poly.zero(3), Poly.var(3, 0), Poly.zero(3)))
        courant_bracket(Section(xi, x.form), y)
        assert items and all(any(p is xi.components[1] for p in item[1:3]) for item in items)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (1, 3)])
    def test_zero_sections_over_other_variable_counts_raise(self, n, m):
        x, y, f = Section.zero(n), Section.zero(m), Poly.zero(n)
        for op in (lambda: courant_bracket(x, y), lambda: dorfman_product(x, y),
                   lambda: vf_bracket(x.vf, y.vf), lambda: lie_derivative_one_form(x.vf, y.form),
                   lambda: h_bracket((x.vf, x.form), (y.vf, y.form)),
                   lambda: double_recovery_check(x, y),
                   lambda: double_equal(sigma_double(1, x), sigma_double(1, y)),
                   lambda: axiom_suite([(x, y, x)], [(f, f)]),
                   lambda: dorfman_checks([(x, y, x)], [(f, f)])):
            with pytest.raises(ValueError, match="^variable count mismatch$"):
                op()

    def test_checks_compare_canonical_forms(self, monkeypatch):
        # equal values are equal stored forms, so no check subtracts its two sides
        samples = courant_samples(seed=2, nvars=2, count=3)
        calls = _count_calls(monkeypatch, "double_recovery_check")
        subs = [0]
        real = Section.__sub__
        monkeypatch.setattr(Section, "__sub__", lambda a, b: subs.__setitem__(0, subs[0] + 1) or real(a, b))
        assert all(r.ok for r in axiom_suite(samples.triples, samples.funcs))
        assert all(r.ok for r in dorfman_checks(samples.triples, samples.funcs))
        # what is left is inside the identities: axiom3's - D f <x, y> and the decomposition's x.y - y.x
        assert subs[0] == 2 * len(samples.triples)
        x, y, _ = samples.triples[0]
        a, b = sigma_double(Q(1, 2), x), sigma_double(Q(1, 2), y)
        assert double_equal(a, a) and not double_equal(a, b)
        assert calls == [0]


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

    @pytest.mark.parametrize("k", [0, 1, 2, 6])
    def test_brackets_per_closed_graph(self, monkeypatch, k):
        # a closed graph with k inputs takes one bracket per pair i < j, not k^2
        x1, x2, x3 = (Poly.var(3, i) for i in range(3))
        pi = Bivector.from_upper(3, {(0, 1): x3, (0, 2): x2 * Q(-1), (1, 2): x1})
        rng = Pcg32(4)
        inputs = [random_one_form(rng, 3, max_degree=1) for _ in range(k)]
        calls = _count_calls(monkeypatch, "courant_bracket")
        assert graph_closure_check("poisson", pi, inputs) == (True, None)
        assert calls[0] == k * (k - 1) // 2

    @pytest.mark.parametrize("kind", ["bogus", None, ["twoform"]])
    @pytest.mark.parametrize("inputs", [[], [VectorField.zero(2)]])
    def test_unknown_kind_rejected(self, kind, inputs):
        omega = TwoForm.from_upper(2, {(0, 1): Poly.var(2, 0)})
        with pytest.raises(ValueError, match=f"unknown graph kind {re.escape(repr(kind))}"):
            graph_closure_check(kind, omega, inputs)

    def test_from_upper_matches_checked_construction(self):
        x1, x2 = Poly.var(3, 0), Poly.var(3, 1)
        form = TwoForm.from_upper(3, {(0, 1): x1, (1, 2): x2 * Q(-2), (0, 2): Poly.zero(3)})
        assert form == TwoForm(3, form.entries) == Bivector(3, form.entries)
        assert form.entries[1][0] == -x1 and form.entries[2][1] == x2 * Q(2)
        assert all(form.entries[i][i].is_zero() for i in range(3))

    @pytest.mark.parametrize("upper", [{(1, 0): Poly.const(2, 1)}, {(0, 0): Poly.zero(2)},
                                       {(0, 2): Poly.const(2, 1)}, {(-1, 1): Poly.const(2, 1)}])
    def test_from_upper_rejects_bad_index(self, upper):
        for cls in (TwoForm, Bivector):
            with pytest.raises(ValueError, match="upper-triangular index expected"):
                cls.from_upper(2, upper)

    @pytest.mark.parametrize("nvars, upper", [(3, {(0, 1): Poly.var(2, 0)}), (2, {(0, 1): 5}),
                                              (2, {(0, 1): Q(1, 2)}), (2, {(0, 1): "x1"}),
                                              (3, {(0, 2): Poly.zero(3), (0, 1): None})])
    def test_from_upper_rejects_values_that_are_not_polys_over_nvars(self, nvars, upper):
        for cls in (TwoForm, Bivector):
            with pytest.raises(ValueError, match=r"entry \(0, 1\) is not a Poly in \d variables"):
                cls.from_upper(nvars, upper)

    def test_direct_construction_still_checked(self):
        one, zero = Poly.const(2, 1), Poly.zero(2)
        for cls in (TwoForm, Bivector):
            for entries in [((zero, one),), ((zero, one), (one,)),
                            ((zero, one), (one, zero), (zero, zero))]:
                with pytest.raises(ValueError, match="n x n coefficient matrix"):
                    cls(2, entries)
            for entries in [((zero, one), (one, zero)), ((one, zero), (zero, zero)),
                            ((zero, one), (zero, zero))]:
                with pytest.raises(ValueError, match="must be antisymmetric"):
                    cls(2, entries)
            x = Poly.var(3, 0)
            for entries in [((zero, 5), (-5, zero)), ((zero, x), (-x, zero)),
                            ((zero, Q(1)), (-1, zero))]:
                with pytest.raises(ValueError, match="must be Polys in 2 variables"):
                    cls(2, entries)

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

    def test_recovery_builds_no_h_bracket(self, monkeypatch):
        # the check reads only the E part of the double bracket
        rng = Pcg32(14)
        pairs = [(random_section(rng, 3), random_section(rng, 3)) for _ in range(4)]
        calls = _count_calls(monkeypatch, "h_bracket")
        assert all(double_recovery_check(x, y) for x, y in pairs)
        assert calls[0] == 0

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
