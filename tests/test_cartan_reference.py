"""The Cartan-form brackets, and the suites that compute each bracket once,
against the code they replaced.

The functions below are the earlier `courant_bracket`, `courant_ternary`,
`h_act`, `h_bracket`, `dorfman_checks` and `graph_closure_check` (with its
`graph_section` and `graph_residual`), kept verbatim. They wrote the Dorfman
formula out in each place, as Lie derivatives minus d(i_xi1 th2 - i_xi2 th1)/2.
The package now derives them all from one Dorfman product and its Cartan form
i_xi1 d th2 - i_xi2 d th1 + d(i_xi1 th2 - i_xi2 th1)/2. The two agree exactly
because d d = 0 on polynomials and `form_class` is linear and kills exact
forms. Equal values, equal (ok, pair) results and equal "case k" witnesses,
also when the bracket or the Dorfman product is made to fail on chosen cases,
pin the rewrite.

Also kept verbatim are the earlier `axiom_suite` (with its `t_function` and
`_with_funcs`) and `double_recovery_check` (with its `double_bracket`). That
suite computed 12 brackets per triple, where the package computes each of the
7 distinct ones once per call; that check built an H part it dropped.
`graph_closure_check` above scans all k^2 input pairs, where the package scans
the pairs i < j. Its witnesses are pinned on graphs that truly fail, drawn
and seeded skew matrices most of which are not Poisson or not closed, and
never with a bracket perturbed only at (x, y): the i < j scan relies on the
exact skewness [y, x] = -[x, y], which such a perturbation breaks.

Last, the `ref_` functions are the Poly-level code that summed products of
`Fraction` coefficients in one dict (`Poly.__mul__` with its `_addmul` and
`_trusted`, `courant._dot`, `OneForm.derive`, `vf_bracket`,
`lie_derivative_one_form`, `courant_bracket`, `dorfman_product`, `h_bracket`,
and the interior products, d and sharp they called), kept verbatim up to the
renaming of `self` and of the functions they call. The package now computes each
output component as one integer contraction. Equal `terms` tuples (`Fraction`
coefficients, `int` exponents, sorted order) on drawn sections in 1-4
variables with zero and constant components, on sums that cancel to zero and
on seeded Courant samples pin the swap.

Every result is also checked in the stored form of `Poly`: one positive
denominator with integer numerators in lowest terms over it, sorted monomials
and no zero term, rebuilt equal and equally hashed from its `terms`. Sections
with large coprime denominators (10^30/7, 1/(2^61 - 1)) and sums whose
denominators cancel (1/6 + 1/3 stores 2) exercise the integer kernel.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from fractions import Fraction as Q
from math import gcd
from operator import add
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import Bivector, OneForm, Pcg32, Poly, Section, TwoForm, VectorField
from leibniz_forge import courant
from leibniz_forge.courant import (
    CheckResult,
    _dot,
    d_function,
    d_one_form,
    d_section,
    dorfman_product,
    form_class,
    graph_section_poisson,
    graph_section_twoform,
    interior_one_form,
    interior_two_form,
    lie_derivative_one_form,
    pairing,
    sigma_double,
    vf_bracket,
)
from leibniz_forge.linalg import as_q
from leibniz_forge.sampling import (
    courant_samples,
    random_one_form,
    random_poly,
    random_section,
    random_vector_field,
)

HERE = sys.modules[__name__]


# -- the earlier code, verbatim -----------------------------------------------------

def courant_bracket(x: Section, y: Section) -> Section:
    half = Q(1, 2)
    form = (lie_derivative_one_form(x.vf, y.form)
            - lie_derivative_one_form(y.vf, x.form)
            - d_function(interior_one_form(x.vf, y.form)
                         - interior_one_form(y.vf, x.form)).scale(half))
    return Section(vf_bracket(x.vf, y.vf), form)


def courant_ternary(x: Section, y: Section, z: Section) -> Section:
    """Closed form of -(x . y) . z / 4 for the Dorfman product."""
    quarter = Q(-1, 4)
    inner_vf = vf_bracket(x.vf, y.vf)
    inner_form = (lie_derivative_one_form(x.vf, y.form)
                  - lie_derivative_one_form(y.vf, x.form))
    form = (lie_derivative_one_form(inner_vf, z.form)
            - interior_two_form(z.vf, d_one_form(inner_form)))
    return Section(vf_bracket(inner_vf, z.vf), form).scale(quarter)


def h_bracket(a, b):
    """Bracket of the vector-fields-with-form-classes Lie algebra."""
    xi1, phi1 = a
    xi2, phi2 = b
    form = lie_derivative_one_form(xi1, phi2) - lie_derivative_one_form(xi2, phi1)
    return (vf_bracket(xi1, xi2), form_class(form))


def h_act(a, e: Section) -> Section:
    """Action on a plain section: Lie derivative plus the nilpotent -i d(phi) part."""
    xi, phi = a
    return Section(vf_bracket(xi, e.vf),
                   lie_derivative_one_form(xi, e.form)
                   - interior_two_form(e.vf, d_one_form(phi)))


def _first_failure(name: str, cases: Iterable[tuple], holds) -> CheckResult:
    """Run holds(*case) over the cases in order, stopping at the first that fails."""
    bad = next((i for i, case in enumerate(cases) if not holds(*case)), None)
    return CheckResult(name, bad is None, None if bad is None else f"case {bad}")


def _cycle(items: Sequence, count: int) -> list:
    if not items:
        raise ValueError("at least one sampled function pair is required")
    return [items[i % len(items)] for i in range(count)]


def dorfman_checks(triples, funcs) -> list[CheckResult]:
    """Dorfman Leibniz rule, the skew/symmetric decomposition, and the D-ideal identity."""
    def leibniz(x, y, z):
        lhs = dorfman_product(x, dorfman_product(y, z))
        rhs = (dorfman_product(dorfman_product(x, y), z)
               + dorfman_product(y, dorfman_product(x, z)))
        return (lhs - rhs).is_zero()

    def decomposition(x, y, _z):
        dec = dorfman_product(x, y) - courant_bracket(x, y) - d_section(pairing(x, y))
        skew = courant_bracket(x, y) - (dorfman_product(x, y) - dorfman_product(y, x)).scale(Q(1, 2))
        sym = (dorfman_product(x, y) + dorfman_product(y, x)
               - d_section(pairing(x, y)).scale(2))
        return dec.is_zero() and skew.is_zero() and sym.is_zero()

    def d_image_ideal(triple, fg):
        (x, _, _), (f, _g) = triple, fg
        left = dorfman_product(x, d_section(f))
        mid = d_section(x.vf.derive(f))
        right = d_section(pairing(x, d_section(f))).scale(2)
        back = dorfman_product(d_section(f), x)
        return (left - mid).is_zero() and (left - right).is_zero() and back.is_zero()

    return [_first_failure("dorfman_leibniz", triples, leibniz),
            _first_failure("skew_symmetric_decomposition", triples, decomposition),
            _first_failure("d_image_ideal", zip(triples, _cycle(funcs, len(triples))),
                           d_image_ideal)]


def graph_section(kind: str, data: TwoForm, u: OneForm) -> Section:
    """The point of the graph over u: (pi# u, u) for kind "poisson", (u, i_u omega) for "twoform"."""
    if kind == "poisson":
        return graph_section_poisson(data, u)
    if kind == "twoform":
        return graph_section_twoform(data, u)
    raise ValueError(f"unknown graph kind {kind!r}")


def graph_residual(kind: str, data: TwoForm, s: Section) -> OneForm:
    """How far s is off the graph, zero exactly on it: the vector field
    s.vf - pi# s.form for "poisson", the 1-form s.form - i_(s.vf) omega for "twoform"."""
    if kind == "poisson":
        return s.vf - data.sharp(s.form)
    if kind == "twoform":
        return s.form - interior_two_form(s.vf, data)
    raise ValueError(f"unknown graph kind {kind!r}")


def graph_closure_check(kind: str, data, inputs: Sequence):
    """Close the graph under the Courant bracket over all input pairs."""
    sections = [graph_section(kind, data, u) for u in inputs]
    for i, x in enumerate(sections):
        for j, y in enumerate(sections):
            if not graph_residual(kind, data, courant_bracket(x, y)).is_zero():
                return False, (i, j)
    return True, None


def t_function(x: Section, y: Section, z: Section) -> Poly:
    return (pairing(courant_bracket(x, y), z) + pairing(courant_bracket(y, z), x)
            + pairing(courant_bracket(z, x), y)) * Q(1, 3)


def _with_funcs(triples: Sequence[tuple], funcs: Sequence[tuple]) -> list[tuple]:
    if not funcs:
        raise ValueError("at least one sampled function pair is required")
    return [(*t, *funcs[i % len(funcs)]) for i, t in enumerate(triples)]


def axiom_suite(triples: Sequence[tuple[Section, Section, Section]],
                funcs: Sequence[tuple[Poly, Poly]]) -> list[CheckResult]:
    """The five structure axioms, each checked exactly up to its first failing case.

    axiom1  cyclic [[x,y],z] sums to D T(x,y,z)
    axiom2  anchor is bracket preserving
    axiom3  Leibniz scaling of the skew bracket with correction terms
    axiom4  D lands in the anchor kernel and is isotropic
    axiom5  pairing is invariant for the Dorfman product
    """
    def ax1(x, y, z):
        lhs = (courant_bracket(courant_bracket(x, y), z)
               + courant_bracket(courant_bracket(y, z), x)
               + courant_bracket(courant_bracket(z, x), y))
        return (lhs - d_section(t_function(x, y, z))).is_zero()

    def ax2(x, y, _z):
        return (courant_bracket(x, y).vf - vf_bracket(x.vf, y.vf)).is_zero()

    def ax3(x, y, _z, f, _g):
        lhs = courant_bracket(x, y.scale(f))
        rhs = (courant_bracket(x, y).scale(f)
               + y.scale(x.vf.derive(f))
               - d_section(f).scale(pairing(x, y)))
        return (lhs - rhs).is_zero()

    def ax4(f, g):
        return pairing(d_section(f), d_section(g)).is_zero() and d_section(f).vf.is_zero()

    def ax5(x, y, z):
        lhs = x.vf.derive(pairing(y, z))
        rhs = (pairing(dorfman_product(x, y), z) + pairing(y, dorfman_product(x, z)))
        return (lhs - rhs).is_zero()

    return [_first_failure("axiom1", triples, ax1),
            _first_failure("axiom2", triples, ax2),
            _first_failure("axiom3", _with_funcs(triples, funcs), ax3),
            _first_failure("axiom4", funcs, ax4),
            _first_failure("axiom5", triples, ax5)]


def double_bracket(a, b):
    """Semidirect bracket on (X ltimes Omega^1/dC) ltimes (X x Omega^1)."""
    return (h_bracket(a[0], b[0]), h_act(a[0], b[1]) - h_act(b[0], a[1]))


def double_recovery_check(x: Section, y: Section) -> bool:
    """E-projection of the sigma_(1/2) bracket reproduces the Courant bracket."""
    half = Q(1, 2)
    _, e_part = double_bracket(sigma_double(half, x), sigma_double(half, y))
    return (e_part - courant_bracket(x, y)).is_zero()


# -- the dict-accumulating Poly code, verbatim --------------------------------------

def ref_addmul(self, other, d):
    """Add self * other into d, so a sum of products is built in one dict."""
    self._require_same(other)
    for m1, c1 in self.terms:
        for m2, c2 in other.terms:
            mono = tuple(map(add, m1, m2))
            d[mono] = d[mono] + c1 * c2 if mono in d else c1 * c2


def ref_trusted(nvars, d):
    """A Poly from a dict built by this class: valid exponents, Fraction coefficients."""
    return Poly(nvars, tuple(sorted((m, c) for m, c in d.items() if c)))


def ref_mul(self, other):
    if isinstance(other, Poly):
        d = {}
        ref_addmul(self, other, d)
        return ref_trusted(self.nvars, d)
    c = as_q(other)
    if c == 0:
        return Poly.zero(self.nvars)
    return Poly(self.nvars, tuple((m, c * co) for m, co in self.terms))


def ref_dot(nvars, ps, qs):
    """sum_i p_i q_i, the one contraction behind every pairing, derivative and sharp."""
    d = {}
    for p, q in zip(ps, qs):
        if p.nvars != nvars:
            raise ValueError("variable count mismatch")
        ref_addmul(p, q, d)
    return ref_trusted(nvars, d)


def ref_derive(self, p):
    """Directional derivative rho(xi) p = sum_i xi_i d_i p."""
    return ref_dot(self.nvars, self.components, (p.partial(i) for i in range(self.nvars)))


def ref_sharp(self, theta):
    return VectorField(self.nvars, tuple(ref_dot(self.nvars, row, theta.components)
                                         for row in self.entries))


def ref_d_function(f):
    return OneForm(f.nvars, tuple(f.partial(i) for i in range(f.nvars)))


def ref_d_one_form(theta):
    n, c = theta.nvars, theta.components
    return TwoForm.from_upper(n, {(i, j): c[j].partial(i) - c[i].partial(j)
                                  for i in range(n) for j in range(i + 1, n)})


def ref_interior_one_form(xi, theta):
    return ref_dot(xi.nvars, xi.components, theta.components)


def ref_interior_two_form(xi, omega):
    """(i_xi omega)_j = sum_i xi_i omega_ij."""
    return OneForm(xi.nvars, tuple(ref_dot(xi.nvars, xi.components, column)
                                   for column in zip(*omega.entries)))


def ref_vf_bracket(a, b):
    return VectorField(a.nvars, tuple(ref_derive(a, bk) - ref_derive(b, ak)
                                      for ak, bk in zip(a.components, b.components)))


def ref_lie_derivative_one_form(xi, theta):
    """Cartan formula i_xi d theta + d i_xi theta."""
    return (ref_interior_two_form(xi, ref_d_one_form(theta))
            + ref_d_function(ref_interior_one_form(xi, theta)))


def ref_courant_bracket(x, y):
    form = (ref_interior_two_form(x.vf, ref_d_one_form(y.form))
            - ref_interior_two_form(y.vf, ref_d_one_form(x.form))
            + ref_d_function(ref_interior_one_form(x.vf, y.form)
                             - ref_interior_one_form(y.vf, x.form)).scale(Q(1, 2)))
    return Section(ref_vf_bracket(x.vf, y.vf), form)


def ref_dorfman_product(x, y):
    form = (ref_lie_derivative_one_form(x.vf, y.form)
            - ref_interior_two_form(y.vf, ref_d_one_form(x.form)))
    return Section(ref_vf_bracket(x.vf, y.vf), form)


def ref_h_bracket(a, b):
    """Bracket of the vector-fields-with-form-classes Lie algebra: the Courant form's class."""
    (xi1, phi1), (xi2, phi2) = a, b
    form = (ref_interior_two_form(xi1, ref_d_one_form(phi2))
            - ref_interior_two_form(xi2, ref_d_one_form(phi1)))
    return (ref_vf_bracket(xi1, xi2), form_class(form))


# -- drawn data ---------------------------------------------------------------------

M61 = 2**61 - 1
BIG_COEFFS = st.sampled_from([Q(10**30, 7), Q(-10**30, 7), Q(1, M61), Q(-3, M61), Q(M61, 10**30),
                              Q(1, 6), Q(1, 3), Q(-1, 2), Q(5, 6)])


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


def _assert_same_values(x, y, z):
    assert courant.courant_bracket(x, y) == courant_bracket(x, y)
    assert courant.courant_ternary(x, y, z) == courant_ternary(x, y, z)
    assert courant.h_act((x.vf, x.form), y) == h_act((x.vf, x.form), y)
    assert courant.h_bracket((x.vf, x.form), (y.vf, y.form)) == h_bracket((x.vf, x.form),
                                                                         (y.vf, y.form))


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
        half = Q(1, 2)
        for _ in range(6):
            x, y = random_section(rng, nvars), random_section(rng, nvars)
            a, b = courant.sigma_double(half, x), courant.sigma_double(half, y)
            got = courant.double_bracket(a, b)
            assert got[0] == h_bracket(a[0], b[0])
            assert got[1] == h_act(a[0], b[1]) - h_act(b[0], a[1])
            assert courant.double_recovery_check(x, y)
            assert (got[1] - courant_bracket(x, y)).is_zero()


# -- suites and their witnesses -------------------------------------------------------

def _bump(n):
    one = Poly.const(n, 1)
    return Section(VectorField(n, (one,) + tuple(Poly.zero(n) for _ in range(n - 1))),
                   OneForm(n, (one,) + tuple(Poly.zero(n) for _ in range(n - 1))))


def _perturb(monkeypatch, name, triples, cases):
    """Make <name>(x, y) wrong, in the package and in the copies above, exactly
    when (x, y) are the first two sections of one of the chosen cases."""
    targets = [(triples[k][0], triples[k][1]) for k in cases]
    bump = _bump(triples[0][0].nvars)

    def perturbed(real):
        def wrapped(x, y):
            out = real(x, y)
            if any(x is a and y is b for a, b in targets):
                out = out + bump
            return out
        return wrapped

    monkeypatch.setattr(courant, name, perturbed(getattr(courant, name)))
    monkeypatch.setattr(HERE, name, perturbed(getattr(HERE, name)))


class TestDorfmanChecks:
    @settings(max_examples=25, deadline=None)
    @given(sections(3), st.data())
    def test_drawn_sections(self, xyz, data):
        n = xyz[0].nvars
        funcs = [(data.draw(polys(n)), data.draw(polys(n)))]
        triples = [tuple(xyz), (xyz[1], xyz[2], xyz[0])]
        assert courant.dorfman_checks(triples, funcs) == dorfman_checks(triples, funcs)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        s = _samples(seed, nvars)
        got = courant.dorfman_checks(s.triples, s.funcs)
        assert got == dorfman_checks(s.triples, s.funcs)
        assert all(r.ok for r in got)

    @pytest.mark.parametrize("name", ["courant_bracket", "dorfman_product"])
    @pytest.mark.parametrize("seed, nvars, cases", [
        (1, 1, [0]), (7, 2, [2]), (1009, 2, [1, 3]), (7, 3, [3]), (1, 3, [1, 2]),
    ])
    def test_perturbed_cases(self, monkeypatch, name, seed, nvars, cases):
        s = _samples(seed, nvars)
        _perturb(monkeypatch, name, s.triples, cases)
        got = courant.dorfman_checks(s.triples, s.funcs)
        assert got == dorfman_checks(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


class TestAxiomSuite:
    @settings(max_examples=25, deadline=None)
    @given(sections(3), st.data())
    def test_drawn_sections(self, xyz, data):
        n = xyz[0].nvars
        funcs = [(data.draw(polys(n)), data.draw(polys(n)))]
        triples = [tuple(xyz), (xyz[1], xyz[2], xyz[0]), (xyz[0], xyz[0], xyz[2])]
        assert courant.axiom_suite(triples, funcs) == axiom_suite(triples, funcs)

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        s = _samples(seed, nvars)
        got = courant.axiom_suite(s.triples, s.funcs)
        assert got == axiom_suite(s.triples, s.funcs)
        assert all(r.ok for r in got)

    @pytest.mark.parametrize("name", ["courant_bracket", "dorfman_product"])
    @pytest.mark.parametrize("seed, nvars, cases", [
        (1, 1, [0]), (7, 2, [2]), (1009, 2, [1, 3]), (7, 3, [3]), (1, 3, [1, 2]),
    ])
    def test_perturbed_cases(self, monkeypatch, name, seed, nvars, cases):
        s = _samples(seed, nvars)
        _perturb(monkeypatch, name, s.triples, cases)
        got = courant.axiom_suite(s.triples, s.funcs)
        assert got == axiom_suite(s.triples, s.funcs)
        assert any(r.witness == f"case {cases[0]}" for r in got)


class TestDoubleRecovery:
    @settings(max_examples=25, deadline=None)
    @given(sections(2))
    def test_drawn_sections(self, xy):
        assert courant.double_recovery_check(*xy) is double_recovery_check(*xy) is True

    @pytest.mark.parametrize("seed, nvars", SAMPLE_RUNS)
    def test_courant_samples(self, seed, nvars):
        for x, y, z in _samples(seed, nvars).triples:
            for a, b in ((x, y), (y, z), (z, x)):
                assert courant.double_recovery_check(a, b) is double_recovery_check(a, b) is True

    @pytest.mark.parametrize("seed, nvars, cases", [(1, 1, [0]), (1009, 2, [1, 3]), (7, 3, [2])])
    def test_perturbed_cases(self, monkeypatch, seed, nvars, cases):
        triples = _samples(seed, nvars).triples
        _perturb(monkeypatch, "courant_bracket", triples, cases)
        for k, (x, y, _z) in enumerate(triples):
            got = courant.double_recovery_check(x, y)
            assert got is double_recovery_check(x, y) is (k not in cases)


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


class TestGraphs:
    @pytest.mark.parametrize("kind, data", GRAPHS)
    @pytest.mark.parametrize("seed", [1, 7, 1009])
    def test_known_graphs(self, kind, data, seed):
        rng = Pcg32(seed)
        draw = random_one_form if kind == "poisson" else random_vector_field
        inputs = [draw(rng, data.nvars, max_degree=1) for _ in range(4)]
        assert courant.graph_closure_check(kind, data, inputs) == graph_closure_check(kind, data,
                                                                                    inputs)
        assert courant.graph_closure_check(kind, data, []) == graph_closure_check(kind, data, [])
        for u in inputs:
            point = courant.graph_section(kind, data, u)
            assert point == graph_section(kind, data, u)
            assert courant.graph_residual(kind, data, point) == graph_residual(kind, data, point)

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 7, 1009])
    def test_seeded_skew_matrices(self, kind, n, seed):
        rng = Pcg32(seed)
        upper = {(i, j): random_poly(rng, n, 1) for i in range(n) for j in range(i + 1, n)}
        data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
        draw = random_one_form if kind == "poisson" else random_vector_field
        inputs = [draw(rng, n, max_degree=1) for _ in range(3)]
        assert courant.graph_closure_check(kind, data, inputs) == graph_closure_check(kind, data,
                                                                                    inputs)
        s = random_section(rng, n)
        assert courant.graph_residual(kind, data, s) == graph_residual(kind, data, s)

    @pytest.mark.parametrize("name", ["graph_section", "graph_residual"])
    def test_unknown_kind_message(self, name):
        data = TwoForm.from_upper(2, {})
        arg = OneForm.zero(2) if name == "graph_section" else Section.zero(2)
        with pytest.raises(ValueError, match="unknown graph kind 'bogus'"):
            getattr(courant, name)("bogus", data, arg)


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
    compared with the first of the full row-major scan above."""

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_drawn_graphs(self, graph):
        kind, data, inputs = graph
        assert courant.graph_closure_check(kind, data, inputs) == graph_closure_check(kind, data,
                                                                                    inputs)

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_seeded_skew_matrices(self, kind, n):
        witnesses = []
        for seed in range(1, 13):
            rng = Pcg32(seed)
            upper = {(i, j): random_poly(rng, n, 1) for i in range(n) for j in range(i + 1, n)}
            data = (Bivector if kind == "poisson" else TwoForm).from_upper(n, upper)
            inputs = [_sparse_input(rng, n) for _ in range(6)]
            got = courant.graph_closure_check(kind, data, inputs)
            assert got == graph_closure_check(kind, data, inputs)
            witnesses.append(got[1])
        # the data fail often, and not only at the first pair
        assert sum(w is not None for w in witnesses) >= 3
        assert any(w not in (None, (0, 1)) for w in witnesses)


# -- the integer contraction against the dict-accumulating code -----------------------

def _assert_same_terms(got, want):
    """Equal terms, Fraction by Fraction and exponent by exponent, in sorted order."""
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
    assert all(type(c) is Fraction and c != 0 for _, c in got.terms)
    assert all(type(e) is int for m, _ in got.terms for e in m)
    assert list(got.terms) == sorted(got.terms)
    _assert_stored(got)


def _pack(mono):
    """The monomial key of an exponent tuple: 64 bits per variable, variable 0 highest."""
    return sum(e << 64 * (len(mono) - 1 - k) for k, e in enumerate(mono))


def _assert_stored(p):
    """den > 0, gcd(den, numerators) = 1, sorted distinct monomial keys, each exponent
    below 2**63, no zero numerator; rebuilt from its terms, p is equal and hashes alike."""
    den, nums = p.den, p.nums
    assert type(den) is int and den > 0
    assert all(type(m) is int and type(c) is int and c != 0 for m, c in nums)
    assert gcd(den, *(c for _, c in nums)) == 1
    keys = [m for m, _ in nums]
    assert keys == sorted(set(keys)) and all(0 <= m < 2 ** (64 * p.nvars) for m in keys)
    monos = [tuple(m >> 64 * (p.nvars - 1 - k) & (2**64 - 1) for k in range(p.nvars)) for m in keys]
    assert all(e < 2**63 for mono in monos for e in mono) and monos == sorted(monos)
    assert keys == [_pack(mono) for mono in monos]
    assert p.terms == tuple((mono, Fraction(c, den)) for mono, (_, c) in zip(monos, nums))
    again = Poly(p.nvars, p.terms[::-1])
    assert again == p and hash(again) == hash(p)


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
                       ref_lie_derivative_one_form(x.vf, y.form))
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
        assert (half.den, half.nums) == (2, ((_pack((1, 1)), 1),))
        _assert_same_terms(half, ref_interior_one_form(xi, OneForm(2, (x2, x1))))
        assert interior_one_form(eta, theta) == x1 * Q(1, M61) + x2 * M61
        for a, b in ((xi, eta), (eta, xi), (xi, xi)):
            _assert_same_terms(courant.vf_bracket(a, b), ref_vf_bracket(a, b))
            x, y = Section(a, theta), Section(b, OneForm(2, b.components))
            _assert_same_terms(courant.courant_bracket(x, y), ref_courant_bracket(x, y))
            _assert_same_terms(courant.dorfman_product(x, y), ref_dorfman_product(x, y))
