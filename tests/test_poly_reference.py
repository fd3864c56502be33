"""Poly arithmetic against the dict arithmetic kept here.

The references below are the first `Poly.__add__`, `__sub__`, `__mul__`,
`partial`, `courant._dot` and `homotopy_quotient`, up to the renaming of
`self` and of the operators they call: every result is rebuilt through
`Poly.from_dict`, and a sum of k products is k successive additions.
`ref_terms` reads a term list as the constructor's docstring says, and
`ref_contract` writes `poly._contract` as that sum of products. Equal `terms`
tuples (`Fraction` coefficients, `int` exponents, sorted order) and the same
errors, on drawn polynomials, raw term lists, cancelling sums, zero operands,
variable-count mismatches and seeded Courant samples, pin the behaviour.

Every result is also checked in its stored form: one positive denominator,
integer numerators in lowest terms over it, sorted packed monomial keys, no
zero term. Coefficients with large coprime denominators, and sums whose
denominators cancel, exercise the integer arithmetic behind that form.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from fractions import Fraction as Q
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import OneForm, Poly, courant_samples, homotopy_quotient
from leibniz_forge.courant import _dot
from leibniz_forge.poly import _contract
from leibniz_forge.linalg import as_q


# -- references -----------------------------------------------------------------

def ref_terms(nvars, terms):
    """The sorted nonzero (exponent tuple, Fraction) pairs of a term list; repeats add up."""
    d = {}
    for mono, coeff in terms:
        if len(mono) != nvars or any(not isinstance(e, int) or isinstance(e, bool) or e < 0
                                     for e in mono):
            raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
        d[tuple(mono)] = d.get(tuple(mono), Q(0)) + as_q(coeff)
    return tuple(sorted((m, c) for m, c in d.items() if c))


def require_same(p, q):
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")


def ref_add(self, other):
    require_same(self, other)
    d = dict(self.terms)
    for mono, coeff in other.terms:
        d[mono] = d.get(mono, Q(0)) + coeff
    return Poly.from_dict(self.nvars, d)


def ref_sub(self, other):
    return ref_add(self, -other)


def ref_mul(self, other):
    if isinstance(other, Poly):
        require_same(self, other)
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = tuple(a + b for a, b in zip(m1, m2))
                d[mono] = d.get(mono, Q(0)) + c1 * c2
        return Poly.from_dict(self.nvars, d)
    c = as_q(other)
    if c == 0:
        return Poly.zero(self.nvars)
    return Poly(self.nvars, tuple((m, c * co) for m, co in self.terms))


def ref_partial(self, i):
    if not 0 <= i < self.nvars:
        raise ValueError(f"variable index {i} out of range")
    d = {}
    for mono, coeff in self.terms:
        e = mono[i]
        if e == 0:
            continue
        lowered = tuple(x - 1 if j == i else x for j, x in enumerate(mono))
        d[lowered] = d.get(lowered, Q(0)) + coeff * e
    return Poly.from_dict(self.nvars, d)


def ref_dot(nvars, ps, qs):
    out = Poly.zero(nvars)
    for p, q in zip(ps, qs):
        out = ref_add(out, ref_mul(p, q))
    return out


def ref_contract(nvars, items):
    """sum w a d_i b over the items (w, a, b, i), i None for the plain product a b."""
    for _, a, b, _ in items:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("variable count mismatch")
    out = Poly.zero(nvars)
    for w, a, b, i in items:
        out = ref_add(out, ref_mul(ref_mul(a, b if i is None else ref_partial(b, i)), w))
    return out


def ref_homotopy_quotient(theta):
    n = theta.nvars
    potential = Poly.zero(n)
    for i, comp in enumerate(theta.components):
        for mono, coeff in comp.terms:
            lifted = tuple(e + 1 if j == i else e for j, e in enumerate(mono))
            potential = ref_add(potential, Poly.monomial(n, lifted, coeff * Q(1, sum(mono) + 1)))
    rep = tuple(ref_sub(c, ref_partial(potential, i)) for i, c in enumerate(theta.components))
    return OneForm(n, rep), potential


# -- comparison -----------------------------------------------------------------

def outcome(fn, *args):
    """("ok", value) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except (ValueError, TypeError, IndexError) as exc:
        return ("error", type(exc), str(exc))


def pack(mono):
    """The monomial key of an exponent tuple: 64 bits per variable, variable 0 highest."""
    return sum(e << 64 * (len(mono) - 1 - k) for k, e in enumerate(mono))


def unpack(nvars, key):
    return tuple(key >> 64 * (nvars - 1 - k) & (2**64 - 1) for k in range(nvars))


def assert_stored(p):
    """den > 0, gcd(den, numerators) = 1, sorted distinct monomial keys, each exponent
    below 2**63, no zero numerator; terms reads the same value, and rebuilding from it
    gives an equal, equally hashed Poly."""
    den, nums = p.den, p.nums
    assert type(den) is int and den > 0
    assert all(type(m) is int and type(c) is int and c != 0 for m, c in nums)
    assert gcd(den, *(c for _, c in nums)) == 1
    keys = [m for m, _ in nums]
    assert keys == sorted(set(keys)) and all(0 <= m < 2 ** (64 * p.nvars) for m in keys)
    monos = [unpack(p.nvars, m) for m in keys]
    assert all(e < 2**63 for mono in monos for e in mono) and monos == sorted(monos)
    assert keys == [pack(mono) for mono in monos]
    assert p.terms == tuple((mono, Fraction(c, den)) for mono, (_, c) in zip(monos, nums))
    again = Poly(p.nvars, p.terms[::-1])
    assert again == p and hash(again) == hash(p)


def assert_exact(p):
    assert all(type(c) is Fraction and c != 0 for _, c in p.terms)
    assert all(type(e) is int for m, _ in p.terms for e in m)
    assert list(p.terms) == sorted(p.terms)
    assert_stored(p)


def assert_same(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    assert got[1].nvars == want[1].nvars and got[1].terms == want[1].terms
    assert_exact(got[1])


def assert_same_quotient(theta):
    got, want = outcome(homotopy_quotient, theta), outcome(ref_homotopy_quotient, theta)
    assert got[0] == want[0] == "ok"
    (rep, pot), (ref_rep, ref_pot) = got[1], want[1]
    assert pot.terms == ref_pot.terms
    assert [c.terms for c in rep.components] == [c.terms for c in ref_rep.components]
    for p in (pot, *rep.components):
        assert_exact(p)


# -- drawn data -------------------------------------------------------------------

# few monomials and coefficients that cancel, so sums often drop terms or vanish
COEFFS = st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3, 4)])
# large coprime denominators, and thirds and sixths whose sums cancel denominators
M61 = 2**61 - 1
BIG_COEFFS = st.sampled_from([Q(10**30, 7), Q(-10**30, 7), Q(1, M61), Q(-3, M61), Q(M61, 10**30),
                              Q(1, 6), Q(1, 3), Q(-1, 2), Q(5, 6)])


@cache  # one strategy object per argument: building one costs more than a draw
def polys(n, max_size=4, coeffs=COEFFS):
    monos = st.tuples(*[st.integers(0, 2)] * n)
    return st.dictionaries(monos, coeffs, max_size=max_size).map(lambda d: Poly.from_dict(n, d))


@st.composite
def pairs(draw, coeffs=COEFFS):
    """Two polynomials over the same variables, or over different counts one time in five."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3)) if draw(st.integers(0, 4)) == 0 else n
    return draw(polys(n, coeffs=coeffs)), draw(polys(m, coeffs=coeffs))


@st.composite
def dot_inputs(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    ps = [draw(polys(n, 3)) for _ in range(k)]
    qs = [draw(polys(n, 3)) for _ in range(k)]
    if k and draw(st.booleans()):
        ps.append(-ps[0])  # this product cancels the first one
        qs.append(qs[0])
    if k and draw(st.integers(0, 4)) == 0:
        qs[-1] = draw(polys(n % 3 + 1, 2))
    nvars = n if draw(st.integers(0, 5)) else n % 3 + 1
    return nvars, ps, qs


@st.composite
def one_forms(draw):
    n = draw(st.integers(1, 3))
    return OneForm(n, tuple(draw(polys(n)) for _ in range(n)))


class TestArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_add_sub_mul(self, ab):
        a, b = ab
        for x, y in ((a, b), (b, a), (a, a)):
            assert_same(Poly.__add__, ref_add, x, y)
            assert_same(Poly.__sub__, ref_sub, x, y)
            assert_same(Poly.__mul__, ref_mul, x, y)

    @settings(max_examples=80, deadline=None)
    @given(pairs(), COEFFS | st.integers(-3, 3))
    def test_cancelling_sums_and_scalars(self, ab, c):
        a, _ = ab
        zero = Poly.zero(a.nvars)
        assert_same(Poly.__add__, ref_add, a, -a)
        assert_same(Poly.__sub__, ref_sub, a, a)
        assert_same(Poly.__mul__, ref_mul, a, zero)
        assert_same(Poly.__mul__, ref_mul, zero, a)
        assert_same(Poly.__add__, ref_add, zero, zero)
        assert_same(Poly.__mul__, ref_mul, a, c)
        assert (a - a).terms == () and (a + (-a)).terms == ()

    @settings(max_examples=80, deadline=None)
    @given(pairs(), st.integers(-1, 3))
    def test_partial(self, ab, i):
        for p in ab:
            assert_same(Poly.partial, ref_partial, p, i)

    @settings(max_examples=120, deadline=None)
    @given(dot_inputs())
    def test_dot(self, data):
        nvars, ps, qs = data
        assert_same(_dot, ref_dot, nvars, ps, qs)

    @settings(max_examples=60, deadline=None)
    @given(one_forms())
    def test_homotopy_quotient(self, theta):
        assert_same_quotient(theta)

    def test_unequal_variable_counts_raise(self):
        a, b = Poly.var(2, 0), Poly.var(3, 0)
        for fn, ref in ((Poly.__add__, ref_add), (Poly.__sub__, ref_sub), (Poly.__mul__, ref_mul)):
            assert outcome(fn, a, b) == outcome(ref, a, b) == ("error", ValueError, "variable count mismatch")
        assert outcome(_dot, 3, [a], [a]) == outcome(ref_dot, 3, [a], [a])
        assert outcome(_dot, 3, [a], [a])[0] == "error"


class TestStoredForm:
    @settings(max_examples=120, deadline=None)
    @given(pairs(BIG_COEFFS), BIG_COEFFS)
    def test_large_coprime_denominators(self, ab, c):
        a, b = ab
        for x, y in ((a, b), (b, a), (a, a)):
            assert_same(Poly.__add__, ref_add, x, y)
            assert_same(Poly.__sub__, ref_sub, x, y)
            assert_same(Poly.__mul__, ref_mul, x, y)
        assert_same(Poly.__mul__, ref_mul, a, c)
        for i in range(a.nvars):
            assert_same(Poly.partial, ref_partial, a, i)
        if a.nvars == b.nvars:
            assert_same(_dot, ref_dot, a.nvars, [a, b, -a], [b, a, b])

    @settings(max_examples=60, deadline=None)
    @given(pairs(BIG_COEFFS), pairs())
    def test_equal_values_hash_alike(self, ab, pq):
        (a, b), (p, _) = ab, pq
        for x in (a, p):
            for same in (x * Q(2) * Q(1, 2), -(-x), x * Q(10**30, 7) * Q(7, 10**30),
                         Poly(x.nvars, x.terms[::-1]), Poly.from_dict(x.nvars, dict(x.terms))):
                assert same == x and hash(same) == hash(x)
                assert_stored(same)
        if a.nvars == b.nvars:
            assert (a + b) - b == a and hash((a + b) - b) == hash(a)

    def test_cancelling_denominators(self):
        sixth, third = Poly.const(1, Q(1, 6)), Poly.const(1, Q(1, 3))
        half = sixth + third
        assert (half.den, half.nums) == (2, ((pack((0,)), 1),))
        assert half.terms == ref_add(sixth, third).terms == (((0,), Q(1, 2)),)
        x = Poly.var(2, 0)
        s = x * Q(1, 6) + x * Q(5, 6) - Poly.const(2, Q(1, M61)) * M61
        assert (s.den, s.nums) == (1, ((pack((0, 0)), -1), (pack((1, 0)), 1)))
        assert_same(Poly.__sub__, ref_sub, x * Q(1, 6) + x * Q(5, 6), Poly.const(2, 1))
        for zero in (x * Q(1, M61) - x * Q(1, M61), Poly.const(2, Q(10**30, 7)) * 0):
            assert (zero.den, zero.nums) == (1, ()) and zero == Poly.zero(2)
        assert (x * x * Q(3, 2)).partial(0).terms == (((1, 0), Q(3)),)
        assert (x * x * Q(3, 2)).partial(0).den == 1


# -- construction, zero operands and contractions -----------------------------------

@cache  # one strategy object per argument: building one costs more than a draw
def sometimes_zero(n, coeffs=COEFFS):
    """A polynomial that is zero about one time in three."""
    return st.one_of(st.just(Poly.zero(n)), polys(n, 3, coeffs), polys(n, 3, coeffs))


RAW_MONOS = st.lists(st.integers(-1, 3) | st.sampled_from([True, 2**40]), min_size=0, max_size=4)
RAW_COEFFS = COEFFS | BIG_COEFFS | st.integers(-2, 2)


@st.composite
def raw_terms(draw):
    """Outside input: monomials of any length with bad or repeated exponents now and then."""
    n = draw(st.integers(0, 3))
    good = st.tuples(*[st.integers(0, 2)] * n)
    monos = st.one_of(good, good, good, RAW_MONOS.map(tuple)) if draw(st.integers(0, 3)) == 0 else good
    return n, draw(st.lists(st.tuples(monos, RAW_COEFFS), max_size=5))


@st.composite
def contract_items(draw, coeffs=COEFFS):
    """(nvars, items) for _contract, with zero operands, weights that cancel, and now
    and then an operand over another variable count."""
    n = draw(st.integers(1, 3))
    items = []
    for _ in range(draw(st.integers(0, 5))):
        w = draw(st.sampled_from([1, -1, Q(1, 2), Q(-1, 2), Q(3, 7)]))
        a, b = draw(sometimes_zero(n, coeffs)), draw(sometimes_zero(n, coeffs))
        if draw(st.integers(0, 9)) == 0:
            a, b = (draw(sometimes_zero(n % 3 + 1)), b) if draw(st.booleans()) else (a, Poly.zero(n % 3 + 1))
        items.append((w, a, b, draw(st.none() | st.integers(0, n - 1))))
    if items and draw(st.booleans()):
        w, a, b, i = items[0]
        items.append((-w, a, b, i))  # cancels the first item
    return n, items


class TestPackedKeys:
    @settings(max_examples=150, deadline=None)
    @given(raw_terms())
    def test_construction(self, data):
        n, terms = data
        got, want = outcome(Poly, n, terms), outcome(ref_terms, n, terms)
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got == want
            return
        p = got[1]
        assert p.nvars == n and p.terms == want[1]
        assert_exact(p)
        assert_same(Poly.from_dict, lambda n, d: Poly(n, ref_terms(n, d.items())), n, dict(terms))
        assert repr(p) == f"Poly(nvars={n}, terms={want[1]!r})"
        again = pickle.loads(pickle.dumps(p))
        assert again == p and hash(again) == hash(p) and again.terms == p.terms
        assert p.constant_term() == dict(want[1]).get((0,) * n, Q(0))

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.integers(-1, 3), COEFFS | st.integers(-2, 2))
    def test_arithmetic(self, ab, i, c):
        for x, y in (ab, ab[::-1], (ab[0], Poly.zero(ab[0].nvars)), (Poly.zero(ab[1].nvars), ab[1])):
            for fn, ref in ((Poly.__add__, ref_add), (Poly.__sub__, ref_sub), (Poly.__mul__, ref_mul)):
                assert_same(fn, ref, x, y)
            assert_same(Poly.__neg__, lambda p: ref_mul(p, -1), x)
            assert_same(Poly.__mul__, ref_mul, x, c)
            assert_same(Poly.partial, ref_partial, x, i)
            assert x.constant_term() == dict(x.terms).get((0,) * x.nvars, Q(0))

    @settings(max_examples=150, deadline=None)
    @given(contract_items())
    def test_contract(self, data):
        assert_same(_contract, ref_contract, *data)

    @settings(max_examples=80, deadline=None)
    @given(contract_items(BIG_COEFFS), pairs(BIG_COEFFS))
    def test_large_denominators(self, data, ab):
        assert_same(_contract, ref_contract, *data)
        for fn, ref in ((Poly.__add__, ref_add), (Poly.__sub__, ref_sub), (Poly.__mul__, ref_mul)):
            assert_same(fn, ref, *ab)

    def test_zero_operands_and_mismatches(self):
        """A zero operand is skipped only after its variable count is checked."""
        z2, z3, x = Poly.zero(2), Poly.zero(3), Poly.var(2, 0)
        for items in ([(1, z2, z3, None)], [(1, z3, x, 0)], [(1, x, z2, 1), (1, z2, z3, None)],
                      [(1, x, z2, None)], [], [(1, z2, x, 1)], [(1, x, x, 1)]):
            assert_same(_contract, ref_contract, 2, items)
        for p, q in ((z2, z3), (z3, z2), (x, z3), (z3, x), (z2, x), (x, z2), (z2, z2)):
            for fn, ref in ((Poly.__add__, ref_add), (Poly.__sub__, ref_sub), (Poly.__mul__, ref_mul)):
                assert_same(fn, ref, p, q)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("seed", [1, 7, 1009])
def test_courant_samples(seed, nvars):
    samples = courant_samples(seed, nvars, 4)
    for x, y, z in samples.triples:
        a = x.vf.components + x.form.components
        b = y.vf.components + y.form.components
        for p, q in zip(a, b):
            for fn, ref in ((Poly.__add__, ref_add), (Poly.__sub__, ref_sub), (Poly.__mul__, ref_mul)):
                assert_same(fn, ref, p, q)
            for i in range(nvars):
                assert_same(Poly.partial, ref_partial, p, i)
        assert_same(_dot, ref_dot, nvars, x.vf.components, y.form.components)
        assert_same(_dot, ref_dot, nvars, a, b[::-1])
        assert_same(_dot, ref_dot, nvars, a + a, b + tuple(-q for q in b))  # sums to zero
        assert_same_quotient(x.form)
        assert_same_quotient(OneForm(nvars, tuple(y.vf.components)))
    for f, g in samples.funcs:
        assert_same(Poly.__mul__, ref_mul, f, g)
        exact = OneForm(nvars, tuple(ref_partial(f, i) for i in range(nvars)))
        assert_same_quotient(exact)
        assert all(c.is_zero() for c in homotopy_quotient(exact)[0].components)
