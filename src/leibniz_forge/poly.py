"""Sparse multivariate polynomials over the rationals.

A Poly is stored as the tuple (nvars, den, nums): the variable count, one
positive common denominator, and the sorted (exponent tuple, integer numerator)
pairs, none zero, with gcd(den, every numerator) = 1. So equal polynomials are
equal tuples and hash alike. `terms` reads the same value as sorted
(exponent tuple, Fraction) pairs. Poly(nvars, terms) and from_dict validate
outside input; the arithmetic builds its results in the stored form with integer
merges and one gcd pass. The variable count is enforced on every operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from typing import Iterable, Mapping

from .linalg import Q, Scalar, as_q

Monomial = tuple[int, ...]


class Poly(tuple):
    __slots__ = ()
    nvars, den, nums = (property(itemgetter(k)) for k in range(3))

    def __new__(cls, nvars: int, terms: Iterable[tuple[Monomial, Scalar]]) -> "Poly":
        """Validated: exponent tuples of length nvars, exact coefficients; repeats add up."""
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            if len(mono) != nvars or any(not isinstance(e, int) or isinstance(e, bool) or e < 0
                                         for e in mono):
                raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
            mono, c = tuple(mono), as_q(coeff)
            clean[mono] = clean[mono] + c if mono in clean else c
        pairs = [(m, c.as_integer_ratio()) for m, c in sorted(clean.items())]
        den = lcm(*(d for _, (_, d) in pairs))
        return _new(Poly, (nvars, den, tuple((m, n * (den // d)) for m, (n, d) in pairs if n)))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through __new__
        return self.nvars, self.terms

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={self.terms!r})"

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """The sorted (exponent tuple, nonzero Fraction) pairs, made on each read."""
        _, den, nums = self
        return tuple((m, Fraction(c, den)) for m, c in nums)

    @staticmethod
    def from_dict(nvars: int, d: Mapping[Monomial, Fraction | int]) -> "Poly":
        return Poly(nvars, d.items())

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _new(Poly, (nvars, 1, ()))

    @staticmethod
    def const(nvars: int, c: Scalar) -> "Poly":
        return Poly(nvars, (((0,) * nvars, c),))

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        return _new(Poly, (nvars, 1, ((tuple(int(j == i) for j in range(nvars)), 1),)))

    @staticmethod
    def monomial(nvars: int, mono: Monomial, coeff: Scalar) -> "Poly":
        return Poly(nvars, ((mono, coeff),))

    def is_zero(self) -> bool:
        return not self[2]

    def _require_same(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        return _merge(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return _merge(self, other, -1)

    def __neg__(self) -> "Poly":
        n, den, nums = self
        return _new(Poly, (n, den, tuple((m, -c) for m, c in nums)))

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            return _contract(self.nvars, [(1, self, other, None)])
        (cn, cd), (n, den, nums) = as_q(other).as_integer_ratio(), self
        return _reduced(n, den * cd, [(m, x * cn) for m, x in nums if cn])

    __rmul__ = __mul__

    def partial(self, i: int) -> "Poly":
        """Partial derivative in variable i; lowering exponent i keeps the sorted order."""
        n, den, nums = self
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range")
        return _reduced(n, den, [(m[:i] + (e - 1,) + m[i + 1:], c * e)
                                 for m, c in nums if (e := m[i])])

    def constant_term(self) -> Fraction:
        _, den, nums = self  # the zero exponent tuple sorts first
        return Fraction(nums[0][1], den) if nums and not any(nums[0][0]) else Q(0)


_new, _second = tuple.__new__, itemgetter(1)  # _new(Poly, (nvars, den, nums)): no checks


def _reduced(nvars: int, den: int, nums: list) -> Poly:
    """A Poly from sorted nonzero (monomial, numerator) pairs over den > 0, in lowest terms."""
    g = gcd(den, *map(_second, nums)) if den != 1 else 1
    if g != 1:
        den, nums = den // g, [(m, c // g) for m, c in nums]
    return _new(Poly, (nvars, den, tuple(nums)))


def _merge(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign q, merged over the lcm of the two denominators."""
    (n, pd, pt), (nq, qd, qt) = p, q
    if n != nq:
        raise ValueError("variable count mismatch")
    den = lcm(pd, qd)
    sp, sq = den // pd, sign * (den // qd)
    acc = dict(pt) if sp == 1 else {m: c * sp for m, c in pt}
    for m, c in qt:
        acc[m] = acc[m] + c * sq if m in acc else c * sq
    return _reduced(n, den, [(m, c) for m, c in sorted(acc.items()) if c])


def _contract(nvars: int, items: Iterable[tuple]) -> Poly:
    """sum w a d_i b over the items (w, a, b, i), i None for the plain product a b:
    integer sums over the lcm of the items' denominators."""
    parts, den = [], 1
    for w, (na, ad, at), (nb, bd, bt), i in items:
        if na != nvars or nb != nvars:
            raise ValueError("variable count mismatch")
        if i is not None:
            bt = [(m[:i] + (e - 1,) + m[i + 1:], c * e) for m, c in bt if (e := m[i])]
        if at and bt:
            parts.append((w.numerator, w.denominator * ad * bd, at, bt))
            den = lcm(den, parts[-1][1])
    acc: dict[Monomial, int] = {}
    for wn, d, at, bt in parts:
        scale = wn * (den // d)
        for ma, ca in at:
            ca *= scale
            for mb, cb in bt:
                mono = tuple(map(add, ma, mb))
                acc[mono] = acc[mono] + ca * cb if mono in acc else ca * cb
    return _reduced(nvars, den, [(m, c) for m, c in sorted(acc.items()) if c])
