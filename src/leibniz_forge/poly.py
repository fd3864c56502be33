"""Sparse multivariate polynomials over the rationals.

Terms map exponent tuples to nonzero Fraction coefficients; the stored term
list is sorted, so equal polynomials are equal values. The variable count is
fixed per polynomial and enforced on every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping

from .linalg import Q, Scalar, as_q

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Poly:
    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(nvars: int, d: Mapping[Monomial, Fraction | int]) -> "Poly":
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in d.items():
            if len(mono) != nvars or any(not isinstance(e, int) or isinstance(e, bool) or e < 0
                                         for e in mono):
                raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
            c = as_q(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        return Poly(nvars, tuple(sorted(clean.items())))

    @staticmethod
    def _trusted(nvars: int, d: dict[Monomial, Fraction]) -> "Poly":
        """A Poly from a dict built by this class: valid exponents, Fraction coefficients."""
        return Poly(nvars, tuple(sorted((m, c) for m, c in d.items() if c)))

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, ())

    @staticmethod
    def const(nvars: int, c: Scalar) -> "Poly":
        return Poly.from_dict(nvars, {(0,) * nvars: as_q(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, ((mono, Q(1)),))

    @staticmethod
    def monomial(nvars: int, mono: Monomial, coeff: Scalar) -> "Poly":
        return Poly.from_dict(nvars, {tuple(mono): as_q(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same(other)
        d = dict(self.terms)
        for mono, coeff in other.terms:
            d[mono] = d[mono] + coeff if mono in d else coeff
        return Poly._trusted(self.nvars, d)

    def __sub__(self, other: "Poly") -> "Poly":
        self._require_same(other)
        d = dict(self.terms)
        for mono, coeff in other.terms:
            d[mono] = d[mono] - coeff if mono in d else -coeff
        return Poly._trusted(self.nvars, d)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            n = self.nvars
            return _contract(n, [(1, _ints(self, n), _ints(other, n), None)])
        c = as_q(other)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((m, c * co) for m, co in self.terms))

    def __rmul__(self, other: Scalar) -> "Poly":
        return self * other

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i.

        Lowering exponent i is one-to-one and keeps the sorted order, so each
        lowered monomial is written once, already in place."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        return Poly(self.nvars, tuple((mono[:i] + (e - 1,) + mono[i + 1:], coeff * e)
                                      for mono, coeff in self.terms if (e := mono[i])))

    def constant_term(self) -> Fraction:
        for mono, coeff in self.terms:
            if all(e == 0 for e in mono):
                return coeff
        return Q(0)


def _ints(p: Poly, nvars: int) -> tuple[list[tuple[Monomial, int]], int]:
    """p as (monomial, integer numerator) pairs over the lcm of its denominators."""
    if p.nvars != nvars:
        raise ValueError("variable count mismatch")
    den = lcm(*(c.denominator for _, c in p.terms))
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms], den


def _contract(nvars: int, items: Iterable[tuple]) -> Poly:
    """sum w a d_i b over the items (w, a, b, i), i None for the plain product a b:
    integer sums over the lcm of the items' denominators, one Fraction per term."""
    parts, den = [], 1
    for w, (at, ad), (bt, bd), i in items:
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
    return Poly(nvars, tuple((m, Fraction(c, den)) for m, c in sorted(acc.items()) if c))
