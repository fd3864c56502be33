"""Sparse multivariate polynomials over the rationals.

A Poly is stored as the tuple (nvars, den, nums): the variable count, one
positive common denominator, and the sorted (monomial key, integer numerator)
pairs, none zero, with gcd(den, every numerator) = 1. So equal polynomials are
equal tuples and hash alike. A monomial key packs the exponent tuple into one
int, 64 bits per variable with variable 0 in the most significant field: int
order is the lex order of exponent tuples, a product of monomials is a sum of
keys, and every exponent is below 2**63, so a sum never carries into the next
field. `terms` reads the same value as sorted (exponent tuple, Fraction) pairs.
Poly(nvars, terms) and from_dict validate outside input; the arithmetic builds
its results in the stored form with integer merges and one gcd pass, skipping
zero operands. The variable count is enforced on every operation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_
from struct import pack, unpack
from typing import Iterable, Mapping

from .linalg import Q, Scalar, as_q

Monomial = tuple[int, ...]
_BITS, _MASK, _TOP = 64, (1 << 64) - 1, 1 << 63  # one key field, and the bound on an exponent


class Poly(tuple):
    __slots__ = ()
    nvars, den, nums = (property(itemgetter(k)) for k in range(3))

    def __new__(cls, nvars: int, terms: Iterable[tuple[Monomial, Scalar]]) -> "Poly":
        """Validated: exponent tuples of length nvars, exact coefficients; repeats add up."""
        clean: dict[int, Fraction] = {}
        for mono, coeff in terms:
            if len(mono) != nvars or any(not isinstance(e, int) or isinstance(e, bool)
                                         or not 0 <= e < _TOP for e in mono):
                raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
            key, c = int.from_bytes(pack(f">{nvars}Q", *mono), "big"), as_q(coeff)
            clean[key] = clean[key] + c if key in clean else c
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
        n, den, nums = self
        return tuple((_unpack(n, m), Fraction(c, den)) for m, c in nums)

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
        return _new(Poly, (nvars, 1, ((1 << _BITS * (nvars - 1 - i), 1),)))

    @staticmethod
    def monomial(nvars: int, mono: Monomial, coeff: Scalar) -> "Poly":
        return Poly(nvars, ((mono, coeff),))

    def is_zero(self) -> bool:
        return not self[2]

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
        shift = _BITS * (n - 1 - i)
        step = 1 << shift
        return _reduced(n, den, [(m - step, c * e) for m, c in nums if (e := m >> shift & _MASK)])

    def constant_term(self) -> Fraction:
        _, den, nums = self  # the zero key sorts first
        return Fraction(nums[0][1], den) if nums and not nums[0][0] else Q(0)


_new, _second = tuple.__new__, itemgetter(1)  # _new(Poly, (nvars, den, nums)): no checks


def _unpack(nvars: int, key: int) -> Monomial:
    return unpack(f">{nvars}Q", key.to_bytes(8 * nvars, "big"))


def _reduced(nvars: int, den: int, nums: list) -> Poly:
    """A Poly from sorted nonzero (key, numerator) pairs over den > 0, in lowest terms."""
    g = gcd(den, *map(_second, nums)) if den != 1 else 1
    if g != 1:
        den, nums = den // g, [(m, c // g) for m, c in nums]
    return _new(Poly, (nvars, den, tuple(nums)))


def _merge(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign q, merged over the lcm of the two denominators; a zero side is skipped."""
    (n, pd, pt), (nq, qd, qt) = p, q
    if n != nq:
        raise ValueError("variable count mismatch")
    if not qt:
        return p
    if not pt:
        return q if sign == 1 else -q
    den = lcm(pd, qd)
    sp, sq = den // pd, sign * (den // qd)
    acc = dict(pt) if sp == 1 else {m: c * sp for m, c in pt}
    for m, c in qt:
        acc[m] = acc[m] + c * sq if m in acc else c * sq
    return _reduced(n, den, sorted(filter(_second, acc.items())))


def _contract(nvars: int, items: Iterable[tuple]) -> Poly:
    """sum w a d_i b over the items (w, a, b, i), i None for the plain product a b:
    integer sums over the lcm of the denominators of the items with no zero operand.
    Each item's variable count is checked before a zero operand skips it."""
    parts, den, top = [], 1, _BITS * (nvars - 1)
    for w, (na, ad, at), (nb, bd, bt), i in items:
        if na != nvars or nb != nvars:
            raise ValueError("variable count mismatch")
        if at and bt:
            if i is not None:  # lower exponent i, as Poly.partial does
                shift = top - _BITS * i
                step = 1 << shift
                if not (bt := [(m - step, c * e) for m, c in bt if (e := m >> shift & _MASK)]):
                    continue
            d = w.denominator * ad * bd
            parts.append((w.numerator, d, at, bt))
            den = lcm(den, d)
    if not parts:
        return _new(Poly, (nvars, 1, ()))
    acc: dict[int, int] = {}
    for wn, d, at, bt in parts:
        scale = wn * (den // d)
        for ma, ca in at:
            ca *= scale
            for mb, cb in bt:
                mono = ma + mb
                acc[mono] = acc[mono] + ca * cb if mono in acc else ca * cb
    nums = sorted(filter(_second, acc.items()))
    guard = int.from_bytes(b"\x80\0\0\0\0\0\0\0" * nvars, "big")  # the top bit of each field
    if reduce(or_, acc) & guard and (bad := [m for m, _ in nums if m & guard]):
        raise ValueError(f"bad exponent tuple {_unpack(nvars, bad[0])!r} for {nvars} variables")
    return _reduced(nvars, den, nums)
