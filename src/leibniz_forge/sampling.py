"""Deterministic sampling for checks and fuzzing.

Everything here is driven by a self-contained PCG-32 generator so that a seed
fixes every sampled object bit for bit, independent of Python version or
platform hash state. Samplers draw small rationals (numerators up to 9,
denominators 1..3) to keep exact arithmetic fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TypeVar

from .algebra import StructureAlgebra, direct_sum
from .courant import OneForm, Section
from .linalg import Matrix, Q, Vec
from .poly import Poly

T = TypeVar("T")

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Pcg32:
    """PCG XSH-RR 64/32 with a fixed stream; not for cryptography."""

    def __init__(self, seed: int) -> None:
        self.state = 0
        self._step()
        self.state = (self.state + (seed & _MASK64)) & _MASK64
        self._step()

    def _step(self) -> None:
        self.state = (self.state * _MULT + _INC) & _MASK64

    def next_u32(self) -> int:
        old = self.state
        self._step()
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u32() % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.randrange(len(seq))]

    def rational(self) -> Fraction:
        return Q(self.randint(-9, 9), self.choice((1, 2, 3)))

    def rational_nonzero(self) -> Fraction:
        while True:
            r = self.rational()
            if r != 0:
                return r


# -- linear data --------------------------------------------------------------

def random_vector(rng: Pcg32, dim: int) -> Vec:
    return tuple(rng.rational() for _ in range(dim))


def random_unimodular(rng: Pcg32, dim: int) -> Matrix:
    """Product of integer shears; determinant 1, exact inverse."""
    rows = [[Q(1) if i == j else Q(0) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = Q(rng.randint(-2, 2))
        for k in range(dim):
            rows[i][k] += c * rows[j][k]
    return Matrix(tuple(tuple(r) for r in rows))


# -- algebras -----------------------------------------------------------------

def random_algebra(rng: Pcg32, dim: int) -> StructureAlgebra:
    """Sparse random structure constants; generically not Leibniz."""
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(dim):
            cell: dict[int, Fraction] = {}
            for _ in range(rng.randrange(3)):
                cell[rng.randrange(dim)] = rng.rational_nonzero()
            if cell:
                products[(i, j)] = cell
    return StructureAlgebra.from_products(dim, products, name=f"random{dim}")


def cyclic_nilpotent_leibniz(dim: int) -> StructureAlgebra:
    """e1 . e_k = e_(k+1); every left multiplication is a multiple of one
    nilpotent shift, so the algebra is Leibniz with globally nilpotent lambda."""
    products = {(0, k): {k + 1: Q(1)} for k in range(dim - 1)}
    return StructureAlgebra.from_products(dim, products, name=f"cyclic{dim}")


def random_nilpotent_leibniz(rng: Pcg32, dim: int) -> StructureAlgebra:
    """Cyclic algebra or a split sum, hidden behind a random unimodular basis."""
    if dim >= 4 and rng.randrange(2) == 0:
        left = rng.randint(2, dim - 2)
        base = direct_sum(cyclic_nilpotent_leibniz(left),
                          cyclic_nilpotent_leibniz(dim - left))
    else:
        base = cyclic_nilpotent_leibniz(dim)
    twisted = base.change_basis(random_unimodular(rng, dim))
    return StructureAlgebra(twisted.dim, twisted.c,
                            tuple(f"e{i+1}" for i in range(dim)),
                            f"nilpotent{dim}")


# -- polynomial data ----------------------------------------------------------

def random_poly(rng: Pcg32, nvars: int, max_degree: int = 2,
                max_terms: int = 2, allow_zero: bool = True) -> Poly:
    lo = 0 if allow_zero else 1
    terms = []
    for _ in range(rng.randint(lo, max_terms)):
        expo = [0] * nvars
        for _ in range(rng.randrange(max_degree + 1)):
            expo[rng.randrange(nvars)] += 1
        terms.append((tuple(expo), rng.rational_nonzero()))
    return Poly(nvars, terms)


def random_one_form(rng: Pcg32, nvars: int, max_degree: int = 2) -> OneForm:
    """One random polynomial per variable; a vector field is the same value."""
    return OneForm(nvars, tuple(random_poly(rng, nvars, max_degree)
                                for _ in range(nvars)))


random_vector_field = random_one_form


def random_section(rng: Pcg32, nvars: int, max_degree: int = 2) -> Section:
    return Section(random_vector_field(rng, nvars, max_degree),
                   random_one_form(rng, nvars, max_degree))


@dataclass(frozen=True)
class CourantSamples:
    triples: tuple[tuple[Section, Section, Section], ...]
    funcs: tuple[tuple[Poly, Poly], ...]


def courant_samples(seed: int, nvars: int, count: int,
                    max_degree: int = 2) -> CourantSamples:
    """Section triples plus function pairs from one seeded stream."""
    rng = Pcg32(seed)
    triples = tuple(tuple(random_section(rng, nvars, max_degree) for _ in range(3))
                    for _ in range(count))
    funcs = tuple((random_poly(rng, nvars, max_degree, allow_zero=False),
                   random_poly(rng, nvars, max_degree, allow_zero=False))
                  for _ in range(max(1, count // 4)))
    return CourantSamples(triples, funcs)
