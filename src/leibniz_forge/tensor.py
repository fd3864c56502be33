"""Sparse view of a structure tensor and the identities checked over it.

A structure tensor of arity r maps r basis indices to a vector: the binary
product (i, j) -> e_i . e_j, the ternary bracket (i, j, k) -> {e_i, e_j, e_k},
an action (a, k) -> rho(e_a) e_k. SparseTensor keeps only the nonzero
coefficients, key -> {output index: coefficient}, so every contraction and
every check costs in proportion to them; omni structure constants, for
example, are 7.4 % nonzero for d = 2 and 3.3 % for d = 3. The walk skips, unread,
every cell that is the first all-zero cell: `materialize` shares one per tensor.

An identity is a sum of signed terms, each a tensor applied to basis
variables, at most one argument being another tensor applied to variables:
the left Leibniz identity on basis triples reads

    ("ijk", [(1, c, "i*", c, "jk"), (-1, c, "*k", c, "ij"), (-1, c, "j*", c, "ik")])

for e_i (e_j e_k) - (e_i e_j) e_k - e_j (e_i e_k), with "*" marking where the
inner value goes. first_failure walks the leading variable in order, builds
that slice's residual from the nonzero entries alone, and returns the least
failing tuple of the first failing slice: the lexicographically first
failing basis tuple, as a dense scan would report it, without scanning past
it.

Scans add integers: `scaled` holds a tensor's numerators over its lcm
denominator (1 when empty), and each term is brought to the identity's common
denominator, so no sum takes a gcd. Public values stay Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .linalg import _clear

Cell = dict[int, Fraction]
Residual = dict[tuple[int, ...], dict[int, int]]
# (sign, outer, outer variables) or
# (sign, outer, outer variables with one "*", inner, inner variables); sign is an integer weight
Term = Union[tuple[int, "SparseTensor", str],
             tuple[int, "SparseTensor", str, "SparseTensor", str]]


class SparseTensor:
    """Nonzero cells of a dense nested-tuple tensor of the given arity."""

    def __init__(self, dense: Sequence, arity: int) -> None:
        self.arity = arity
        self.dim = len(dense)
        self._groups: dict[tuple[tuple[int, ...], bool], dict] = {}
        rows: list[tuple[tuple[int, ...], Sequence]] = [((), dense)]
        for _ in range(arity - 1):
            rows = [(key + (i,), sub) for key, t in rows for i, sub in enumerate(t)]
        zero = next((cell for _, row in rows for cell in row if not any(cell)), None)
        self.entries: dict[tuple[int, ...], Cell] = {
            key + (i,): {k: x for k, x in enumerate(cell) if x}
            for key, row in rows for i, cell in enumerate(row) if cell is not zero and any(cell)}
        shape = []  # axis lengths read along the first cells; an empty axis hides the rest
        for _ in range(arity):
            shape.append(len(dense))
            dense = dense[0] if dense else ()
        self.shape, self.out_dim = tuple(shape), len(dense)

    @cached_property
    def scaled(self) -> tuple[dict[tuple[int, ...], dict[int, int]], int]:
        """(cells, den): the entries as integer numerators over den, their lcm denominator."""
        nums, den = _clear([x for cell in self.entries.values() for x in cell.values()])
        it = iter(nums)
        return {key: {m: next(it) for m in cell} for key, cell in self.entries.items()}, den

    def group(self, positions: tuple[int, ...], scaled: bool = False) -> dict:
        """Entries, or the scaled cells, by the indices at `positions`, each list in key order."""
        g = self._groups.get((positions, scaled))
        if g is None:
            g = self._groups[positions, scaled] = {}
            for key, cell in (self.scaled[0] if scaled else self.entries).items():
                g.setdefault(tuple([key[p] for p in positions]), []).append((key, cell))
        return g

    def contract(self, *args) -> tuple:
        """sum over entries of prod(args[p][key[p]]) * cell.

        An int argument i stands for the basis vector e_i and selects the
        entries with that index instead of multiplying by it; at least one
        argument is a vector, as long as its axis.
        """
        if any(len(a) != n for a, n in zip(args, self.shape) if not isinstance(a, int)):
            raise ValueError("vector length does not match the dimension")
        fixed = tuple(p for p, a in enumerate(args) if isinstance(a, int))
        (p0, a0), *free = [(p, a) for p, a in enumerate(args) if not isinstance(a, int)]
        entries = (self.group(fixed).get(tuple(args[p] for p in fixed), ())
                   if fixed else self.entries.items())
        out = [Fraction(0)] * self.out_dim
        for key, cell in entries:
            f = a0[key[p0]]
            for p, a in free:
                if not f:
                    break
                f *= a[key[p]]
            if f:
                for m, x in cell.items():
                    out[m] += f * x
        return tuple(out)


def materialize(dim: int, arity: int, cells: Mapping[tuple[int, ...], Cell]) -> tuple:
    """Dense nested tuples over Q^dim with these cells; zero cells and rows are shared."""
    zero, level = Fraction(0), {key + (k,): x for key, cell in cells.items()
                                if any(cell.values()) for k, x in cell.items()}
    for _ in range(arity + 1):  # entries into cells, then cells into rows, up to the tensor
        rows: dict[tuple[int, ...], list] = {}
        for key, x in level.items():
            rows.setdefault(key[:-1], [zero] * dim)[key[-1]] = x
        level, zero = {key: tuple(row) for key, row in rows.items()}, (zero,) * dim
    return level.get((), zero)


def _add(res: dict, key: tuple[int, ...], cell: Mapping, f) -> None:
    """res[key] += f * cell, over int or Fraction values"""
    r = res.get(key)
    if r is None:
        res[key] = {m: f * x for m, x in cell.items()}
        return
    for m, x in cell.items():
        r[m] = r.get(m, 0) + f * x


def residual(variables: str, i: int, terms: Sequence[Term]) -> Residual:
    """The identity's value at every basis tuple whose leading variable is i,
    keyed by the values of the other variables (zero keys may be absent), times
    L: term t is scaled by L / (den_outer * den_inner), L the lcm over the terms."""
    lead, rest = variables[0], variables[1:]
    dens = [math.prod([t.scaled[1] for t in term[1::2]]) for term in terms]
    scale = math.lcm(*dens)
    res: Residual = {}
    for (sign, outer, oargs, *inner), den in zip(terms, dens):
        f = sign * (scale // den)
        if not inner:
            pick = [oargs.index(v) for v in rest]
            for key, cell in outer.group((oargs.index(lead),), True).get((i,), ()):
                _add(res, tuple([key[q] for q in pick]), cell, f)
            continue
        tensor, iargs = inner
        slot = oargs.index("*")
        pick = [(iargs + oargs).index(v) for v in rest]
        if lead in iargs:
            ins = tensor.group((iargs.index(lead),), True).get((i,), ())
            outs, at = outer.group((slot,), True), ()
        else:
            ins = tensor.scaled[0].items()
            outs, at = outer.group((slot, oargs.index(lead)), True), (i,)
        for ikey, icell in ins:
            for l, c in icell.items():
                fc = f * c
                for okey, ocell in outs.get((l,) + at, ()):
                    both = ikey + okey
                    _add(res, tuple([both[q] for q in pick]), ocell, fc)
    return res


def first_failure(n: int, variables: str, terms: Sequence[Term]) -> tuple[int, ...] | None:
    """Lexicographically first basis tuple, leading index below n, at which
    the identity fails; None if it holds everywhere."""
    for i in range(n):
        bad = [key for key, r in residual(variables, i, terms).items() if any(r.values())]
        if bad:
            return (i,) + min(bad)
    return None


def skew_failure(t: SparseTensor) -> tuple[int, ...] | None:
    """First tuple at which swapping the first two slots fails to negate t."""
    args = "ijklm"[:t.arity]
    return first_failure(t.dim, args, [(1, t, args), (1, t, args[1] + args[0] + args[2:])])
