"""Sparse view of a structure tensor and the identities checked over it.

A structure tensor of arity r maps r basis indices to a vector: the binary
product (i, j) -> e_i . e_j, the ternary bracket (i, j, k) -> {e_i, e_j, e_k},
an action (a, k) -> rho(e_a) e_k. SparseTensor keeps only the nonzero
coefficients, key -> {output index: coefficient}, so every contraction and
every check costs in proportion to them; omni structure constants, for
example, are 7.4 % nonzero for d = 2 and 3.3 % for d = 3. The walk skips, unread,
the first all-zero cell and its zero wherever they recur (`materialize` shares both).

An identity is a sum of signed terms, each a tensor applied to basis
variables, at most one argument being another tensor applied to variables:
the left Leibniz identity on basis triples reads

    ("ijk", [(1, c, "i*", c, "jk"), (-1, c, "*k", c, "ij"), (-1, c, "j*", c, "ik")])

for e_i (e_j e_k) - (e_i e_j) e_k - e_j (e_i e_k), with "*" marking where the
inner value goes. first_failure walks the leading variable in order, builds
that slice's residual from the nonzero entries alone, and returns the least
failing tuple of the first failing slice: the lexicographically first
failing basis tuple, as a dense scan would report it, without scanning past
it. skew_failure finds it by partner lookup, the first two indices swapped.

Scans add integers: `scaled` holds a tensor's numerators over its lcm
denominator (1 when empty), built in the walk that makes the view, and each
term is brought to the identity's common denominator, so no sum takes a gcd.
Public values stay Fraction. A term whose leading variable is only in the outer
tensor reads the inner one through its by-output index, l -> [(key, numerator)].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, neg
from typing import Mapping, Sequence, Union

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
        z = zero[0] if zero else None  # the shared zero entry, tested by identity
        flat = [(key + (i,), k, x) for key, row in rows for i, cell in enumerate(row)
                if cell is not zero for k, x in enumerate(cell) if x is not z and x]
        den = math.lcm(*{x.denominator for _, _, x in flat})
        self.entries: dict[tuple[int, ...], Cell] = {}
        cells: dict[tuple[int, ...], dict[int, int]] = {}
        for key, k, x in flat:
            self.entries.setdefault(key, {})[k] = x
            cells.setdefault(key, {})[k] = x.numerator * (den // x.denominator)
        self.scaled = cells, den  # the entries as integer numerators over their lcm denominator
        shape = []  # axis lengths read along the first cells; an empty axis hides the rest
        for _ in range(arity):
            shape.append(len(dense))
            dense = dense[0] if dense else ()
        self.shape, self.out_dim = tuple(shape), len(dense)

    @cached_property
    def _by_output(self) -> dict[int, list[tuple[tuple[int, ...], int]]]:
        """l -> [(key, numerator)]: the scaled entries with output index l, in key order."""
        out: dict[int, list] = {}
        for key, cell in self.scaled[0].items():
            for l, c in cell.items():
                out.setdefault(l, []).append((key, c))
        return out

    def group(self, positions: tuple[int, ...], scaled: bool = False) -> dict:
        """Entries, or the scaled cells, by the indices at `positions`, each list in key order."""
        g = self._groups.get((positions, scaled))
        if g is None:
            g = self._groups[positions, scaled] = {}
            by = _pick(positions)
            for key, cell in (self.scaled[0] if scaled else self.entries).items():
                g.setdefault(by(key), []).append((key, cell))
        return g

    def contract(self, *args) -> tuple:
        """sum over entries of prod(args[p][key[p]]) * cell.

        An int argument i, below its axis length, stands for e_i and selects
        the entries with that index instead of multiplying by it; at least
        one argument is a vector, as long as its axis.
        """
        for a, n in zip(args, self.shape):
            if not (0 <= a < n if isinstance(a, int) else len(a) == n):
                raise ValueError("basis index out of range" if isinstance(a, int)
                                 else "vector length does not match the dimension")
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


def _pick(p: Sequence[int]):
    """key -> tuple(key[q] for q in p) in one C call; itemgetter(q) alone returns key[q] bare."""
    return itemgetter(*p) if len(p) > 1 else itemgetter(slice(p[0], p[0] + 1) if p else slice(0))


def _add(res: dict, key: tuple[int, ...], cell: Mapping, f) -> None:
    """res[key] += f * cell, over int or Fraction values"""
    r = res.setdefault(key, {})
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
            pick = _pick([oargs.index(v) for v in rest])
            for key, cell in outer.group((oargs.index(lead),), True).get((i,), ()):
                _add(res, pick(key), cell, f)
            continue
        tensor, iargs = inner
        slot = oargs.index("*")
        pick = _pick([(iargs + oargs).index(v) for v in rest])
        if lead in iargs:  # each inner entry at i meets the outer cells at its output
            outs = outer.group((slot,), True)
            products = ((ikey, c, okey, ocell)
                        for ikey, icell in tensor.group((iargs.index(lead),), True).get((i,), ())
                        for l, c in icell.items() for okey, ocell in outs.get((l,), ()))
        else:  # each outer cell at i meets the inner entries whose output is at its slot
            ins = tensor._by_output
            products = ((ikey, c, okey, ocell)
                        for okey, ocell in outer.group((oargs.index(lead),), True).get((i,), ())
                        for ikey, c in ins.get(okey[slot], ()))
        for ikey, c, okey, ocell in products:  # _add, inlined
            fc = f * c
            r = res.setdefault(pick(ikey + okey), {})
            for m, x in ocell.items():
                r[m] = r.get(m, 0) + fc * x
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
    """First tuple at which swapping the first two slots fails to negate t.

    By partner lookup: the cell at a key k must be minus the one at s(k), k with
    its first two indices swapped. A pair {k, s(k)} fails or holds as one, and
    first_failure's answer is the least min(k, s(k)) over the failing pairs, so
    each pair is compared once: at k when k is stored and k0 <= k1 (a stored
    diagonal cell is nonzero, so it fails), else at its stored key k, k0 > k1,
    where it fails exactly when s(k) is not stored (a nonzero cell against 0).
    """
    cells, swap = t.scaled[0], itemgetter(1, 0, *range(2, t.arity))
    return min((min(k, s) for k, c in cells.items() for s in [swap(k)]
                if (s not in cells if k[0] > k[1]
                    else cells.get(s) != dict(zip(c, map(neg, c.values()))))), default=None)
