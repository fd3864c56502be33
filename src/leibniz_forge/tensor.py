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
it, reading every slice through one plan of its terms. skew_failure finds it
by partner lookup, the first two indices swapped.

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
from operator import itemgetter, lt, neg
from typing import Iterable, Mapping, Sequence, Union

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


def _plan(variables: str, fixed: int, terms: Sequence[Term], increasing: int):
    """A scan's set-up, built once, as a function from a slice (the values of the first
    `fixed` variables) to its residual: the identity's value at the slice's basis tuples,
    keyed by the other variables (zero keys may be absent) on which the first `increasing`
    variables increase, times L: term t is scaled by L / (den_outer * den_inner)."""
    lead, rest = variables[:fixed], variables[fixed:]
    dens = [math.prod([t.scaled[1] for t in term[1::2]]) for term in terms]
    scale, steps = math.lcm(*dens), []  # (weight, driving group, joined index, slot, pick)
    for (sign, outer, oargs, *inner), den in zip(terms, dens):
        tensor, iargs = inner or (None, "")
        f, pick = sign * (scale // den), _pick([*map((iargs + oargs).index, rest)])
        if inner and set(lead) <= set(iargs):  # inner entries meet the outer cells at their output
            steps.append((f, tensor.group(tuple(map(iargs.index, lead)), True),
                          outer.group((oargs.index("*"),), True), None, pick))
        else:  # each outer cell meets the inner entries, if any, whose output is at its slot
            steps.append((f, outer.group(tuple(map(oargs.index, lead)), True),
                          tensor and tensor._by_output, oargs.find("*"), pick))
    m = max(increasing - fixed, 0)  # leading key entries that must each exceed the one before

    def at_slice(at: tuple[int, ...]) -> Residual:
        res: Residual = {}
        lo = at[-1]
        for f, drive, join, slot, pick in steps:
            if join is None:
                products = [(pick(key), f, cell) for key, cell in drive.get(at, ())]
            elif slot is None:
                products = [(pick(ikey + okey), f * c, ocell) for ikey, icell in drive.get(at, ())
                            for l, c in icell.items() for okey, ocell in join.get((l,), ())]
            else:
                products = [(pick(ikey + okey), f * c, ocell) for okey, ocell in drive.get(at, ())
                            for ikey, c in join.get(okey[slot], ())]
            for key, fc, cell in products:  # _add, inlined
                if m and not (lo < key[0] < key[1] if m == 2 else lo < key[0] if m == 1
                              else all(map(lt, (lo,) + key[:m - 1], key[:m]))):
                    continue
                r = res.setdefault(key, {})
                for k, x in cell.items():
                    r[k] = r.get(k, 0) + fc * x
        return res
    return at_slice


def first_failure(n: int, variables: str, terms: Sequence[Term], increasing: int = 0,
                  slices: Iterable[tuple[int, ...]] | None = None) -> tuple[int, ...] | None:
    """Lexicographically first basis tuple, leading index below n, at which the
    identity fails; None if it holds everywhere. The scan walks slices, each fixing the
    leading variables, in order through one plan: (i,) for i < n, or the `slices` named.

    A caller that has proved the residual totally antisymmetric in the first
    `increasing` variables scans only tuples on which they strictly increase, and
    finds the same first failure: the residual vanishes when two of them are equal,
    and at a permutation of them it is, up to sign, the residual at their sorted
    order, a lexicographically lesser tuple. Named slices must keep that order too.
    """
    scan = None
    for at in ((i,) for i in range(n)) if slices is None else slices:
        scan = scan or _plan(variables, len(at), terms, increasing)
        bad = [key for key, r in scan(at).items() if any(r.values())]
        if bad:
            return at + min(bad)
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
