"""Sparse view of a structure tensor and the identities checked over it.

A structure tensor of arity r maps r basis indices to a vector: the binary
product (i, j) -> e_i . e_j, the ternary bracket (i, j, k) -> {e_i, e_j, e_k},
an action (a, k) -> rho(e_a) e_k. SparseTensor keeps only the nonzero
coefficients, key -> {output index: coefficient}, so every contraction and
every check costs in proportion to them; omni structure constants, for
example, are 7.4 % nonzero for d = 2 and 3.3 % for d = 3.

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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Cell = dict[int, Fraction]
Residual = dict[tuple[int, ...], Cell]
# (sign, outer, outer variables) or
# (sign, outer, outer variables with one "*", inner, inner variables); sign is 1 or -1
Term = Union[tuple[int, "SparseTensor", str],
             tuple[int, "SparseTensor", str, "SparseTensor", str]]


class SparseTensor:
    """Nonzero cells of a dense nested-tuple tensor of the given arity."""

    def __init__(self, dense: Sequence, arity: int) -> None:
        self.arity = arity
        self.dim = len(dense)
        self.entries: dict[tuple[int, ...], Cell] = {}
        self._groups: dict[tuple[int, ...], dict] = {}

        def walk(t: Sequence, key: tuple[int, ...]) -> None:
            if len(key) == arity:
                if any(t):
                    self.entries[key] = {k: x for k, x in enumerate(t) if x}
            else:
                for i, sub in enumerate(t):
                    walk(sub, key + (i,))

        walk(dense, ())
        for _ in range(arity):
            dense = dense[0] if dense else ()
        self.out_dim = len(dense)

    def group(self, positions: tuple[int, ...]) -> dict:
        """Entries by the indices at `positions`, each list in key order."""
        g = self._groups.get(positions)
        if g is None:
            g = self._groups[positions] = {}
            for key, cell in self.entries.items():
                g.setdefault(tuple([key[p] for p in positions]), []).append((key, cell))
        return g

    def contract(self, *args) -> tuple:
        """sum over entries of prod(args[p][key[p]]) * cell.

        An int argument i stands for the basis vector e_i and selects the
        entries with that index instead of multiplying by it; at least one
        argument is a vector.
        """
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


def _add(res: Residual, key: tuple[int, ...], cell: Cell, f: Fraction | None) -> None:
    """res[key] += f * cell, where None stands for f = 1."""
    r = res.get(key)
    if r is None:
        res[key] = dict(cell) if f is None else {m: f * x for m, x in cell.items()}
        return
    for m, x in cell.items():
        if f is not None:
            x = f * x
        r[m] = r[m] + x if m in r else x


def residual(variables: str, i: int, terms: Sequence[Term]) -> Residual:
    """The identity's value at every basis tuple whose leading variable is i,
    keyed by the values of the other variables (zero keys may be absent)."""
    lead, rest = variables[0], variables[1:]
    res: Residual = {}
    for sign, outer, oargs, *inner in terms:
        if not inner:
            pick = [oargs.index(v) for v in rest]
            f = None if sign > 0 else Fraction(-1)
            for key, cell in outer.group((oargs.index(lead),)).get((i,), ()):
                _add(res, tuple([key[q] for q in pick]), cell, f)
            continue
        tensor, iargs = inner
        slot = oargs.index("*")
        pick = [(iargs + oargs).index(v) for v in rest]
        if lead in iargs:
            ins = tensor.group((iargs.index(lead),)).get((i,), ())
            outs, at = outer.group((slot,)), ()
        else:
            ins = tensor.entries.items()
            outs, at = outer.group((slot, oargs.index(lead))), (i,)
        for ikey, icell in ins:
            for l, c in icell.items():
                f = c if sign > 0 else -c
                for okey, ocell in outs.get((l,) + at, ()):
                    both = ikey + okey
                    _add(res, tuple([both[q] for q in pick]), ocell, f)
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
