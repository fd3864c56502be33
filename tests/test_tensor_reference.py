"""Identity scans of the sparse tensor core against the Fraction scan kept here.

tensor.first_failure evaluates an identity on the integer numerators of each
tensor over one denominator per tensor, reads the inner tensor through a
by-output index, and tensor.skew_failure compares each cell with its partner,
the cell with the first two indices swapped. The scan kept below, the first
one the package had, adds Fraction products cell by cell over index groups it
builds itself, and tests skewness as one more identity. Every check of the
package reports the tuple that first_failure returns, so equal tuples on every
identity the package states pin every witness: Leibniz, Jacobi and skew on
structure constants, LY1-LY6, the three conditions of validate_envelope and
the delta conditions of ly_envelope.

The view itself is pinned to the dense tensor it reads: equal entries (the
very Fraction objects of the dense tensor), equal integer cells over the lcm
denominator, and on every slice of every identity the residual of the same
scan run on those integers, each term weighted by L / (den_outer den_inner),
on tensors whose zero cells and zeros are shared, distinct per entry, or in
rows rebuilt as the omni_tensor benchmark perturbs them. (The names of those
tests still say "the parent".)

Entries are rationals p/q with |p| <= 60 and q <= 7, and the tensors of one
identity carry different denominators, so that each term is scaled by its own
factor. Known-valid structures scaled by a rational and perturbed in one cell
fail deep in the scan, not at its first tuple.

The sigma_s checks scan identities on f, rho and the structure constants.
The code kept here builds sigma_s as a matrix and multiplies its columns in
the semidirect sum g, or in the hemisemidirect product for sigma_1; the
s-scaling, recovery and sigma_1 checks and projected_bracket_delta are pinned
to it the same way: equal results and witnesses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from fractions import Fraction as Q
from functools import cache, lru_cache
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    EnvelopeTriple,
    LieYamaguti,
    Pcg32,
    StructureAlgebra,
    canonical_envelope,
    direct_sum,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    omni_algebras,
    projected_bracket_delta,
    random_algebra,
    random_nilpotent_leibniz,
    recovery_check,
    scaling_check,
    sigma_one_embed_check,
    squares_ideal,
    validate_ly,
)
from leibniz_forge import envelope, products, tensor
from leibniz_forge.envelope import DEFAULT_S_VALUES
from leibniz_forge.linalg import Matrix, as_q, basis_vec, vscale, vsub
from leibniz_forge.products import hemisemidirect, semidirect_lie
from leibniz_forge.tensor import SparseTensor, materialize
from leibniz_forge.yamaguti import LYReport

from conftest import make_broken3, make_heisenberg3, make_leibniz2, make_nl3, make_so3

Cell = dict[int, Fraction]
Residual = dict[tuple[int, ...], Cell]


# -- the Fraction scan -------------------------------------------------------

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


@lru_cache(maxsize=256)
def group(t: SparseTensor, positions: tuple[int, ...]) -> dict:
    """t's entries by the indices at `positions`, each list in key order."""
    out: dict = {}
    for key, cell in sorted(t.entries.items()):
        out.setdefault(tuple(key[p] for p in positions), []).append((key, cell))
    return out


def residual(variables: str, i: int, terms) -> Residual:
    """The identity's value at every basis tuple whose leading variable is i,
    keyed by the values of the other variables (zero keys may be absent); each
    term is weighted by its sign."""
    lead, rest = variables[0], variables[1:]
    res: Residual = {}
    for sign, outer, oargs, *inner in terms:
        if not inner:
            pick = [oargs.index(v) for v in rest]
            f = None if sign == 1 else sign
            for key, cell in group(outer, (oargs.index(lead),)).get((i,), ()):
                _add(res, tuple([key[q] for q in pick]), cell, f)
            continue
        tensor, iargs = inner
        slot = oargs.index("*")
        pick = [(iargs + oargs).index(v) for v in rest]
        if lead in iargs:
            ins = group(tensor, (iargs.index(lead),)).get((i,), ())
            outs, at = group(outer, (slot,)), ()
        else:
            ins = sorted(tensor.entries.items())
            outs, at = group(outer, (slot, oargs.index(lead))), (i,)
        for ikey, icell in ins:
            for l, c in icell.items():
                f = sign * c
                for okey, ocell in outs.get((l,) + at, ()):
                    both = ikey + okey
                    _add(res, tuple([both[q] for q in pick]), ocell, f)
    return res


def first_failure(n: int, variables: str, terms) -> tuple[int, ...] | None:
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


# -- the identities the package states -----------------------------------------

CYCLIC = ("ijk", "jki", "kij")


def algebra_identities(c: SparseTensor) -> list[tuple[str, int, str, list]]:
    """(name, leading range, variables, terms) of check_leibniz and check_jacobi."""
    return [("leibniz", c.dim, "ijk", [(1, c, "i*", c, "jk"), (-1, c, "*k", c, "ij"),
                                      (-1, c, "j*", c, "ik")]),
            ("jacobi", c.dim, "ijk", [(1, c, "*k", c, "ij"), (1, c, "*i", c, "jk"),
                                      (1, c, "*j", c, "ki")])]


def ly_identities(n: int, b: SparseTensor, t: SparseTensor) -> list[tuple[str, int, str, list]]:
    """LY1-LY6 as validate_ly states them."""
    return [(name, n, variables, terms) for name, variables, terms in (
        ("LY1", "ij", [(1, b, "ij"), (1, b, "ji")]),
        ("LY2", "ijk", [(1, t, "ijk"), (1, t, "jik")]),
        ("LY3", "ijk", [term for x, y, z in CYCLIC
                        for term in ((1, b, "*" + z, b, x + y), (1, t, x + y + z))]),
        ("LY4", "ijku", [(1, t, "*" + z + "u", b, x + y) for x, y, z in CYCLIC]),
        ("LY5", "ijuv", [(1, t, "ij*", b, "uv"), (-1, b, "*v", t, "iju"),
                         (-1, b, "u*", t, "ijv")]),
        ("LY6", "ijuvw", [(1, t, "ij*", t, "uvw"), (-1, t, "*vw", t, "iju"),
                          (-1, t, "u*w", t, "ijv"), (-1, t, "uv*", t, "ijw")]))]


def envelope_identities(n: int, hd: int, c: SparseTensor, hs: SparseTensor,
                        rho: SparseTensor, fs: SparseTensor) -> list[tuple[str, int, str, list]]:
    """The derivation, equivariance and left-multiplication conditions of validate_envelope."""
    return [("derivation", hd, "aij", [(1, rho, "a*", c, "ij"), (-1, c, "*j", rho, "ai"),
                                       (-1, c, "i*", rho, "aj")]),
            ("equivariant", hd, "ai", [(1, fs, "*", rho, "ai"), (-1, hs, "a*", fs, "i")]),
            ("left_mul", n, "ij", [(1, rho, "*j", fs, "i"), (-1, c, "ij")])]


def delta_identities(n: int, hd: int, b: SparseTensor, t: SparseTensor, hs: SparseTensor,
                     rho: SparseTensor, d: SparseTensor) -> list[tuple[str, int, str, list]]:
    """delta1-delta3 as ly_envelope checks an explicit delta (skew is checked apart)."""
    return [("delta1", n, "ijk", [(1, rho, "*k", d, "ij"), (-1, t, "ijk")]),
            ("delta2", hd, "aij", [(1, hs, "a*", d, "ij"), (-1, d, "*j", rho, "ai"),
                                   (-1, d, "i*", rho, "aj")]),
            ("delta3", n, "ijk", [(1, d, "*" + z, b, x + y) for x, y, z in CYCLIC])]


def assert_same_scans(identities, skew: Sequence[SparseTensor] = ()) -> None:
    for name, n, variables, terms in identities:
        assert tensor.first_failure(n, variables, terms) == first_failure(n, variables, terms), name
    for t in skew:
        assert tensor.skew_failure(t) == skew_failure(t), t.arity


# -- inputs ---------------------------------------------------------------------

def zeros(shape: Sequence[int]):
    if len(shape) == 1:
        return [Q(0)] * shape[0]
    return [zeros(shape[1:]) for _ in range(shape[0])]


def frozen(t):
    return tuple(frozen(x) for x in t) if isinstance(t, list) else t


def thawed(t):
    return [thawed(x) for x in t] if isinstance(t, (tuple, list)) else t


def setcell(dense, idx: Sequence[int], value: Fraction) -> None:
    for i in idx[:-1]:
        dense = dense[i]
    dense[idx[-1]] = value


@cache  # one strategy object per argument: building one costs more than a draw
def rationals(den: int | None = None):
    """p/q with |p| <= 60 and q <= 7; q = den when den is given."""
    q = st.just(den) if den else st.integers(1, 7)
    return st.builds(Fraction, st.integers(-60, 60), q)


def sparse_dense(data, shape: Sequence[int], den: int | None = None):
    """A dense nested list of the given shape with a few nonzero entries."""
    dense = zeros(shape)
    if 0 in shape:
        return dense
    idx = st.tuples(*[st.integers(0, d - 1) for d in shape])
    for at, x in data.draw(st.lists(st.tuples(idx, rationals(den)), max_size=12)):
        setcell(dense, at, x)
    return dense


def perturb(data, dense, shape: Sequence[int]) -> None:
    """Add p/q to one cell, sometimes (the structure stays valid then)."""
    if 0 in shape or not data.draw(st.booleans()):
        return
    at = data.draw(st.tuples(*[st.integers(0, d - 1) for d in shape]))
    cell = dense
    for i in at[:-1]:
        cell = cell[i]
    cell[at[-1]] += data.draw(rationals())


def low_rank_ternary(data, n: int) -> dict[tuple[int, ...], Fraction]:
    """{(i, j, k, l): x}: a ternary skew in (i, j) whose delta(e_i, e_j) = t(i, j, .)
    are combinations of a few drawn generator matrices, minus a third of its cyclic
    sum over (i, j, k). That sum is totally antisymmetric, so the result is still skew
    in (i, j), and its own cyclic sum is 0: added to a structure it keeps LY2 and LY3."""
    ints = st.integers(0, n - 1)
    t: dict = {}
    for _ in range(data.draw(st.integers(1, 3))):  # one generator matrix each
        pairs = data.draw(st.lists(st.tuples(ints, ints, rationals()), min_size=1, max_size=4))
        entries = data.draw(st.lists(st.tuples(ints, ints, rationals()), min_size=1, max_size=3))
        for i, j, a in pairs:
            for k, l, x in entries:
                for key, y in (((i, j, k, l), a * x), ((j, i, k, l), -a * x)):
                    t[key] = t.get(key, 0) + y
    cyclic: dict = {}
    for (i, j, k, l), x in t.items():
        for key in ((i, j, k, l), (j, k, i, l), (k, i, j, l)):
            cyclic[key] = cyclic.get(key, 0) + x
    for key, x in cyclic.items():
        t[key] = t.get(key, 0) - x / 3
    return t


def low_rank_ly(data) -> tuple[int, list, list]:
    """Dimension and dense b and t of a structure drawn with a low-rank delta: t from
    low_rank_ternary, and b = 0 or one skew product e_p e_q = x e_r with r not p or q,
    whose Jacobi sums vanish. LY1-LY3 hold; LY4, LY5 or LY6 may fail, at pairs (i, j)
    whose delta the earlier pairs span as well as at pairs that add to the span."""
    n = data.draw(st.integers(2, 4))
    b, t = zeros((n, n, n)), zeros((n, n, n, n))
    if n > 2 and data.draw(st.booleans()):
        p, q, r = data.draw(st.permutations(range(n)))[:3]
        x = data.draw(rationals().filter(bool))
        setcell(b, (p, q, r), x)
        setcell(b, (q, p, r), -x)
    for key, x in low_rank_ternary(data, n).items():
        setcell(t, key, x)
    return n, b, t


def scaled(dense, factor: Fraction):
    return [scaled(x, factor) for x in dense] if isinstance(dense, list) else dense * factor


def valid_algebras() -> list[StructureAlgebra]:
    """Leibniz and Lie algebras, and three that are not Leibniz."""
    return [make_leibniz2(), make_heisenberg3(), make_so3(), omni_algebras(1)[0],
            omni_algebras(2)[0], omni_algebras(2)[1], make_nl3(), make_broken3(),
            random_nilpotent_leibniz(Pcg32(12), 3), random_nilpotent_leibniz(Pcg32(13), 4)]


VALID = valid_algebras()
LEIBNIZ = [a for a in VALID if a.is_leibniz]
SCALES = st.sampled_from([Q(1), Q(1, 2), Q(-3), Q(2, 3), Q(5, 7), Q(-1, 6)])


# -- algebra identities ---------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4), st.data())
def test_random_structure_constants_match(n, data):
    den = data.draw(st.sampled_from([None, 1, 2, 6, 7]))
    c = SparseTensor(frozen(sparse_dense(data, (n, n, n), den)), 2)
    assert_same_scans(algebra_identities(c), skew=[c])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(VALID))), SCALES, st.data())
def test_scaled_perturbed_algebras_match(which, factor, data):
    a = VALID[which]
    n = a.dim
    dense = scaled(thawed(a.c), factor)
    perturb(data, dense, (n, n, n))
    c = SparseTensor(frozen(dense), 2)
    assert_same_scans(algebra_identities(c), skew=[c])


SKEW_NOT_LIE = [random_algebra(Pcg32(seed), dim).skew_symmetrize()
                for seed, dim in ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6))]


def test_public_algebra_checks_report_the_reference_tuple():
    """On skew algebras, Lie or not, check_jacobi scans i < j < k only; that scan
    reports the reference's first failing triple."""
    for a in VALID + SKEW_NOT_LIE:
        c = SparseTensor(a.c, 2)
        (_, _, _, leibniz), (_, _, _, jacobi) = algebra_identities(c)
        at = first_failure(a.dim, "ijk", leibniz)
        ok, witness = StructureAlgebra.from_constants(a.c).check_leibniz()
        assert ok == (at is None) and (witness is None or witness[:3] == at)
        fresh = StructureAlgebra.from_constants(a.c)
        assert fresh.check_jacobi() == (first_failure(a.dim, "ijk", jacobi) is None)
        assert fresh.is_skew == (skew_failure(c) is None)
        if fresh.is_skew:
            assert (tensor.first_failure(a.dim, "ijk", jacobi, 3)
                    == first_failure(a.dim, "ijk", jacobi))
    assert not any(a.is_lie for a in SKEW_NOT_LIE) and all(a.is_skew for a in SKEW_NOT_LIE)


# -- Lie-Yamaguti identities -----------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 3), st.data())
def test_random_ly_tensors_match(n, data):
    bden, tden = data.draw(st.sampled_from([(None, None), (2, 6), (1, 7), (3, 4), (5, 1)]))
    b = SparseTensor(frozen(sparse_dense(data, (n, n, n), bden)), 2)
    t = SparseTensor(frozen(sparse_dense(data, (n, n, n, n), tden)), 3)
    assert_same_scans(ly_identities(n, b, t), skew=[b, t])


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(range(len(LEIBNIZ))), st.just("low rank")), SCALES, st.data())
def test_scaled_perturbed_ly_structures_match(which, factor, data):
    """b scaled by a factor and t by its square is a Lie-Yamaguti structure
    again, until a cell is perturbed. A structure with a low-rank delta
    (low_rank_ly) is scaled but not perturbed: it fails LY4, LY5 or LY6, if any."""
    if which == "low rank":
        n, bd, td = low_rank_ly(data)
    else:
        ly = ly_from_leibniz(LEIBNIZ[which])
        n, bd, td = ly.dim, thawed(ly.b), thawed(ly.t)
    bd, td = scaled(bd, factor), scaled(td, factor * factor)
    if which != "low rank":
        perturb(data, bd, (n, n, n))
        perturb(data, td, (n, n, n, n))
    b, t = SparseTensor(frozen(bd), 2), SparseTensor(frozen(td), 3)
    assert_same_scans(ly_identities(n, b, t), skew=[b, t])
    ly = LieYamaguti.from_tensors(frozen(bd), frozen(td))
    report = validate_ly(ly)
    assert report == ref_validate_ly(ly)
    assert which != "low rank" or report.axiom in (None, "LY4", "LY5", "LY6")


SKEW_CASES = {  # cells at keys (i, j), and the first failing pair
    "nonzero diagonal": ({(0, 1): {0: Q(1)}, (1, 0): {0: Q(-1)}, (2, 2): {1: Q(2, 3)}}, (2, 2)),
    "missing partner": ({(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}, (2, 1): {0: Q(5)}}, (1, 2)),
    "extra output index": ({(1, 2): {0: Q(1, 2)}, (2, 1): {0: Q(-1, 2), 2: Q(3)}}, (1, 2)),
    "off by one value": ({(0, 2): {0: Q(1), 1: Q(2)}, (2, 0): {0: Q(-1), 1: Q(-1)},
                          (2, 1): {1: Q(4)}}, (0, 2)),
}


@pytest.mark.parametrize("case", SKEW_CASES)
@pytest.mark.parametrize("arity", [2, 3])
def test_skew_failures_by_hand_match(case, arity):
    """At arity 3 each cell (i, j) is written at (i, j, 0) and (i, j, 1), and
    the first failing tuple is (i, j, 0)."""
    cells, (i, j) = SKEW_CASES[case]
    if arity == 3:
        cells = {key + (k,): cell for key, cell in cells.items() for k in (0, 1)}
    t = SparseTensor(materialize(3, arity, cells), arity)
    want = (i, j) if arity == 2 else (i, j, 0)
    assert tensor.skew_failure(t) == skew_failure(t) == want


# -- validate_ly on rebuilt rows ----------------------------------------------------

def ref_validate_ly(ly: LieYamaguti) -> LYReport:
    """LY1-LY6 in order, each scanned by the Fraction scan."""
    b, t = (SparseTensor(x, arity) for x, arity in ((ly.b, 2), (ly.t, 3)))
    for name, n, variables, terms in ly_identities(ly.dim, b, t):
        at = first_failure(n, variables, terms)
        if at is not None:
            return LYReport(False, name, at)
    return LYReport(True)


OMNI_LY = {d: ly_from_leibniz(omni_algebras(d)[0]) for d in (2, 3)}


def shifted(dense, arity: int, changes):
    """A copy with new rows and the cells shared, as the omni_tensor benchmark
    perturbs an LY structure, but for each (key, l, x) in changes, whose cell
    gets x added at entry l."""
    rows = ([list(row) for row in dense] if arity == 2
            else [[list(row) for row in plane] for plane in dense])
    for key, l, x in changes:
        row = rows[key[0]] if arity == 2 else rows[key[0]][key[1]]
        cell = list(row[key[-1]])
        cell[l] += x
        row[key[-1]] = tuple(cell)
    return frozen(rows)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(["LY1", "LY2", "LY3", "LY4-6"]), st.data())
def test_validate_ly_on_perturbed_omni_copies_matches(d, axiom, data):
    """A change of b at one pair fails LY1, of t at one triple fails LY2, and
    of t at a skew pair of triples (i, j, k) and (j, i, k) of distinct
    indices keeps LY1 and LY2 and fails LY3. A low-rank ternary with no cyclic
    sum (low_rank_ternary) added to t keeps LY1-LY3: LY4, LY5 or LY6 fails, if any."""
    ly = OMNI_LY[d]
    n = ly.dim
    if axiom == "LY4-6":
        changes = [(key[:3], key[3], x) for key, x in low_rank_ternary(data, n).items()]
        copy = LieYamaguti(n, ly.b, shifted(ly.t, 3, changes))
        report = validate_ly(copy)
        assert report == ref_validate_ly(copy) and report.axiom in (None, "LY4", "LY5", "LY6")
        return
    i, j, k = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                 unique=axiom == "LY3"))
    l, x = data.draw(st.integers(0, n - 1)), data.draw(rationals().filter(bool))
    if axiom == "LY1":
        copy = LieYamaguti(n, shifted(ly.b, 2, [((i, j), l, x)]), ly.t)
    else:
        pair = [((i, j, k), l, x)] + ([((j, i, k), l, -x)] if axiom == "LY3" else [])
        copy = LieYamaguti(n, ly.b, shifted(ly.t, 3, pair))
    report = validate_ly(copy)
    assert report == ref_validate_ly(copy) and report.axiom == axiom


# -- envelope conditions --------------------------------------------------------

def envelope_parts(e: StructureAlgebra) -> tuple:
    t = canonical_envelope(e, squares_ideal(e))
    rho = [[m.col(k) for k in range(e.dim)] for m in t.action.mats]
    fcols = [t.f.col(i) for i in range(e.dim)]
    return t, thawed(e.c), thawed(rho), thawed(fcols)


ENVELOPES = [envelope_parts(a) for a in LEIBNIZ]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(ENVELOPES))), SCALES, st.data())
def test_perturbed_envelope_conditions_match(which, factor, data):
    """rho and f scaled inversely keep the derivation and left-multiplication
    conditions; a perturbed cell breaks one of them, or none."""
    t, c, rho, fcols = ENVELOPES[which]
    n, hd = t.e.dim, t.h.dim
    rho, fcols = scaled(rho, factor), scaled(fcols, 1 / factor)
    perturb(data, c, (n, n, n))
    perturb(data, rho, (hd, n, n))
    perturb(data, fcols, (n, hd))
    parts = (SparseTensor(frozen(c), 2), t.h.sparse, SparseTensor(frozen(rho), 2),
             SparseTensor(frozen(fcols), 1))
    assert_same_scans(envelope_identities(n, hd, *parts))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_random_envelope_conditions_match(n, hd, data):
    dens = data.draw(st.lists(st.sampled_from([None, 1, 2, 3, 12]), min_size=4, max_size=4))
    c = SparseTensor(frozen(sparse_dense(data, (n, n, n), dens[0])), 2)
    hs = SparseTensor(frozen(sparse_dense(data, (hd, hd, hd), dens[1])), 2)
    rho = SparseTensor(frozen(sparse_dense(data, (hd, n, n), dens[2])), 2)
    fs = SparseTensor(frozen(sparse_dense(data, (n, hd), dens[3])), 1)
    assert_same_scans(envelope_identities(n, hd, c, hs, rho, fs))


# -- delta conditions of ly_envelope --------------------------------------------

def delta_parts(a: StructureAlgebra) -> tuple:
    ly = ly_from_leibniz(a)
    env = ly_envelope(ly)
    return ly, env, thawed(env.delta)


DELTAS = [delta_parts(a) for a in LEIBNIZ]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(DELTAS))), st.data())
def test_perturbed_delta_conditions_match(which, data):
    ly, env, delta = DELTAS[which]
    n, hd = ly.dim, env.h_dim
    tdense = thawed(ly.t)
    perturb(data, delta, (n, n, hd))
    perturb(data, tdense, (n, n, n, n))
    b, t = SparseTensor(ly.b, 2), SparseTensor(frozen(tdense), 3)
    d = SparseTensor(frozen(delta), 2)
    assert_same_scans(delta_identities(n, hd, b, t, env.h.sparse, env.action.sparse, d),
                      skew=[d])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_random_delta_conditions_match(n, hd, data):
    dens = data.draw(st.lists(st.sampled_from([None, 1, 4, 6]), min_size=5, max_size=5))
    b = SparseTensor(frozen(sparse_dense(data, (n, n, n), dens[0])), 2)
    t = SparseTensor(frozen(sparse_dense(data, (n, n, n, n), dens[1])), 3)
    hs = SparseTensor(frozen(sparse_dense(data, (hd, hd, hd), dens[2])), 2)
    rho = SparseTensor(frozen(sparse_dense(data, (hd, n, n), dens[3])), 2)
    d = SparseTensor(frozen(sparse_dense(data, (n, n, hd), dens[4])), 2)
    assert_same_scans(delta_identities(n, hd, b, t, hs, rho, d), skew=[d])


# -- empty, all-zero, dim-0 and dim-1 tensors ------------------------------------

@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("value", [Q(0), Q(1), Q(-5, 6)])
def test_small_and_zero_tensors_match(n, value):
    b = SparseTensor(frozen(scaled(zeros((n, n, n)), value)), 2)
    t = SparseTensor(frozen(scaled(zeros((n, n, n, n)), value)), 3)
    fill = [[[value] * n for _ in range(n)] for _ in range(n)]
    full = SparseTensor(frozen(fill), 2)
    f1 = SparseTensor(frozen([[value] * 1 for _ in range(n)]), 1)
    h1 = SparseTensor((((value,),),), 2)
    rho = SparseTensor(frozen([[[value] * n for _ in range(n)]]), 2)
    d = SparseTensor(frozen([[[value] for _ in range(n)] for _ in range(n)]), 2)
    for c in (b, full):
        assert_same_scans(algebra_identities(c), skew=[c])
    assert_same_scans(ly_identities(n, b, t) + ly_identities(n, full, t), skew=[t])
    assert_same_scans(envelope_identities(n, 1, full, h1, rho, f1))
    assert_same_scans(delta_identities(n, 1, full, t, h1, rho, d), skew=[d])


# -- the view against the dense tensor, slice by slice ----------------------------------

def nonzero(res: dict) -> dict:
    """A residual without its zero values and keys."""
    return {key: {m: x for m, x in r.items() if x} for key, r in res.items() if any(r.values())}


def cells(dense, arity: int):
    """(key, cell) for every cell of a dense nested-tuple tensor, in key order."""
    rows = [((), dense)]
    for _ in range(arity):
        rows = [(key + (i,), sub) for key, t in rows for i, sub in enumerate(t)]
    return rows


def assert_views(identities, *parts) -> None:
    """Views of each (dense, arity) part: the nonzero entries of dense (the very
    Fraction objects) and their numerators over the lcm denominator; for each
    identity, on every slice, the residual times the lcm L of the terms'
    denominators, and the same first failure; the same skew failure of every part
    of arity 2 or more."""
    views, numerators = [], {}
    for dense, arity in parts:
        view = SparseTensor(dense, arity)
        want = {key: {k: x for k, x in enumerate(cell) if x}
                for key, cell in cells(dense, arity) if any(cell)}
        assert view.entries == want
        assert all(x is dense_at(dense, key)[m] for key, cell in view.entries.items()
                   for m, x in cell.items())
        den = math.lcm(*(x.denominator for cell in want.values() for x in cell.values()))
        assert view.scaled == ({key: {m: x.numerator * (den // x.denominator)
                                      for m, x in cell.items()} for key, cell in want.items()}, den)
        views.append(view)
        numerators[view] = Numerators(view)
    for name, n, variables, terms in identities(*views):
        # the scan on the numerators, each term weighted by L / (den_outer den_inner)
        dens = [math.prod(t.scaled[1] for t in term[1::2]) for term in terms]
        scale = math.lcm(*dens)
        on_ints = [(sign * (scale // den), *(numerators.get(x, x) for x in rest))
                   for (sign, *rest), den in zip(terms, dens)]
        first = None
        for i in range(n):
            want = nonzero(residual(variables, i, on_ints))
            assert nonzero(tensor._plan(variables, 1, terms, 0)((i,))) == want, (name, i)
            first = first or (want and (i,) + min(want))
        assert tensor.first_failure(n, variables, terms) == (first or None), name
    for view in views:
        if view.arity > 1:
            assert tensor.skew_failure(view) == skew_failure(view)


class Numerators:
    """A view's integer numerators in place of its entries, for the scan above."""

    def __init__(self, view: SparseTensor) -> None:
        self.entries = view.scaled[0]


def dense_at(dense, key):
    for i in key:
        dense = dense[i]
    return dense


ZERO_STYLES = ("shared", "distinct")


def dense_of(shape: Sequence[int], cells: dict, style: str):
    """Nested tuples of the given shape, the last axis that of the cells, with
    cells {key: {k: x}}. shared: every all-zero cell is one tuple and every zero
    entry one Fraction, as materialize leaves them, but each row is its own
    tuple, as perfbench/workloads.py::_perturb_ly rebuilds rows; distinct: a new
    tuple per cell and a new Fraction(0) per zero entry, as from_constants and
    change_basis make."""
    zero = Q(0)
    empty = (zero,) * shape[-1]

    def build(key):
        if len(key) < len(shape) - 1:
            return tuple(build(key + (i,)) for i in range(shape[len(key)]))
        cell = cells.get(key, {})
        if style == "shared":
            return tuple(cell.get(k, zero) for k in range(shape[-1])) if cell else empty
        return tuple(cell[k] if k in cell else Q(0) for k in range(shape[-1]))

    return build(())


def cells_of(data, shape: Sequence[int], den: int | None = None) -> dict:
    """A few cells of a tensor of the given shape; some entries are zero values."""
    if 0 in shape:
        return {}
    idx = st.tuples(*[st.integers(0, d - 1) for d in shape])
    value = st.one_of(st.just(Q(0)), rationals(den))
    cells: dict = {}
    for at, x in data.draw(st.lists(st.tuples(idx, value), max_size=14)):
        cells.setdefault(at[:-1], {})[at[-1]] = x
    return cells


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.sampled_from(ZERO_STYLES), st.data())
def test_algebra_scans_match_the_parent(n, style, data):
    """Leibniz leads with i in the outer tensor only, Jacobi with *i."""
    den = data.draw(st.sampled_from([None, 1, 6]))
    c = dense_of((n, n, n), cells_of(data, (n, n, n), den), style)
    assert_views(algebra_identities, (c, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.sampled_from(ZERO_STYLES), st.data())
def test_ly_scans_match_the_parent(n, style, data):
    """LY4 leads with *i and LY5, LY6 with ij*: the lead in the outer tensor only."""
    b = dense_of((n, n, n), cells_of(data, (n, n, n)), style)
    t = dense_of((n,) * 4, cells_of(data, (n,) * 4), style)
    assert_views(lambda b, t: ly_identities(n, b, t), (b, 2), (t, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from(ZERO_STYLES), st.data())
def test_envelope_and_delta_scans_match_the_parent(n, hd, style, data):
    shapes = ((n, n, n), (hd, hd, hd), (hd, n, n), (n, hd), (n, n, n, n), (n, n, hd))
    c, hs, rho, fs, t, d = (dense_of(shape, cells_of(data, shape), style) for shape in shapes)
    assert_views(lambda c, hs, rho, fs: envelope_identities(n, hd, c, hs, rho, fs),
                     (c, 2), (hs, 2), (rho, 2), (fs, 1))
    assert_views(lambda b, t, hs, rho, d: delta_identities(n, hd, b, t, hs, rho, d),
                     (c, 2), (t, 3), (hs, 2), (rho, 2), (d, 2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["LY1", "LY2", "LY3"]), st.data())
def test_perturbed_omni_copies_match_the_parent(axiom, data):
    """Rows rebuilt and cells shared, as the omni_tensor benchmark perturbs an
    LY structure; every slice of LY1-LY6 against the scan above."""
    ly = OMNI_LY[2]
    n = ly.dim
    i, j, k = data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                 unique=axiom == "LY3"))
    l, x = data.draw(st.integers(0, n - 1)), data.draw(rationals().filter(bool))
    b, t = ly.b, ly.t
    if axiom == "LY1":
        b = shifted(b, 2, [((i, j), l, x)])
    else:
        t = shifted(t, 3, [((i, j, k), l, x)] + ([((j, i, k), l, -x)] if axiom == "LY3" else []))
    assert_views(lambda b, t: ly_identities(n, b, t), (b, 2), (t, 3))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.sampled_from([2, 3]), st.sampled_from(ZERO_STYLES), st.data())
def test_skew_failures_match_the_parent(n, arity, style, data):
    """Skew tensors with some keys dropped, so that a key k with k0 > k1 may
    lose its partner, some diagonal cells added, and some values changed."""
    key = st.tuples(*[st.integers(0, n - 1)] * arity)
    entry = st.tuples(key, st.integers(0, n - 1), rationals().filter(bool))
    cells: dict = {}
    for k, m, x in data.draw(st.lists(entry, max_size=10)):
        if k[0] != k[1]:
            cells.setdefault(k, {})[m] = x
            cells.setdefault(k[1::-1] + k[2:], {})[m] = -x
    for k in data.draw(st.lists(st.sampled_from(sorted(cells)), max_size=2)) if cells else ():
        cells.pop(k, None)
    for k, m, x in data.draw(st.lists(entry, max_size=2)):
        if data.draw(st.booleans()):
            k = k[:1] + k[:1] + k[2:]
        cells.setdefault(k, {})[m] = x
    dense = dense_of((n,) * (arity + 1), cells, style)
    assert_views(lambda t: [], (dense, arity))


@pytest.mark.parametrize("case", SKEW_CASES)
@pytest.mark.parametrize("arity", [2, 3])
def test_skew_failures_by_hand_match_the_parent(case, arity):
    """A key (2, 1) with no partner, a nonzero diagonal cell, and partners
    that differ in one value or one output index."""
    cells, _ = SKEW_CASES[case]
    if arity == 3:
        cells = {key + (k,): cell for key, cell in cells.items() for k in (0, 1)}
    assert_views(lambda t: [], (materialize(3, arity, cells), arity))


# -- sigma_s checks, kept verbatim -----------------------------------------------

def ref_section_sigma(t, s) -> Matrix:
    """Matrix of sigma_s: E -> g, x -> (s f(x), x)."""
    sq = as_q(s)
    top = (t.f * sq).entries
    bottom = Matrix.identity(t.e.dim).entries
    return Matrix(top + bottom)


_REF_G: dict[int, tuple] = {}


def ref_g(t) -> StructureAlgebra:
    """The semidirect sum g of h and E, built once per triple (the triple is kept alive)."""
    if id(t) not in _REF_G:
        _REF_G[id(t)] = (t, semidirect_lie(t.h, t.action))
    return _REF_G[id(t)][1]


def ref_projected_bracket_delta(t, s, x, y):
    sq = as_q(s)
    sigma = ref_section_sigma(t, sq)
    w = ref_g(t).product(sigma.apply(x), sigma.apply(y))
    hd = t.h.dim
    h_raw, e_part = w[:hd], w[hd:]
    delta = vsub(h_raw, vscale(sq, t.f.apply(e_part)))
    return e_part, delta


def ref_recovery_check(t) -> bool:
    n = t.e.dim
    half = Q(1, 2)
    for i in range(n):
        for j in range(n):
            e_part, _ = ref_projected_bracket_delta(t, half, basis_vec(n, i), basis_vec(n, j))
            if e_part != t.e.skew_product(basis_vec(n, i), basis_vec(n, j)):
                return False
    return True


def ref_sigma_one_embed_check(t) -> bool:
    hemi = hemisemidirect(t.h, t.action)
    sigma = ref_section_sigma(t, 1)
    n = t.e.dim
    for i in range(n):
        for j in range(n):
            lhs = hemi.product(sigma.apply(basis_vec(n, i)), sigma.apply(basis_vec(n, j)))
            if lhs != sigma.apply(t.e.c[i][j]):
                return False
    return True


def ref_scaling_check(t, svals=DEFAULT_S_VALUES):
    n = t.e.dim
    for s in svals:
        sq = as_q(s)
        for i in range(n):
            for j in range(n):
                x, y = basis_vec(n, i), basis_vec(n, j)
                e_part, delta = ref_projected_bracket_delta(t, sq, x, y)
                br = t.e.skew_product(x, y)
                if e_part != vscale(2 * sq, br):
                    return False, (str(sq), i, j, "bracket")
                if delta != vscale(-(sq * sq), t.f.apply(br)):
                    return False, (str(sq), i, j, "delta")
    return True, None


def sigma_triples() -> list[EnvelopeTriple]:
    """Valid envelopes, and triples whose f breaks the bracket or only the delta part.

    On heis3 + Q the last basis vector acts by zero and is central in h = E, so
    adding it to f keeps every E-projection and moves only the h-projection.
    """
    valid = [lambda_envelope(a) for a in LEIBNIZ[:6]] + [t for t, *_ in ENVELOPES]
    out = list(valid)
    for t in valid[:6]:
        for r, col in ((0, -1), (-1, 0)):
            rows = thawed(t.f.entries)
            rows[r][col] += Q(1, 3)
            out.append(EnvelopeTriple(t.e, t.h, t.action, Matrix.from_rows(rows)))
    e = direct_sum(make_heisenberg3(), StructureAlgebra.abelian(1))
    t = canonical_envelope(e, squares_ideal(e))
    rows = thawed(t.f.entries)
    rows[3][2] += Q(2, 5)
    out.append(EnvelopeTriple(t.e, t.h, t.action, Matrix.from_rows(rows)))
    return out


SIGMA_TRIPLES = sigma_triples()


@pytest.mark.parametrize("k", range(len(SIGMA_TRIPLES)))
def test_sigma_checks_match_reference(k):
    t = SIGMA_TRIPLES[k]
    svals = (Q(1), Q(1, 2), Q(-2), Q(3, 7), 5)
    assert scaling_check(t) == ref_scaling_check(t)
    assert scaling_check(t, svals) == ref_scaling_check(t, svals)
    assert recovery_check(t) == ref_recovery_check(t)
    assert sigma_one_embed_check(t) == ref_sigma_one_embed_check(t)


@pytest.mark.parametrize("svals", [(0, Q(1, 2), Q(-2)), (0, 0, 5), (Q(3, 7), Q(3, 7), 1),
                                   (Q(-2), 0, Q(-2)), (0,), ()])
@pytest.mark.parametrize("k", range(len(SIGMA_TRIPLES)))
def test_scaling_check_with_zero_or_repeated_s(k, svals):
    t = SIGMA_TRIPLES[k]
    assert scaling_check(t, svals) == ref_scaling_check(t, svals)


def test_sigma_triples_reach_every_outcome():
    results = [ref_scaling_check(t) for t in SIGMA_TRIPLES]
    parts = {w[3] for ok, w in results if not ok}
    assert (True, None) in results and parts == {"bracket", "delta"}
    assert results[-1] == (False, ("1", 0, 1, "delta"))
    assert {ref_recovery_check(t) for t in SIGMA_TRIPLES} == {True, False}
    assert {ref_sigma_one_embed_check(t) for t in SIGMA_TRIPLES} == {True, False}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(SIGMA_TRIPLES))), st.one_of(st.just(0), rationals()), st.data())
def test_projected_bracket_delta_matches_reference(k, s, data):
    t = SIGMA_TRIPLES[k]
    x, y = (tuple(data.draw(st.lists(rationals(), min_size=t.e.dim, max_size=t.e.dim)))
            for _ in range(2))
    assert projected_bracket_delta(t, s, x, y) == ref_projected_bracket_delta(t, s, x, y)


def test_sigma_checks_read_no_dense_g_sigma_or_algebra(monkeypatch):
    """The checks scan f, rho and the structure constants: with every dense
    path patched to raise they still give the reference results."""
    refs = [(ref_recovery_check(t), ref_scaling_check(t), ref_sigma_one_embed_check(t),
             ref_projected_bracket_delta(t, Q(2, 3), (1,) * t.e.dim, (0,) + (1,) * (t.e.dim - 1)))
            for t in SIGMA_TRIPLES]

    def dense(*args, **kwargs):
        raise AssertionError("a sigma_s check read a dense g, sigma_s or algebra")

    monkeypatch.setattr(EnvelopeTriple, "g", property(dense))
    monkeypatch.setattr(envelope, "section_sigma", dense)
    monkeypatch.setattr(envelope, "hemisemidirect", dense, raising=False)
    monkeypatch.setattr(products, "hemisemidirect", dense)
    monkeypatch.setattr(StructureAlgebra, "from_constants", staticmethod(dense))
    monkeypatch.setattr(StructureAlgebra, "from_products", staticmethod(dense))
    for t, ref in zip(SIGMA_TRIPLES, refs):
        n = t.e.dim
        assert (recovery_check(t), scaling_check(t), sigma_one_embed_check(t),
                projected_bracket_delta(t, Q(2, 3), (1,) * n, (0,) + (1,) * (n - 1))) == ref
