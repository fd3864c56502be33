"""Row reduction and Subspace reads against the dense code kept here.

The package row-reduces through one elimination on nonzero entries, shared by
rref and by Subspace.reduce, contains and coords, and reads coordinates at the
pivots. The code kept below is the dense Gauss-Jordan sweep that rref was, the
dense pivot sweep that Subspace reduced with, and coordinates checked by a
dense rebuild from every basis row. Equal values and equal exceptions, type
and message, pin all four on hypothesis matrices (small, 40-digit and integer
entries, zero rows, duplicate rows, rank deficiency, 0 rows and 0 columns), on
vectors inside and outside each span, and on the spans of every algebra in the
shared corpus.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import Subspace, kernel_of_lambda, squares_ideal
from leibniz_forge.linalg import Matrix, as_q, basis_vec, is_zero_vec, rref, vadd, vscale

from conftest import build_corpus
from test_linalg import big_rationals, rationals, zero_heavy


# -- dense reference ----------------------------------------------------------

def ref_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot_row = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c] ** -1
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(tuple(tuple(row) for row in rows)), tuple(pivots)


class RefSubspace:
    def __init__(self, ambient_dim, basis):
        self.ambient_dim, self.basis = ambient_dim, tuple(basis)

    @staticmethod
    def span(ambient_dim, vectors):
        rows = [tuple(as_q(x) for x in v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match the ambient dimension")
        if not rows:
            return RefSubspace(ambient_dim, ())
        red, pivots = ref_rref(Matrix(tuple(rows)))
        return RefSubspace(ambient_dim, tuple(red.entries[i] for i in range(len(pivots))))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def pivots(self):
        return tuple(next(j for j, x in enumerate(r) if x != 0) for r in self.basis)

    @property
    def complement_coords(self):
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    def reduce(self, v):
        w = [as_q(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        for r, p in zip(self.basis, self.pivots):
            f = w[p]
            if f != 0:
                for j in range(self.ambient_dim):
                    w[j] -= f * r[j]
        return tuple(w)

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    def coords(self, v):
        """The entries at the pivots, checked by a dense rebuild of v from every basis row."""
        w = tuple(as_q(x) for x in v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        out = tuple(w[p] for p in self.pivots)
        rebuilt = (Q(0),) * self.ambient_dim
        for cf, r in zip(out, self.basis):
            if cf:
                rebuilt = vadd(rebuilt, vscale(cf, r))
        if rebuilt != w:
            raise ValueError("vector is not in the subspace")
        return out

    def add(self, other):
        return RefSubspace.span(self.ambient_dim, self.basis + other.basis)


def ref_squares_ideal(a):
    gens = []
    for i in range(a.dim):
        gens.append(a.c[i][i])
        for j in range(i + 1, a.dim):
            gens.append(vadd(a.c[i][j], a.c[j][i]))
    span = RefSubspace.span(a.dim, gens)
    while True:
        extra = []
        for v in span.basis:
            for k in range(a.dim):
                extra.append(a.lmul_basis(k, v))
                extra.append(a.rmul_basis(v, k))
        grown = span.add(RefSubspace.span(a.dim, extra))
        if grown.dim == span.dim:
            return grown
        span = grown


def ref_kernel_of_lambda(a):
    rows = [tuple(a.c[i][j][k] for i in range(a.dim)) for j in range(a.dim) for k in range(a.dim)]
    if not rows:
        return RefSubspace.span(a.dim, [])
    red, pivots = ref_rref(Matrix(tuple(rows)))
    ker = []
    for free in (j for j in range(a.dim) if j not in pivots):
        v = [Q(0)] * a.dim
        v[free] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, free]
        ker.append(tuple(v))
    return RefSubspace.span(a.dim, ker)


# -- comparisons --------------------------------------------------------------

def outcome(f, *args):
    try:
        return "value", f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def typed(m: Matrix):
    return [[(type(x), x) for x in r] for r in m.entries]


def assert_same_rref(m: Matrix) -> None:
    (red, pivots), (ref, ref_pivots) = rref(m), ref_rref(m)
    assert (typed(red), pivots) == (typed(ref), ref_pivots)


def assert_same_reads(s: Subspace, ref: RefSubspace, vectors) -> None:
    assert (s.ambient_dim, s.basis, s.pivots) == (ref.ambient_dim, ref.basis, ref.pivots)
    assert s.complement_coords == ref.complement_coords
    for v in vectors:
        for name in ("reduce", "contains", "coords"):
            assert outcome(getattr(s, name), v) == outcome(getattr(ref, name), v), (name, v)


def probes(n: int, gens) -> list:
    """Each generator, each basis vector, sums of neighbours and one wrong length."""
    gens = list(gens)
    out = gens + [basis_vec(n, j) for j in range(n)]
    out += [vadd(x, vscale(Q(-3, 2), y)) for x, y in zip(gens, gens[1:])]
    return out + [basis_vec(n + 1, 0)]


ENTRIES = [
    zero_heavy,
    st.one_of(st.just(Q(0)), big_rationals),  # 40-digit numerators, 30-digit denominators
    # integer rows whose primitive form mostly leads with neither 1 nor -1
    st.one_of(st.just(Q(0)), st.sampled_from([2, 3, -4, 6, -9, 10, 15]).map(Q)),
]


@st.composite
def matrices(draw):
    """Rows with many zeros, of small, big or integer entries, then zero rows and
    multiples or sums of earlier rows."""
    nr, nc, entries = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.sampled_from(ENTRIES))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["zero", "dup", "mul", "sum"]))
        f = draw(rationals)
        new = {"zero": [Q(0)] * nc, "dup": rows[i], "mul": [f * x for x in rows[i]],
               "sum": [x + f * y for x, y in zip(rows[i], rows[j])]}[kind]
        rows.insert(draw(st.integers(0, len(rows))), list(new))
    return nc, Matrix(tuple(tuple(r) for r in rows))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(st.lists(rationals, min_size=5, max_size=5), max_size=3))
def test_rref_and_reads_match_dense_reference(nm, combos):
    nc, m = nm
    assert_same_rref(m)
    s, ref = Subspace.span(nc, m.entries), RefSubspace.span(nc, m.entries)
    inside = [tuple(sum((cf * x for cf, x in zip(cfs, col)), Q(0)) for col in zip(*m.entries))
              for cfs in combos] if m.rows else []
    assert_same_reads(s, ref, probes(nc, list(m.entries) + inside))


@pytest.mark.parametrize("m", [Matrix(()), Matrix(((), ())), Matrix(((Q(0), Q(0)),)),
                               Matrix.from_rows([[0, 2, 4], [0, 1, 2], [0, 0, 0], [3, 0, 1]])])
def test_rref_edge_shapes(m):
    assert_same_rref(m)


def test_subspace_whole_and_zero():
    for n in range(4):
        for s in (Subspace.whole(n), Subspace.zero(n)):
            assert_same_reads(s, RefSubspace(n, s.basis), probes(n, s.basis))


def test_reads_reject_what_the_reference_rejects():
    s = Subspace.span(2, [[1, 0]])
    ref = RefSubspace.span(2, [[1, 0]])
    for v in ([0, 1], [1], [1, 2, 3], [Q(1, 2), 0], ["1/2", 0], [0.5, 0]):
        for name in ("reduce", "contains", "coords"):
            assert outcome(getattr(s, name), v) == outcome(getattr(ref, name), v), (name, v)
    assert outcome(Subspace.span, 2, [[1]]) == outcome(RefSubspace.span, 2, [[1]])


CORPUS = build_corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_spans_match_dense_reference(name):
    a = CORPUS[name]
    n = a.dim
    consts = [a.c[i][j] for i in range(n) for j in range(n)]
    lams = [a.left_mul(basis_vec(n, i)).flat for i in range(n)]
    for ambient, gens in ((n, consts), (n * n, lams)):
        if gens:
            assert_same_rref(Matrix(tuple(gens)))
        assert_same_reads(Subspace.span(ambient, gens), RefSubspace.span(ambient, gens),
                          probes(ambient, gens))
    for s, ref in ((squares_ideal(a), ref_squares_ideal(a)),
                   (kernel_of_lambda(a), ref_kernel_of_lambda(a))):
        assert_same_reads(s, ref, probes(n, consts))
