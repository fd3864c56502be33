"""Exact linear algebra kernel: parsing, rref, kernels, exponentials."""

from __future__ import annotations

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    Matrix,
    NotNilpotentError,
    Pcg32,
    commutator,
    inverse,
    is_nilpotent,
    kernel_basis,
    mat_exp_exact,
    mat_exp_float,
    parse_rational,
    random_unimodular,
    rref,
)
from leibniz_forge.linalg import (
    FloatMatrix,
    _insert_row,
    basis_vec,
    exp_apply,
    format_rational,
    vdot,
    vzero,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
big_rationals = st.builds(Q, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30))
# mostly zeros, as in the sparse lambda(x) and their products
zero_heavy = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals)


def square(n: int):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.from_rows)


class TestRationalParsing:
    def test_round_trip(self):
        for s in ("0", "7", "-3", "1/2", "-22/7", "+4/9"):
            assert format_rational(parse_rational(s)) == str(Q(s))

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "a", "1 / 2", "2/"])
    def test_rejects_non_rational(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestRref:
    def test_worked_example(self):
        r, pivots = rref(Matrix.from_rows([[2, 4], [1, 2]]))
        assert [list(row) for row in r.entries] == [[Q(1), Q(2)], [Q(0), Q(0)]]
        assert pivots == (0,)

    def test_int_entries_stay_exact(self):
        r, pivots = rref(Matrix(((2, 3),)))
        assert r.entries == ((Q(1), Q(3, 2)),) and pivots == (0,)
        assert all(type(x) is Q for x in r.entries[0])
        r, _ = rref(Matrix(((0, 4, 6), (3, 0, 1))))
        assert r.entries == ((Q(1), Q(0), Q(1, 3)), (Q(0), Q(1), Q(3, 2)))
        assert all(type(x) is Q for row in r.entries for x in row)

    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(square))
    def test_idempotent(self, m):
        r, pivots = rref(m)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(zero_heavy, min_size=4, max_size=4), max_size=6))
    def test_canonical_rows_are_primitive_integer_rows(self, vectors):
        """Fraction rows go in; every stored row holds only ints with gcd 1, leads at its
        pivot with a positive entry and is 0 at every other pivot."""
        rows: dict = {}
        for v in vectors:
            _insert_row(rows, {j: x for j, x in enumerate(v) if x})
        for p, r in rows.items():
            assert all(type(x) is int and x for x in r.values())
            assert math.gcd(*r.values()) == 1 and min(r) == p and r[p] > 0
            assert not r.keys() & rows.keys() - {p}

    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(square))
    def test_rank_nullity(self, m):
        _, pivots = rref(m)
        assert len(pivots) + len(kernel_basis(m)) == m.cols


class TestKernelAndSolve:
    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(square))
    def test_kernel_vectors_annihilated(self, m):
        for v in kernel_basis(m):
            assert m.apply(v) == vzero(m.rows)


class TestInverse:
    def test_unimodular_round_trip(self):
        for seed in range(5):
            p = random_unimodular(Pcg32(seed), 4)
            q = inverse(p)
            assert q is not None
            assert p @ q == Matrix.identity(4)

    def test_singular_returns_none(self):
        assert inverse(Matrix.from_rows([[1, 2], [2, 4]])) is None


class TestNilpotencyAndExp:
    def test_strictly_triangular(self):
        n = Matrix.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        assert is_nilpotent(n) == (True, 3)
        assert is_nilpotent(Matrix.zeros(2, 2)) == (True, 1)
        assert is_nilpotent(Matrix.identity(2))[0] is False

    def test_exp_exact_inverse_pair(self):
        n = Matrix.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
        e = mat_exp_exact(n)
        enegative = mat_exp_exact(n * Q(-1))
        assert e @ enegative == Matrix.identity(3)
        assert mat_exp_exact(Matrix.zeros(2, 2)) == Matrix.identity(2)

    def test_exp_exact_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            mat_exp_exact(Matrix.identity(1))

    @pytest.mark.parametrize("m, v", [
        (Matrix.zeros(3, 3), (Q(0), Q(0))),                 # a zero vector, which used to pass
        (Matrix.zeros(3, 3), (Q(0),) * 4),
        (Matrix.from_rows([[0, 1], [0, 0]]), (Q(1), Q(2), Q(3))),
        (Matrix.identity(2), (Q(1),)),                     # not nilpotent: the length comes first
        (Matrix(()), (Q(1),)),
    ])
    def test_exp_apply_checks_the_length_first(self, m, v):
        with pytest.raises(ValueError, match=f"shape mismatch: {m.rows}x{m.rows} applied to "
                                             f"length {len(v)}$"):
            exp_apply(m, v)

    def test_exp_apply_raises_not_nilpotent_on_a_matching_vector(self):
        with pytest.raises(NotNilpotentError, match="^not nilpotent; use float mode$"):
            exp_apply(Matrix.identity(2), (Q(1), Q(0)))

    def test_exp_additivity_for_commuting(self):
        n = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        lhs = mat_exp_exact(n * Q(2))
        rhs = mat_exp_exact(n) @ mat_exp_exact(n)
        assert lhs == rhs

    def test_exp_float_matches_exact_on_nilpotent(self):
        n = Matrix.from_rows([[0, Q(1, 3), 2], [0, 0, Q(-5, 2)], [0, 0, 0]])
        exact = FloatMatrix.from_exact(mat_exp_exact(n))
        approx = mat_exp_float(n)
        assert max(abs(x - y) for a, b in zip(exact.entries, approx.entries)
                   for x, y in zip(a, b)) < 1e-12

    def test_exp_float_scales_a_norm_past_the_float_range(self):
        # the row sums 2e308 overflow fsum; the scaling exponent comes from their exact value
        n = FloatMatrix(((0.0, 1e308, 1e308), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        assert mat_exp_float(n).entries == ((1.0, 1e308, 1e308), (0.0, 1.0, 0.0),
                                            (0.0, 0.0, 1.0))
        skew = FloatMatrix(((0.0, 1e308, -1e308), (-1e308, 0.0, 1e308), (1e308, -1e308, 0.0)))
        with pytest.raises(ValueError, match="^non-finite entry "):
            mat_exp_float(skew)

    def test_inf_norm_past_the_float_range_is_inf(self):
        assert FloatMatrix(((1e308, 1e308),)).inf_norm() == math.inf
        assert FloatMatrix(((1e308, -1e308), (1.0, 2.0))).inf_norm() == math.inf
        assert FloatMatrix(((1e308, 0.0), (-3.0, 2.0))).inf_norm() == 1e308

    def test_exp_float_rotation(self):
        r = mat_exp_float(Matrix.from_rows([[0, -1], [1, 0]]))
        assert abs(r.entries[0][0] - math.cos(1.0)) < 1e-12
        assert abs(r.entries[1][0] - math.sin(1.0)) < 1e-12


    @pytest.mark.parametrize("row, col, entry", [
        ((1e308, 1e308), (1.0, 1.0), "inf"),  # math.fsum: intermediate overflow
        ((1e200, 1e200), (1e200, -1e200), "nan"),  # math.fsum: -inf + inf
    ])
    def test_float_sum_beyond_the_float_range_is_a_non_finite_entry(self, row, col, entry):
        a, b = FloatMatrix((row,)), FloatMatrix(tuple((x,) for x in col))
        for op in (lambda: a @ b, lambda: a.apply(col)):
            with pytest.raises(ValueError, match=f"^non-finite entry {entry}$"):
                op()

    def test_float_sum_with_a_finite_exact_value_is_rounded_once(self):
        # math.fsum overflows on the partial sum 1e308 + 1e308 of finite products, while
        # the exact sum is 1e308: it used to raise "non-finite entry inf"
        a = FloatMatrix(((1e308, 1e308, -1e308),))
        assert a.apply((1.0, 1.0, 1.0)) == (1e308,)
        assert (a @ FloatMatrix(((1.0,), (1.0,), (1.0,)))).entries == ((1e308,),)
        assert FloatMatrix(((1e308, -1e308, 5e307),)).apply((1.0, 1.0, 1.0)) == (5e307,)
        with pytest.raises(ValueError, match="^non-finite entry inf$"):
            FloatMatrix(((1e308, 1e308, -1e307),)).apply((1.0, 1.0, 1.0))  # 1.9e308

    @pytest.mark.parametrize("rows, entry", [
        # s lambda(x) of loop samples on {e1 e2 = c e1, e2 e1 = c e2} at s = 2/3, for c = 3198
        # and 108: a squaring of the exponential leaves the float range inside math.fsum
        ([[0.0, 710.6666666666666], [710.6666666666666, 0.0]], "inf"),
        ([[-0.0, -1.1274293245878251e+110], [1.3018432480861178e+110, -0.0]], "nan"),
    ])
    def test_exp_float_squaring_beyond_the_float_range(self, rows, entry):
        with pytest.raises(ValueError, match=f"^non-finite entry {entry}$"):
            mat_exp_float(FloatMatrix.from_rows(rows))

def ref_dot(a, b):
    """Dense reference: every product, zeros included."""
    return sum((x * y for x, y in zip(a, b)), Q(0))


@st.composite
def sparse_matrices(draw, rows: int, cols: int):
    """rows x cols, mostly zero, with some rows and columns entirely zero.

    Without rows there are no columns either: Matrix(()) is 0 x 0.
    """
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return Matrix(tuple(tuple(Q(0) if i in zero_rows or j in zero_cols else draw(zero_heavy)
                              for j in range(cols)) for i in range(rows)))


class TestZeroSkippingKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_match_dense_reference(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(sparse_matrices(r, k))
        b = data.draw(sparse_matrices(a.cols, c))
        v = data.draw(st.tuples(*[zero_heavy] * a.cols))
        w = data.draw(st.tuples(*[zero_heavy] * a.cols))
        dot = vdot(v, w)
        assert dot == ref_dot(v, w) and isinstance(dot, Q)
        av = a.apply(v)
        assert av == tuple(ref_dot(row, v) for row in a.entries)
        prod = a @ b
        assert prod.entries == tuple(tuple(ref_dot(row, b.col(j)) for j in range(b.cols))
                                     for row in a.entries)
        assert all(isinstance(x, Q) for x in av + prod.flat)

    def test_empty(self):
        assert vdot((), ()) == Q(0) and isinstance(vdot((), ()), Q)
        assert Matrix(()) @ Matrix(()) == Matrix(())
        assert Matrix(((), ())).apply(()) == (Q(0), Q(0))


class TestCommutator:
    def test_values(self):
        a = Matrix.from_rows([[0, 1], [0, 0]])
        b = Matrix.from_rows([[0, 0], [1, 0]])
        assert commutator(a, b) == Matrix.from_rows([[1, 0], [0, -1]])

    @settings(max_examples=25)
    @given(square(2), square(2))
    def test_antisymmetry(self, a, b):
        assert commutator(a, b) == commutator(b, a) * Q(-1)


class TestFromFlat:
    def test_rejects_entries_that_do_not_fill_the_square(self):
        for v in ((1, 2, 3), (1, 2, 3, 4, 5), ()):
            with pytest.raises(ValueError, match="do not fill a 2x2 matrix"):
                Matrix.from_flat(v, 2)

    def test_entries_are_fractions(self):
        m = Matrix.from_flat([1, 2, 3, 4], 2)
        assert m == Matrix.from_rows([[1, 2], [3, 4]])
        assert all(type(x) is Q for x in m.flat)
        assert Matrix.from_flat((), 0) == Matrix(())


class TestHelpers:
    def test_basis_vec(self):
        assert basis_vec(3, 1) == (Q(0), Q(1), Q(0))
