"""Exact linear algebra kernel: parsing, rref, kernels, exponentials."""

from __future__ import annotations

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
    solve_linear,
)
from leibniz_forge.linalg import FloatMatrix, basis_vec, format_rational, vdot, vzero

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
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
        assert r.to_lists() == [[Q(1), Q(2)], [Q(0), Q(0)]]
        assert pivots == (0,)

    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(square))
    def test_idempotent(self, m):
        r, pivots = rref(m)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots

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

    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(square),
           st.lists(rationals, min_size=3, max_size=3))
    def test_solve_consistent_system(self, m, xs):
        x = tuple(xs[: m.cols])
        b = m.apply(x)
        sol = solve_linear(m, b)
        assert sol is not None
        assert m.apply(sol) == b

    def test_solve_inconsistent(self):
        m = Matrix.from_rows([[1, 0], [1, 0]])
        assert solve_linear(m, (Q(1), Q(2))) is None


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

    def test_exp_additivity_for_commuting(self):
        n = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        lhs = mat_exp_exact(n * Q(2))
        rhs = mat_exp_exact(n) @ mat_exp_exact(n)
        assert lhs == rhs

    def test_exp_float_matches_exact_on_nilpotent(self):
        n = Matrix.from_rows([[0, Q(1, 3), 2], [0, 0, Q(-5, 2)], [0, 0, 0]])
        exact = FloatMatrix.from_exact(mat_exp_exact(n))
        approx = mat_exp_float(n)
        assert exact.max_abs_diff(approx) < 1e-12

    def test_exp_float_rotation(self):
        import math
        r = mat_exp_float(Matrix.from_rows([[0, -1], [1, 0]]))
        assert abs(r.entries[0][0] - math.cos(1.0)) < 1e-12
        assert abs(r.entries[1][0] - math.sin(1.0)) < 1e-12


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


class TestHelpers:
    def test_basis_vec(self):
        assert basis_vec(3, 1) == (Q(0), Q(1), Q(0))
