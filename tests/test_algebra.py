"""Structure constants, the squares ideal, and Lie quotients."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    Matrix,
    NotAnIdealError,
    Pcg32,
    StructureAlgebra,
    Subspace,
    commutator,
    direct_sum,
    inverse,
    is_ideal,
    kernel_of_lambda,
    quotient_algebra,
    random_unimodular,
    random_vector,
    squares_ideal,
)
from leibniz_forge.linalg import basis_vec, is_zero_vec, vadd, vscale, vsub

from conftest import make_broken3, make_idem1, make_nl3

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestLeibnizCheck:
    def test_corpus_members_are_leibniz(self, corpus):
        for name, a in corpus.items():
            ok, witness = a.check_leibniz()
            assert ok, f"{name} failed at {witness}"

    @pytest.mark.parametrize("builder", [make_nl3, make_idem1, make_broken3])
    def test_negatives_report_witness(self, builder):
        a = builder()
        ok, witness = a.check_leibniz()
        assert not ok
        i, j, k, lhs, rhs = witness
        x, y, z = (basis_vec(a.dim, t) for t in (i, j, k))
        assert a.product(x, a.product(y, z)) == lhs
        assert vadd(a.product(a.product(x, y), z), a.product(y, a.product(x, z))) == rhs
        assert lhs != rhs

    def test_leibniz_iff_lambda_homomorphism(self, corpus):
        algebras = list(corpus.values()) + [make_nl3(), make_idem1(), make_broken3()]
        for a in algebras:
            n = a.dim
            lam = [a.left_mul(basis_vec(n, i)) for i in range(n)]
            homo = all(commutator(lam[i], lam[j]) == a.left_mul(a.c[i][j])
                       for i in range(n) for j in range(n))
            assert homo == a.is_leibniz

    def test_lie_flags(self, corpus):
        assert corpus["so3"].is_lie
        assert corpus["heis3"].is_lie
        assert not corpus["leibniz2"].is_skew
        assert not corpus["leibniz2"].is_lie
        b = make_broken3()
        assert b.is_skew and not b.check_jacobi() and not b.is_lie


    @pytest.mark.parametrize("c", [
        StructureAlgebra.abelian(2).c,  # 2 x 2 x 2
        (((Q(0),) * 3,) * 3, ((Q(0),) * 3,) * 2, ((Q(0),) * 3,) * 3),  # a row of 2 cells
        (((Q(0),) * 3,) * 3, ((Q(0),) * 3,) * 3, ((Q(0),) * 3,) * 2 + ((Q(1),) * 2,)),
    ])
    def test_direct_construction_checks_its_shape(self, c):
        # StructureAlgebra(3, <2 x 2 x 2>, names).check_leibniz() used to return (True, None)
        with pytest.raises(ValueError, match="structure tensor is not dim x dim x dim"):
            StructureAlgebra(3, c, ("e1", "e2", "e3"))
        with pytest.raises(ValueError, match="structure tensor is not dim x dim x dim"):
            StructureAlgebra.from_constants([[list(cell) for cell in row] for row in c] +
                                            [[[0] * 3] * 3] * (3 - len(c)))

    def test_direct_construction_of_the_right_shape(self, corpus):
        a = corpus["omni_hemi2"]
        b = StructureAlgebra(a.dim, a.c, a.basis_names, a.name)
        assert b.check_leibniz() == a.check_leibniz() and b.sparse.entries == a.sparse.entries
        for names in (a.basis_names[1:], ("x",) * a.dim):
            with pytest.raises(ValueError, match="basis names must be distinct and match"):
                StructureAlgebra(a.dim, a.c, names)

    @pytest.mark.parametrize("products", [
        {(-1, 0): {0: 1}},  # used to wrap around to e2 e1 = e1
        {(0, 0): {-1: 5}},  # used to write e1 e1 = 5 e2
        {(2, 0): {0: 1}},  # used to end in an IndexError
        {(0, 0): {2: 1}},
        {(0,): {0: 1}},
        {(0, 1, 0): {0: 1}},
    ])
    def test_products_outside_the_basis_are_value_errors(self, products):
        with pytest.raises(ValueError, match=r"^basis product .* is not over 0\.\.1$"):
            StructureAlgebra.from_products(2, products)


class TestProductOperations:
    @settings(max_examples=30)
    @given(xs=st.lists(rationals, min_size=2, max_size=2),
           ys=st.lists(rationals, min_size=2, max_size=2),
           c=rationals)
    def test_bilinearity(self, leibniz2, xs, ys, c):
        a = leibniz2
        x, y = tuple(xs), tuple(ys)
        cx = vscale(c, x)
        assert a.product(cx, y) == vscale(c, a.product(x, y))
        assert a.product(x, vscale(c, y)) == vscale(c, a.product(x, y))
        assert a.product(vadd(x, y), y) == vadd(a.product(x, y), a.product(y, y))

    def test_skew_and_symmetrized_split(self, leibniz2):
        a = leibniz2
        x, y = (Q(1), Q(2)), (Q(3), Q(5))
        sym = vscale(Q(1, 2), vadd(a.product(x, y), a.product(y, x)))
        assert vadd(a.skew_product(x, y), sym) == a.product(x, y)
        assert a.skew_product(x, y) == vscale(Q(-1), a.skew_product(y, x))

    def test_left_mul_matches_product(self, corpus):
        a = corpus["omni_hemi2"]
        rng = Pcg32(3)
        for _ in range(5):
            x = random_vector(rng, a.dim)
            y = random_vector(rng, a.dim)
            assert a.left_mul(x).apply(y) == a.product(x, y)

    def test_skew_symmetrize_of_lie_is_identity(self, so3):
        assert so3.skew_symmetrize().c == so3.c

    def test_change_basis_preserves_leibniz(self, corpus):
        """Unimodular and permutation bases: Leibniz is kept, the inverse basis goes back,
        and the constants are the dense formula's, p^-1 applied to each u_a . u_b."""
        rng = Pcg32(21)
        for name in ("leibniz2", "nilp4_s13", "omni_hemi1"):
            a = corpus[name]
            shift = Matrix.from_cols([basis_vec(a.dim, (k + 1) % a.dim) for k in range(a.dim)])
            for p in (random_unimodular(rng, a.dim), shift):
                b = a.change_basis(p)
                assert b.is_leibniz
                q = inverse(p)
                assert q is not None
                assert b.change_basis(q).c == a.c
                cols = [p.col(k) for k in range(a.dim)]
                assert b.c == tuple(tuple(q.apply(a.product(x, y)) for y in cols) for x in cols)


class TestSquaresIdeal:
    def test_contains_all_squares(self, corpus):
        for name, a in corpus.items():
            j = squares_ideal(a)
            rng = Pcg32(5)
            for i in range(a.dim):
                e = basis_vec(a.dim, i)
                assert j.contains(a.product(e, e))
            for _ in range(8):
                v = random_vector(rng, a.dim)
                assert j.contains(a.product(v, v)), name

    def test_is_two_sided_ideal(self, corpus):
        for a in corpus.values():
            assert is_ideal(a, squares_ideal(a))

    def test_inside_kernel_of_lambda(self, corpus):
        for name, a in corpus.items():
            assert kernel_of_lambda(a).contains_subspace(squares_ideal(a)), name

    def test_leibniz2_values(self, leibniz2):
        j = squares_ideal(leibniz2)
        assert j.dim == 1
        assert j.contains((Q(1), Q(0)))
        assert not j.contains((Q(0), Q(1)))

    def test_lie_algebra_has_zero_squares(self, so3):
        assert squares_ideal(so3).dim == 0


class TestQuotients:
    def test_quotient_by_squares_is_lie(self, corpus):
        for name, a in corpus.items():
            q, proj = quotient_algebra(a, squares_ideal(a))
            assert q.is_lie, name
            assert q.dim == a.dim - squares_ideal(a).dim

    def test_projection_is_homomorphism(self, corpus):
        for name in ("leibniz2", "omni_hemi2", "nilp5_s14"):
            a = corpus[name]
            q, proj = quotient_algebra(a, squares_ideal(a))
            rng = Pcg32(9)
            for _ in range(6):
                x = random_vector(rng, a.dim)
                y = random_vector(rng, a.dim)
                assert proj.apply(a.product(x, y)) == q.product(proj.apply(x), proj.apply(y))

    def test_quotient_by_kernel_is_lie(self, corpus):
        for name in ("leibniz2", "aff1_hemi", "omni_hemi1"):
            a = corpus[name]
            m = kernel_of_lambda(a)
            if is_ideal(a, m):
                q, _ = quotient_algebra(a, m)
                assert q.is_lie

    def test_non_ideal_rejected(self, leibniz2):
        bad = Subspace.span(2, [(Q(0), Q(1))])
        assert not is_ideal(leibniz2, bad)
        with pytest.raises(NotAnIdealError):
            quotient_algebra(leibniz2, bad)


class TestDirectSum:
    def test_dimensions_and_cross_products(self, leibniz2, so3):
        s = direct_sum(leibniz2, so3)
        assert s.dim == 5
        assert s.is_leibniz
        for i in range(2):
            for j in range(2, 5):
                assert is_zero_vec(s.product_basis(i, j))
                assert is_zero_vec(s.product_basis(j, i))
        assert s.product_basis(1, 1) == (Q(1), Q(0), Q(0), Q(0), Q(0))


class TestSubspace:
    def test_canonical_representatives(self):
        s = Subspace.span(3, [(1, 1, 0), (0, 1, 1)])
        assert s.dim == 2
        assert s.contains((Q(1), Q(2), Q(1)))
        assert not s.contains((Q(0), Q(0), Q(1)))
        v = (Q(2), Q(3), Q(1))
        r = s.reduce(v)
        assert s.contains(vsub(v, r))

    def test_coords_reconstruct(self):
        s = Subspace.span(3, [(1, 1, 0), (0, 1, 1)])
        v = (Q(1), Q(3), Q(2))
        coords = s.coords(v)
        rebuilt = (Q(0),) * 3
        for c, row in zip(coords, s.basis):
            rebuilt = vadd(rebuilt, vscale(c, row))
        assert rebuilt == v

    @pytest.mark.parametrize("v", [(1, 2), (1, 2, 3, 4)])
    def test_coords_of_a_wrong_length_vector(self, v):
        with pytest.raises(ValueError, match="vector length does not match the ambient dimension"):
            Subspace.whole(3).coords(v)

    def test_add_and_containment(self):
        a = Subspace.span(3, [(1, 0, 0)])
        b = Subspace.span(3, [(0, 1, 0)])
        both = a.add(b)
        assert both.dim == 2
        assert both.contains_subspace(a) and both.contains_subspace(b)
        assert Subspace.whole(3).contains_subspace(both)
        assert both.contains_subspace(Subspace.zero(3))

    @pytest.mark.parametrize("basis", [((1, 1), (1, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                                       ((2, 0),), ((0, 0),), ((1, 0), (1, 0)), ((1, 0, 5),),
                                       ((0, 1), (0, 0, 1)), ((1.0, 0.5),)])
    def test_rejects_a_basis_not_in_canonical_rref(self, basis):
        s = Subspace(2, basis)
        for read in (lambda: s.pivots, lambda: s.contains((0, 1)), lambda: s.coords((1, 1)),
                     lambda: s.complement_coords):
            with pytest.raises(ValueError, match=r"not canonical rref in Q\^2"):
                read()

    def test_canonical_bases_unchanged(self):
        assert Subspace.span(3, [(2, 2, 0), (0, 3, 3), (1, 2, 1)]).basis == (
            (Q(1), Q(0), Q(-1)), (Q(0), Q(1), Q(1)))
        assert Subspace.zero(3).basis == () and Subspace.zero(3).pivots == ()
        assert Subspace.whole(2).basis == ((Q(1), Q(0)), (Q(0), Q(1)))
        assert Subspace.whole(2).pivots == (0, 1)
        s = Subspace(3, ((1, 0, 2), (0, 1, -1)))
        assert s.pivots == (0, 1) and s.contains((1, 1, 1)) and s.coords((2, 3, 1)) == (2, 3)

    def test_complement_coords(self):
        s = Subspace.span(3, [(1, 0, 2)])
        assert s.pivots == (0,)
        assert s.complement_coords == (1, 2)

    def test_pivots_computed_once(self):
        s = Subspace.span(4, [(0, 2, 0, 1), (0, 0, 1, 1)])
        assert s.pivots == (1, 2) and s.pivots is s.pivots
        assert s == Subspace.span(4, [(0, 1, 0, Q(1, 2)), (0, 0, 1, 1)])
