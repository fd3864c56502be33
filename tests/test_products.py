"""Module actions, the three products on h x V, and the graph criteria."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    InvalidActionError,
    ModuleAction,
    Pcg32,
    StructureAlgebra,
    circle_product,
    demisemidirect,
    gl_action,
    gl_algebra,
    graph_criterion,
    hemisemidirect,
    matrix_lie_algebra,
    omni_algebras,
    random_vector,
    semidirect_lie,
)
from leibniz_forge.linalg import Matrix, basis_vec, vadd

from conftest import make_broken3, make_idem1, make_nl3, make_so3


@pytest.fixture(scope="module")
def gl1_line():
    # gl(1) = Q acting on Q by multiplication
    h = StructureAlgebra.abelian(1, name="gl1")
    return h, ModuleAction(h, (Matrix.from_rows([[1]]),))


class TestModuleAction:
    def test_shape_validation(self):
        h = StructureAlgebra.abelian(2)
        with pytest.raises(InvalidActionError):
            ModuleAction(h, (Matrix.identity(2),))
        with pytest.raises(InvalidActionError):
            ModuleAction(h, (Matrix.identity(2), Matrix.zeros(2, 3)))

    def test_homomorphism_validation(self):
        h = StructureAlgebra.from_products(
            2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, name="aff1")
        with pytest.raises(InvalidActionError, match="not a Lie homomorphism"):
            ModuleAction(h, (Matrix.from_rows([[1]]), Matrix.from_rows([[1]])))

    def test_non_lie_h_rejected(self):
        h = StructureAlgebra.from_products(1, {(0, 0): {0: 1}})
        with pytest.raises(InvalidActionError, match="not a Lie"):
            ModuleAction(h, (Matrix.from_rows([[1]]),))

    def test_zero_dim_h_needs_space_dim(self):
        h = StructureAlgebra.abelian(0)
        with pytest.raises(InvalidActionError):
            ModuleAction(h, ())
        act = ModuleAction(h, (), space_dim=2)
        assert act.v_dim == 2

    def test_of_is_linear(self, gl1_line):
        _, act = gl1_line
        assert act.of((Q(3),)) == Matrix.from_rows([[3]])

    def test_check_forms_no_action_matrix(self, monkeypatch):
        def dense(self, hvec):
            raise AssertionError("dense action matrix formed")
        monkeypatch.setattr(ModuleAction, "of", dense)
        assert gl_action(2).v_dim == 2


class TestMatrixLieAlgebra:
    def test_returns_the_action_and_span(self):
        so3 = make_so3()
        lams = [so3.left_mul(basis_vec(3, i)) for i in range(3)]
        act, span = matrix_lie_algebra(3, lams, "L", "lam")
        assert act.v_dim == 3 and span.dim == 3
        assert act.mats == tuple(Matrix.from_flat(r, 3) for r in span.basis)
        assert act.h.basis_names == ("L1", "L2", "L3") and act.h.name == "lam"
        assert act.h.is_lie and act.h.c[0][1] == (0, 0, -1)

    def test_zero_family(self):
        act, span = matrix_lie_algebra(2, [Matrix.zeros(2, 2)], "p")
        assert act.h.dim == 0 and act.v_dim == 2 and span.dim == 0

    def test_non_closing_family_rejected(self):
        # [E12, E21] = diag(1, -1) has zero entries at both pivots of the span
        e12, e21 = Matrix.from_rows([[0, 1], [0, 0]]), Matrix.from_rows([[0, 0], [1, 0]])
        with pytest.raises(InvalidActionError, match=r"homomorphism at basis pair \(0, 1\)"):
            matrix_lie_algebra(2, [e12, e21], "p")


class TestThreeProducts:
    def test_hemi_worked_example(self, gl1_line):
        h, act = gl1_line
        a = hemisemidirect(h, act)
        assert a.product((Q(2), Q(3)), (Q(5), Q(7))) == (Q(0), Q(14))

    def test_demi_worked_example(self, gl1_line):
        h, act = gl1_line
        a = demisemidirect(h, act)
        assert a.product((Q(2), Q(3)), (Q(5), Q(7))) == (Q(0), Q(-1, 2))

    def test_semidirect_worked_example(self, gl1_line):
        h, act = gl1_line
        a = semidirect_lie(h, act)
        assert a.product((Q(2), Q(3)), (Q(5), Q(7))) == (Q(0), Q(-1))
        assert a.is_lie

    def test_hemi_is_leibniz_demi_is_skew(self):
        hemi, demi = omni_algebras(2)
        assert hemi.dim == 6 and demi.dim == 6
        assert hemi.is_leibniz and not hemi.is_skew
        assert demi.is_skew and not demi.is_leibniz

    def test_demi_is_skew_symmetrization_of_hemi(self):
        hemi, demi = omni_algebras(2)
        rng = Pcg32(17)
        for _ in range(10):
            x = random_vector(rng, 6)
            y = random_vector(rng, 6)
            assert demi.product(x, y) == hemi.skew_product(x, y)

    def test_circle_completes_the_split(self):
        act = gl_action(2)
        hemi, demi = omni_algebras(2)
        rng = Pcg32(23)
        for _ in range(10):
            x = random_vector(rng, 6)
            y = random_vector(rng, 6)
            assert vadd(demi.product(x, y), circle_product(act.h, act, x, y)) \
                == hemi.product(x, y)

    def test_gl_algebra_bracket(self):
        gl2 = gl_algebra(2)
        # [E11, E12] = E12 in the row-major basis (E11, E12, E21, E22)
        assert gl2.product_basis(0, 1) == (Q(0), Q(1), Q(0), Q(0))
        assert gl2.product_basis(1, 2) == (Q(1), Q(0), Q(0), Q(-1))
        assert gl2.is_lie


    @pytest.mark.parametrize("build", [semidirect_lie, hemisemidirect, demisemidirect])
    def test_h_must_be_the_actions_h(self, build):
        act = gl_action(2)
        # gl(1) used to end in an IndexError, and a relabelled gl(2) was taken with its names
        renamed = StructureAlgebra(4, act.h.c, ("a", "b", "c", "d"), act.h.name)
        other_bracket = StructureAlgebra.abelian(4, name="gl(2)")
        for h in (gl_algebra(1), renamed, other_bracket):
            with pytest.raises(InvalidActionError, match="action is not an action of the supplied h"):
                build(h, act)
        # an equal h that is another object is the action's h
        assert build(gl_algebra(2), act, "p") == build(act.h, act, "p")

class TestGraphCriterion:
    def test_agreement_on_corpus(self, corpus):
        for name, a in corpus.items():
            rep = graph_criterion(a)
            assert rep.graph_closed_under_leibniz == a.is_leibniz, name
            assert rep.graph_is_lie_subalgebra == a.is_lie, name

    def test_negatives_have_witnesses(self):
        for builder in (make_nl3, make_idem1, make_broken3):
            a = builder()
            rep = graph_criterion(a)
            assert not rep.graph_closed_under_leibniz
            assert rep.closure_witness is not None
            i, j = rep.closure_witness
            assert 0 <= i < a.dim and 0 <= j < a.dim

    def test_leibniz_non_lie_split(self, leibniz2):
        rep = graph_criterion(leibniz2)
        assert rep.graph_closed_under_leibniz
        assert not rep.circle_vanishes_on_graph
        assert not rep.graph_is_lie_subalgebra
        assert rep.circle_witness == (1, 1)

    def test_lie_graph_is_subalgebra(self, so3):
        rep = graph_criterion(so3)
        assert rep.graph_closed_under_leibniz
        assert rep.circle_vanishes_on_graph
        assert rep.graph_is_lie_subalgebra
        assert rep.closure_witness is None and rep.circle_witness is None
