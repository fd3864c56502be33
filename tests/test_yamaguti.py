"""Lie-Yamaguti structures, reductive decompositions, and their envelopes."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    LieYamaguti,
    delta_matrix,
    inner_derivations,
    ly_envelope,
    ly_from_decomposition,
    ly_from_leibniz,
    torsion_curvature,
    validate_ly,
)
from leibniz_forge.linalg import Matrix, basis_vec, vneg, vscale, vzero

from conftest import make_nl3, make_so3


def zero_bin(n):
    return tuple(tuple(vzero(n) for _ in range(n)) for _ in range(n))


def zero_tern(n):
    return tuple(tuple(tuple(vzero(n) for _ in range(n)) for _ in range(n))
                 for _ in range(n))


class TestFromLeibniz:
    def test_corpus_members_validate(self, corpus):
        for name, a in corpus.items():
            if a.dim > 6:
                continue
            rep = validate_ly(ly_from_leibniz(a))
            assert rep.ok, f"{name}: {rep.axiom} at {rep.at}"

    def test_rejects_non_leibniz(self):
        with pytest.raises(ValueError, match="not a Leibniz"):
            ly_from_leibniz(make_nl3())

    def test_tensor_values_leibniz2(self, leibniz2):
        ly = ly_from_leibniz(leibniz2)
        # products are symmetric up to ker lambda, so both tensors vanish
        assert ly.b == zero_bin(2)
        assert ly.t == zero_tern(2)

    def test_hemi_ternary_formula(self, corpus):
        # on a hemisemidirect algebra: {x, y, z} = -([[xi,eta],zeta], [xi,eta] z)/4
        a = corpus["omni_hemi2"]
        ly = ly_from_leibniz(a)
        n = a.dim
        for (i, j, k) in ((0, 1, 2), (1, 4, 5), (2, 3, 0), (0, 5, 4)):
            xy = a.product_basis(i, j)
            expected = vscale(Q(-1, 4), a.product(xy, basis_vec(n, k)))
            assert ly.t[i][j][k] == expected

    def test_binary_is_skew_product(self, corpus):
        a = corpus["nilp4_s13"]
        ly = ly_from_leibniz(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert ly.b[i][j] == a.skew_product(basis_vec(a.dim, i),
                                                    basis_vec(a.dim, j))


class TestValidateNegatives:
    def test_ly1_violation(self):
        b = ((vzero(2), (Q(1), Q(0))), ((Q(1), Q(0)), vzero(2)))
        rep = validate_ly(LieYamaguti(2, b, zero_tern(2)))
        assert not rep.ok and rep.axiom == "LY1" and rep.at == (0, 1)

    def test_ly2_violation(self):
        t = [[[vzero(2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        t[0][1][0] = (Q(1), Q(0))
        t[1][0][0] = (Q(1), Q(0))
        ly = LieYamaguti(2, zero_bin(2),
                         tuple(tuple(tuple(r) for r in p) for p in t))
        rep = validate_ly(ly)
        assert not rep.ok and rep.axiom == "LY2" and rep.at == (0, 1, 0)

    def test_ly3_violation_from_perturbed_so3(self):
        ly = ly_from_leibniz(make_so3())
        t = [[[list(cell) for cell in row] for row in plane] for plane in ly.t]
        t[0][1][2][0] += 1
        t[1][0][2][0] -= 1
        bad = LieYamaguti(3, ly.b,
                          tuple(tuple(tuple(tuple(c) for c in row) for row in plane)
                                for plane in t))
        rep = validate_ly(bad)
        assert not rep.ok and rep.axiom == "LY3" and rep.at == (0, 1, 2)


    def test_from_tensors_rejects_floats(self):
        with pytest.raises(TypeError, match="not an exact scalar"):
            LieYamaguti.from_tensors([[[0.1]]], [[[[0.5]]]])
        ly = LieYamaguti.from_tensors([[["1/2"]]], [[[[3]]]])
        assert ly.b == (((Q(1, 2),),),) and ly.t == ((((Q(3),),),),)


class TestDecomposition:
    def test_sphere_triple_system(self, so3):
        # g = so(3), h = span{e3}, m = span{e1, e2}
        h = [basis_vec(3, 2)]
        m = [basis_vec(3, 0), basis_vec(3, 1)]
        ly = ly_from_decomposition(so3, h, m)
        assert ly.b == zero_bin(2)
        # {e1, e2, e1} = [[e1,e2]_h, e1] = [e3, e1] = e2
        assert ly.t[0][1][0] == (Q(0), Q(1))
        assert ly.t[0][1][1] == (Q(-1), Q(0))
        assert validate_ly(ly).ok
        assert delta_matrix(ly, 0, 1) == Matrix.from_rows([[0, -1], [1, 0]])

    def test_rejects_non_reductive(self):
        # aff(1) with h = span{e2}: [e2, e1] = -e2 leaves m = span{e1}
        from leibniz_forge import StructureAlgebra
        aff1 = StructureAlgebra.from_products(
            2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, name="aff1")
        with pytest.raises(ValueError, match="reductive"):
            ly_from_decomposition(aff1, [basis_vec(2, 1)], [basis_vec(2, 0)])

    def test_rejects_non_subalgebra_h(self, so3):
        two = [basis_vec(3, 0), basis_vec(3, 1)]
        with pytest.raises(ValueError, match="subalgebra"):
            ly_from_decomposition(so3, two, [basis_vec(3, 2)])

    def test_rejects_overlapping_split(self, so3):
        with pytest.raises(ValueError, match="direct sum"):
            ly_from_decomposition(so3, [basis_vec(3, 0)],
                                  [basis_vec(3, 0), basis_vec(3, 1)])


class TestEnvelope:
    def test_round_trip_on_corpus(self, corpus):
        for name, a in corpus.items():
            if a.dim > 6:
                continue
            ly = ly_from_leibniz(a)
            env = ly_envelope(ly)
            gd, hd, md = env.g.dim, env.h_dim, env.m_dim
            assert md == ly.dim and gd == hd + md
            assert env.g.is_lie
            back = ly_from_decomposition(
                env.g,
                [basis_vec(gd, t) for t in range(hd)],
                [basis_vec(gd, hd + i) for i in range(md)])
            assert back.b == ly.b and back.t == ly.t, name

    def test_explicit_data_accepted(self, corpus):
        ly = ly_from_leibniz(corpus["omni_hemi2"])
        env = ly_envelope(ly)
        again = ly_envelope(ly, h=env.h, action=env.action, delta=env.delta)
        assert again.g.c == env.g.c

    def test_explicit_data_must_come_together(self, corpus):
        ly = ly_from_leibniz(corpus["omni_hemi2"])
        env = ly_envelope(ly)
        with pytest.raises(ValueError, match="together"):
            ly_envelope(ly, h=env.h)

    def test_corrupted_delta_rejected(self, corpus):
        ly = ly_from_leibniz(corpus["omni_hemi2"])
        env = ly_envelope(ly)
        if env.h_dim == 0:
            pytest.skip("trivial inner derivation algebra")
        bad = [[list(cell) for cell in row] for row in env.delta]
        bad[0][1][0] += 1
        bad[1][0][0] -= 1
        with pytest.raises(ValueError, match="delta1"):
            ly_envelope(ly, h=env.h, action=env.action, delta=bad)

    def test_explicit_delta_rejects_floats(self, corpus):
        ly = ly_from_leibniz(corpus["omni_hemi2"])
        env = ly_envelope(ly)
        floats = [[[float(x) for x in cell] for cell in row] for row in env.delta]
        with pytest.raises(TypeError, match="not an exact scalar"):
            ly_envelope(ly, h=env.h, action=env.action, delta=floats)

    def test_inner_derivation_span(self, so3):
        h = [basis_vec(3, 2)]
        m = [basis_vec(3, 0), basis_vec(3, 1)]
        ly = ly_from_decomposition(so3, h, m)
        gens, span = inner_derivations(ly)
        assert len(gens) == 1
        assert span.dim == 1


class TestTorsionCurvature:
    def test_negation(self, corpus):
        ly = ly_from_leibniz(corpus["omni_hemi1"])
        tb, tt = torsion_curvature(ly)
        for i in range(ly.dim):
            for j in range(ly.dim):
                assert tb[i][j] == vneg(ly.b[i][j])
                for k in range(ly.dim):
                    assert tt[i][j][k] == vneg(ly.t[i][j][k])
