"""Loops from Leibniz algebras and the canonical connection."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    Matrix,
    ModuleAction,
    NotNilpotentError,
    Pcg32,
    Poly,
    VectorField,
    connection_eval,
    constant_field,
    curvature_field,
    gl_action,
    hemi_loop_closed_form,
    left_divide,
    left_inner_mapping,
    left_inverse,
    loop_context,
    loop_gate,
    loop_product,
    loop_property_check,
    hemisemidirect,
    random_vector,
    torsion_field,
)
from leibniz_forge.linalg import basis_vec, vscale
from leibniz_forge.loops import LoopContext

from conftest import make_aff1_hemi, make_n2_hemi, make_nl3, make_so3


class TestGate:
    def test_nilpotent_algebra_passes(self, leibniz2, corpus):
        for a in (leibniz2, corpus["n2_hemi"], corpus["nilp4_s13"]):
            gate = loop_gate(a)
            assert gate.basis_nilpotent
            assert gate.sampled_nilpotent
            assert gate.envelope_nilpotent
            assert gate.exact_ok

    def test_so3_fails_immediately(self, so3):
        gate = loop_gate(so3)
        assert not gate.basis_nilpotent
        assert not gate.exact_ok

    def test_aff1_hemi_fails(self):
        assert not loop_gate(make_aff1_hemi()).exact_ok

    def test_nl3_passes_despite_non_leibniz(self, nl3):
        # nilpotency of multiplications is independent of the Leibniz identity
        assert loop_gate(nl3).exact_ok


class TestContext:
    def test_auto_selects_exact(self, leibniz2):
        assert loop_context(leibniz2).mode == "exact"

    def test_auto_falls_back_to_float(self, so3):
        assert loop_context(so3).mode == "float"

    def test_explicit_exact_refused_for_so3(self, so3):
        with pytest.raises(NotNilpotentError, match="float mode"):
            loop_context(so3, mode="exact")

    def test_unknown_mode(self, leibniz2):
        with pytest.raises(ValueError):
            loop_context(leibniz2, mode="symbolic")


class TestLoopOperations:
    def test_closed_form_2dim(self, leibniz2):
        # (a, b) <> (c, d) = (a + c + bd/2, b + d) at s = 1/2
        ctx = loop_context(leibniz2)
        assert loop_product(ctx, (1, 2), (3, 4)) == (Q(8), Q(6))
        assert loop_product(ctx, (0, 0), (3, 4)) == (Q(3), Q(4))
        assert loop_product(ctx, (3, 4), (0, 0)) == (Q(3), Q(4))

    def test_left_inverse_value(self, leibniz2):
        ctx = loop_context(leibniz2)
        assert left_inverse(ctx, (1, 2)) == (Q(1), Q(-2))
        assert loop_product(ctx, (Q(1), Q(-2)), (1, 2)) == (Q(0), Q(0))

    def test_left_divide(self, leibniz2):
        ctx = loop_context(leibniz2)
        rng = Pcg32(4)
        for _ in range(10):
            a = random_vector(rng, 2)
            b = random_vector(rng, 2)
            assert loop_product(ctx, a, left_divide(ctx, a, b)) == b

    def test_inner_mapping_defining_identity(self, corpus):
        a = corpus["nilp5_s14"]
        ctx = loop_context(a)
        rng = Pcg32(8)
        for _ in range(5):
            u = random_vector(rng, a.dim)
            v = random_vector(rng, a.dim)
            z = random_vector(rng, a.dim)
            lhs = loop_product(ctx, loop_product(ctx, u, v),
                               left_inner_mapping(ctx, u, v).apply(z))
            rhs = loop_product(ctx, u, loop_product(ctx, v, z))
            assert lhs == rhs


class TestLoopProperties:
    def test_exact_members(self, corpus):
        for name in ("leibniz2", "n2_hemi", "nilp2_s11", "nilp3_s12",
                     "nilp4_s13", "nilp5_s14", "nilp4_s15"):
            ctx = loop_context(corpus[name])
            assert ctx.mode == "exact"
            rep = loop_property_check(ctx, samples=40, seed=1)
            assert rep.ok, f"{name}: {[c.name for c in rep.checks if not c.ok]}"

    def test_float_so3(self, so3):
        ctx = loop_context(so3, tol=1e-8)
        assert ctx.mode == "float"
        rep = loop_property_check(ctx, samples=30, seed=2)
        assert rep.ok, [c.name for c in rep.checks if not c.ok]

    def test_nl3_fails_exactly_the_two_laws(self, nl3):
        ctx = loop_context(nl3)
        assert ctx.mode == "exact"
        rep = loop_property_check(ctx, samples=40, seed=1)
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.ok}
        assert failed == {"left_inverse_property", "inner_mapping_automorphism"}

    def test_nl3_lip_witness_names_the_sample_vectors(self, nl3):
        ctx = loop_context(nl3)
        rep = loop_property_check(ctx, samples=40, seed=1)
        lip = next(c for c in rep.checks if c.name == "left_inverse_property")
        k = int(lip.witness.split(":")[0].removeprefix("sample "))
        rng = Pcg32(1)
        quads = [tuple(random_vector(rng, 3) for _ in range(4)) for _ in range(k + 1)]
        a, b = quads[k][:2]
        assert loop_product(ctx, left_inverse(ctx, a), loop_product(ctx, a, b)) != b
        text = ", ".join(f"{name}=({', '.join(map(str, v))})" for name, v in (("a", a), ("b", b)))
        assert lip.witness == f"sample {k}: {text}"

    def test_nl3_lip_witness_value(self, nl3):
        # x = e1, y = e2: x' <> (x <> y) = (0, 1, 3/16) instead of y
        ctx = loop_context(nl3)
        x, y = basis_vec(3, 0), basis_vec(3, 1)
        xinv = left_inverse(ctx, x)
        got = loop_product(ctx, xinv, loop_product(ctx, x, y))
        assert got == (Q(0), Q(1), Q(3, 16))


class TestClosedForm:
    def test_matches_generic_exactly(self):
        from leibniz_forge import StructureAlgebra
        hemi = make_n2_hemi()
        h = StructureAlgebra.abelian(1, name="n2")
        act = ModuleAction(h, (Matrix.from_rows([[0, 1], [0, 0]]),))
        ctx = loop_context(hemi)
        rng = Pcg32(12)
        for _ in range(10):
            v = random_vector(rng, 3)
            w = random_vector(rng, 3)
            hp, vp = hemi_loop_closed_form(act, Q(1, 2), v[:1], v[1:], w[:1], w[1:])
            assert hp + vp == loop_product(ctx, v, w)

    def test_triangular_slice_of_omni(self):
        # strictly upper triangular xi makes lambda(xi, x) nilpotent even though
        # the full omni algebra fails the global gate; per element contexts
        # constructed directly stay exact
        act = gl_action(2)
        omni = hemisemidirect(act.h, act)
        ctx = LoopContext(omni, Q(1, 2), "exact")
        xi = (Q(0), Q(1), Q(0), Q(0))  # E12
        x = (Q(1), Q(2))
        eta = (Q(0), Q(3), Q(0), Q(0))
        y = (Q(4), Q(5))
        hp, vp = hemi_loop_closed_form(act, Q(1, 2), xi, x, eta, y)
        assert hp + vp == loop_product(ctx, xi + x, eta + y)

    def test_float_mode_matches(self, corpus):
        so3 = make_so3()
        mats = tuple(so3.left_mul(basis_vec(3, i)) for i in range(3))
        act = ModuleAction(so3, mats)
        a = corpus["so3_hemi"]
        ctx = loop_context(a, tol=1e-12)
        rng = Pcg32(31)
        for _ in range(5):
            v = random_vector(rng, 6)
            w = random_vector(rng, 6)
            hp, vp = hemi_loop_closed_form(act, Q(1, 2), v[:3], v[3:], w[:3], w[3:],
                                           mode="float", tol=1e-12)
            got = loop_product(ctx, v, w)
            for left, right in zip(hp + vp, got):
                assert abs(left - right) < 1e-9


class TestConnection:
    def test_constant_fields(self, corpus):
        a = corpus["omni_hemi1"]
        s = Q(1, 2)
        x = constant_field(a.dim, (1, 2))
        y = constant_field(a.dim, (3, 5))
        nabla = connection_eval(a, s, x, y)
        expected = vscale(-s, a.product((Q(1), Q(2)), (Q(3), Q(5))))
        for k in range(a.dim):
            assert nabla.components[k] == Poly.const(a.dim, expected[k])

    def test_identity_field(self, leibniz2):
        # Y(p) = p gives DY = I, so nabla_X Y = X - s X.p
        x = constant_field(2, (0, 1))
        y = VectorField(2, (Poly.var(2, 0), Poly.var(2, 1)))
        nabla = connection_eval(leibniz2, Q(1, 2), x, y)
        # X . p = (x2, 0) for X = e2, so components are (-x2/2, 1)
        assert nabla.components[0] == Poly.var(2, 1) * Q(-1, 2)
        assert nabla.components[1] == Poly.const(2, Q(1))

    def test_torsion_constant_fields(self, corpus):
        for name in ("omni_hemi1", "aff1_hemi", "leibniz2"):
            a = corpus[name]
            s = Q(1, 2)
            rng = Pcg32(6)
            for _ in range(4):
                xv = random_vector(rng, a.dim)
                yv = random_vector(rng, a.dim)
                tor = torsion_field(a, s, constant_field(a.dim, xv),
                                    constant_field(a.dim, yv))
                expected = vscale(-2 * s, a.skew_product(xv, yv))
                for k in range(a.dim):
                    assert tor.components[k] == Poly.const(a.dim, expected[k])

    def test_curvature_constant_fields(self, corpus):
        for name in ("omni_hemi1", "aff1_hemi"):
            a = corpus[name]
            s = Q(1, 2)
            rng = Pcg32(7)
            for _ in range(4):
                xv = random_vector(rng, a.dim)
                yv = random_vector(rng, a.dim)
                zv = random_vector(rng, a.dim)
                cur = curvature_field(a, s,
                                      constant_field(a.dim, xv),
                                      constant_field(a.dim, yv),
                                      constant_field(a.dim, zv))
                expected = vscale(s * s, a.product(a.product(xv, yv), zv))
                for k in range(a.dim):
                    assert cur.components[k] == Poly.const(a.dim, expected[k])

    def test_s_zero_is_flat_for_constants(self, leibniz2):
        x = constant_field(2, (1, 2))
        y = constant_field(2, (3, 4))
        nabla = connection_eval(leibniz2, 0, x, y)
        assert all(p.is_zero() for p in nabla.components)
