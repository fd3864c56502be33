"""Loops from Leibniz algebras and the canonical connection."""

from __future__ import annotations

import math
import re
from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    Matrix,
    ModuleAction,
    NotNilpotentError,
    Pcg32,
    Poly,
    StructureAlgebra,
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
from leibniz_forge.loops import LoopContext, _envelope_nilpotent

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

    def test_envelope_chain_builds_no_fraction(self, corpus, monkeypatch):
        """The chain multiplies canonical integer rows by the integer cells: with every
        Fraction construction refused, each nilpotent algebra of the corpus still passes."""
        nilpotent = [a for a in corpus.values() if loop_gate(a).envelope_nilpotent]
        assert [a.sparse.scaled for a in nilpotent]  # the integer cells, built before the refusal

        def refused(cls, *args, **kwargs):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(Q, "__new__", staticmethod(refused))
        assert all(_envelope_nilpotent(a) for a in nilpotent)

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

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, so3, tol):
        # tol = inf would let every float law pass whatever the loop computes
        act = ModuleAction(so3, tuple(so3.left_mul(basis_vec(3, i)) for i in range(3)))
        for make in (lambda: loop_context(so3, tol=tol),
                     lambda: LoopContext(so3, Q(1, 2), "float", tol),
                     lambda: LoopContext(so3, Q(1, 2), "exact", tol),
                     lambda: hemi_loop_closed_form(act, Q(1, 2), (1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1), (1, 1, 1), mode="float", tol=tol)):
            with pytest.raises(ValueError, match="finite positive tolerance required"):
                make()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_property_check_needs_a_sample(self, leibniz2, so3, samples):
        for ctx in (loop_context(leibniz2), loop_context(so3, tol=1e-8)):
            with pytest.raises(ValueError, match="at least one sample required"):
                loop_property_check(ctx, samples=samples)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_float_vectors_must_be_finite(self, so3, bad):
        ctx = loop_context(so3, tol=1e-8)
        for op in (lambda: loop_product(ctx, (0, 0, 0), (bad, 0, 0)),
                   lambda: loop_product(ctx, (0, bad, 0), (0, 0, 0)),
                   lambda: left_inverse(ctx, (1, 2, bad)),
                   lambda: left_divide(ctx, (1, 2, 3), (bad, 0, 0)),
                   lambda: left_inner_mapping(ctx, (bad, 0, 0), (0, 0, 0))):
            with pytest.raises(ValueError, match="non-finite vector entry"):
                op()


    @pytest.mark.parametrize("mode", ["bogus", "auto", "EXACT", ""])
    def test_context_rejects_an_unknown_mode(self, leibniz2, mode):
        # "bogus" used to run float mode silently; "auto" is loop_context's alone
        act = ModuleAction(leibniz2.skew_symmetrize(), (Matrix.from_rows([[0, 1], [0, 0]]),) * 2)
        makes = [lambda: LoopContext(leibniz2, Q(1, 2), mode),
                 lambda: hemi_loop_closed_form(act, Q(1, 2), (1, 0), (0, 1), (0, 1), (1, 1),
                                               mode=mode)]
        if mode != "auto":
            makes.append(lambda: loop_context(leibniz2, mode=mode))
        for make in makes:
            with pytest.raises(ValueError, match=re.escape(f"unknown mode {mode!r}")):
                make()

    @pytest.mark.parametrize("s, want", [(1, Q(1)), ("-2/3", Q(-2, 3)), (Q(3, 5), Q(3, 5))])
    def test_context_reads_s_as_an_exact_scalar(self, leibniz2, s, want):
        for mode in ("exact", "float"):
            ctx = LoopContext(leibniz2, s, mode)
            assert type(ctx.s) is Q and ctx.s == want
        ctx = LoopContext(leibniz2, s, "exact")
        assert loop_product(ctx, (1, 2), (3, 4)) == (4 + 8 * want, Q(6))
        assert loop_context(leibniz2, s).s == want

    def test_context_rejects_a_float_s(self, leibniz2):
        # exact mode used to fail later, on s.numerator
        for mode in ("exact", "float"):
            with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
                LoopContext(leibniz2, 0.5, mode)

    @pytest.mark.parametrize("c, entry", [(3198, "inf"), (108, "nan")])
    def test_float_exp_beyond_the_float_range_is_a_non_finite_entry(self, c, entry):
        # a squaring of exp(s lambda) overflows inside math.fsum, or adds -inf to inf
        a = StructureAlgebra.from_products(2, {(0, 1): {0: c}, (1, 0): {1: c}})
        ctx = LoopContext(a, Q(2, 3), "float")
        with pytest.raises(ValueError, match=f"^non-finite entry {entry}$"):
            loop_property_check(ctx, samples=3)

    def test_float_mode_values_beyond_the_float_range_are_input_errors(self, so3):
        # float() of these exact values raised an OverflowError
        big = 10**400
        ctx = loop_context(so3, tol=1e-8)
        for op in (lambda: loop_product(ctx, (big, 0, 0), (0, 1, 1)),
                   lambda: left_inverse(ctx, (1, Q(-big, 3), 0))):
            with pytest.raises(ValueError, match="^non-finite vector entry: beyond the float range$"):
                op()
        ctx = LoopContext(so3, Q(big, 7), "float")
        with pytest.raises(ValueError, match="^non-finite s: beyond the float range$"):
            loop_product(ctx, (1, 0, 0), (0, 1, 1))
        a = StructureAlgebra.from_products(2, {(0, 1): {0: big}, (1, 0): {1: 1}})
        ctx = LoopContext(a, Q(1, 2), "float")
        with pytest.raises(ValueError, match="^non-finite structure constant: beyond the float range$"):
            loop_product(ctx, (1, 0), (0, 1))


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
