"""Enveloping Lie algebras: validation, canonical construction, sections."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    DEFAULT_S_VALUES,
    EnvelopeError,
    Matrix,
    ModuleAction,
    StructureAlgebra,
    Pcg32,
    Subspace,
    canonical_envelope,
    kernel_of_lambda,
    lambda_envelope,
    projected_bracket_delta,
    random_vector,
    recovery_check,
    scaling_check,
    section_sigma,
    sigma_one_embed_check,
    squares_ideal,
    validate_envelope,
)
from leibniz_forge.linalg import basis_vec, vscale, vzero


def canonical(a):
    return canonical_envelope(a, squares_ideal(a))


class TestValidation:
    def test_canonical_envelopes_validate(self, corpus):
        for name, a in corpus.items():
            t = canonical(a)
            validate_envelope(t.e, t.h, t.action, t.f)
            assert t.g.is_lie, name

    def test_lambda_envelopes_validate(self, corpus):
        for name in ("leibniz2", "aff1_hemi", "nilp3_s12", "so3"):
            t = lambda_envelope(corpus[name])
            validate_envelope(t.e, t.h, t.action, t.f)
            assert recovery_check(t), name

    def test_corrupted_f_rejected(self, leibniz2):
        t = canonical(leibniz2)
        bad_rows = [list(r) for r in t.f.entries]
        bad_rows[0][0] += 1
        bad = Matrix.from_rows(bad_rows)
        with pytest.raises(EnvelopeError):
            validate_envelope(t.e, t.h, t.action, bad)

    def test_corrupted_action_rejected(self, leibniz2):
        t = canonical(leibniz2)
        mats = list(t.action.mats)
        rows = [list(r) for r in mats[0].entries]
        rows[0][0] += 1
        mats[0] = Matrix.from_rows(rows)
        from leibniz_forge import ModuleAction
        try:
            act = ModuleAction(t.h, tuple(mats), t.action.space_dim)
        except Exception:
            return  # already rejected at construction
        with pytest.raises(EnvelopeError):
            validate_envelope(t.e, t.h, act, t.f)

    def test_non_leibniz_rejected(self):
        from conftest import make_nl3
        a = make_nl3()
        with pytest.raises(EnvelopeError):
            lambda_envelope(a)


class TestCanonicalConstruction:
    def test_leibniz2_shape(self, leibniz2):
        t = canonical(leibniz2)
        assert t.h.dim == 1
        assert t.g.dim == 3
        assert t.g.is_lie
        assert t.f_surjective

    def test_ideal_bounds_enforced(self, leibniz2):
        too_small = Subspace.zero(2)
        with pytest.raises(EnvelopeError, match="squares ideal"):
            canonical_envelope(leibniz2, too_small)

    def test_ideal_above_kernel_rejected(self, corpus):
        a = corpus["aff1_hemi"]
        ker = kernel_of_lambda(a)
        too_big = ker.add(Subspace.span(a.dim, [basis_vec(a.dim, 1)]))
        if too_big.dim > ker.dim:
            with pytest.raises(EnvelopeError, match="ker lambda"):
                canonical_envelope(a, too_big)

    def test_no_second_ideal_test(self, corpus, monkeypatch):
        # the two containments already make M an ideal (proof in the docstring)
        from leibniz_forge import algebra

        def forbidden(*args):
            raise AssertionError("is_ideal called")

        monkeypatch.setattr(algebra, "is_ideal", forbidden)
        for name, a in corpus.items():
            for m in (squares_ideal(a), kernel_of_lambda(a)):
                assert canonical_envelope(a, m).h.dim == a.dim - m.dim, name
        with pytest.raises(AssertionError, match="is_ideal called"):
            algebra.quotient_algebra(corpus["leibniz2"], Subspace.zero(2))

    def test_no_kernel_of_lambda_is_built(self, corpus, monkeypatch):
        """M in ker lambda is decided on M's basis: with the null-space reader that
        kernel_of_lambda calls refusing, the triples and errors on the corpus and on
        the two non-ideal files stay the same."""
        from leibniz_forge import algebra

        def outcome(a, m):
            try:
                t = canonical_envelope(a, m)
            except EnvelopeError as e:
                return str(e)
            return t.h, t.action.mats, t.f

        three = StructureAlgebra.from_products(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})
        cases = [(a, m) for a in corpus.values()
                 for m in (squares_ideal(a), kernel_of_lambda(a), Subspace.zero(a.dim),
                           Subspace.whole(a.dim))]
        cases += [(corpus["leibniz2"], Subspace.span(2, [[0, 1]])),
                  (three, Subspace.span(3, [[1, 0, 0]]))]
        expected = [outcome(a, m) for a, m in cases]

        def forbidden(*args):
            raise AssertionError("_kernel called")

        monkeypatch.setattr(algebra, "_kernel", forbidden)
        with pytest.raises(AssertionError, match="_kernel called"):
            kernel_of_lambda(corpus["leibniz2"])
        assert [outcome(a, m) for a, m in cases] == expected
        assert expected[-2:] == ["ideal does not contain the squares ideal",
                                 "ideal is not contained in ker lambda"]

    def test_kernel_quotient(self, leibniz2):
        t = canonical_envelope(leibniz2, kernel_of_lambda(leibniz2))
        validate_envelope(t.e, t.h, t.action, t.f)
        assert recovery_check(t)

    def test_f_reproduces_lambda(self, corpus):
        for name in ("leibniz2", "omni_hemi1", "nilp4_s13"):
            a = corpus[name]
            t = canonical(a)
            rng = Pcg32(2)
            for _ in range(6):
                x = random_vector(rng, a.dim)
                y = random_vector(rng, a.dim)
                assert t.action.of(t.f.apply(x)).apply(y) == a.product(x, y)


class TestSectionAndScaling:
    def test_recovery_on_corpus(self, corpus):
        for name, a in corpus.items():
            assert recovery_check(canonical(a)), name

    def test_scaling_laws(self, corpus):
        for name in ("leibniz2", "omni_hemi1", "aff1_hemi", "nilp5_s14"):
            ok, witness = scaling_check(canonical(corpus[name]))
            assert ok, f"{name}: {witness}"

    def test_projected_bracket_values(self, leibniz2):
        t = canonical(leibniz2)
        x, y = (Q(0), Q(1)), (Q(0), Q(1))
        for s in DEFAULT_S_VALUES:
            e_part, delta = projected_bracket_delta(t, s, x, y)
            br = t.e.skew_product(x, y)
            assert e_part == vscale(2 * s, br)
            assert delta == vscale(-s * s, t.f.apply(br))

    def test_section_shape(self, leibniz2):
        t = canonical(leibniz2)
        sig = section_sigma(t, Q(1, 2))
        assert sig.rows == t.g.dim and sig.cols == t.e.dim
        # sigma(x) = (s f(x), x): bottom block is the identity
        for j in range(t.e.dim):
            col = sig.col(j)
            assert col[t.h.dim:] == basis_vec(t.e.dim, j)
            assert col[: t.h.dim] == vscale(Q(1, 2), t.f.col(j))

    def test_sigma_one_is_hemi_morphism(self, corpus):
        for name in ("leibniz2", "omni_hemi1", "heis3"):
            assert sigma_one_embed_check(canonical(corpus[name])), name

    def test_delta_vanishes_at_s_zero(self, leibniz2):
        t = canonical(leibniz2)
        x, y = (Q(1), Q(2)), (Q(3), Q(4))
        e_part, delta = projected_bracket_delta(t, Q(0), x, y)
        assert e_part == vzero(2) and delta == vzero(1)


class TestZeroH:
    """h = E/M = 0 happens exactly for an abelian E with M = E = ker lambda."""

    MESSAGE = "h = E/M is zero, and the 0 x 2 map f has no Matrix form"

    def test_lambda_envelope_of_abelian(self):
        with pytest.raises(EnvelopeError, match=f"^{self.MESSAGE}$"):
            lambda_envelope(StructureAlgebra.abelian(2))

    def test_canonical_envelope_with_kernel_ideal(self):
        a = StructureAlgebra.abelian(2)
        with pytest.raises(EnvelopeError, match=f"^{self.MESSAGE}$"):
            canonical_envelope(a, kernel_of_lambda(a))
        assert canonical_envelope(a, squares_ideal(a)).h.dim == 2

    def test_validate_envelope_names_the_cause(self):
        e, h = StructureAlgebra.abelian(2), StructureAlgebra.abelian(0)
        with pytest.raises(EnvelopeError, match=f"^{self.MESSAGE}$"):
            validate_envelope(e, h, ModuleAction(h, (), space_dim=2), Matrix(()))

