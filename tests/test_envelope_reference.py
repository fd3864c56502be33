"""Envelope checks, action matrices and the LY envelope against the dense
definitions of tests/test_action_reference.py.

validate_envelope checks a triple with three sparse identity scans; the
reference checks the same three conditions on every basis tuple, and each
accepted triple is checked for their consequences, which the package's
docstring proves follow from them (f is a homomorphism, the squares ideal lies
in ker f, ker f in ker lambda).
ModuleAction.of and circle_product contract the action's nonzero cells; the
reference sums the matrices. ly_envelope scans the ternary for skewness first
and reads only the pairs i < j; the reference reads every pair. Equal results
and equal exceptions, type and message, pin all four, h = 0 included. The last
tests pin that each fact is computed once.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    EnvelopeError,
    LieYamaguti,
    ModuleAction,
    StructureAlgebra,
    Subspace,
    canonical_envelope,
    circle_product,
    direct_sum,
    gl_action,
    kernel_of_lambda,
    lambda_envelope,
    ly_envelope,
    ly_from_leibniz,
    omni_algebras,
    squares_ideal,
    validate_envelope,
)
from leibniz_forge import envelope, yamaguti
from leibniz_forge.envelope import EnvelopeTriple
from leibniz_forge.linalg import Matrix
from leibniz_forge.yamaguti import LYEnvelope

from conftest import make_aff1_hemi, make_leibniz2, make_so3
from test_action_reference import (
    ACTIONS,
    CORPUS,
    algebra_key,
    assert_consequences,
    assert_same_ly_envelope,
    leibniz_algebras,
    outcome,
    perturbed_algebra,
    perturbed_mats,
    random_ly,
    ref_circle_product,
    ref_ly_envelope,
    ref_of,
    ref_validate_envelope,
    unchecked_action,
)


# -- comparison -----------------------------------------------------------------

def same_validation(e, h, action, f):
    """The outcome of validate_envelope, asserted equal to the reference's; a triple
    it accepts also satisfies what the three scans imply."""
    got = outcome(validate_envelope, e, h, action, f)
    assert got == outcome(ref_validate_envelope, e, h, action, f)
    if got[0] is not EnvelopeError:
        assert_consequences(validate_envelope(e, h, action, f))
    return got


def triples(e: StructureAlgebra) -> list[EnvelopeTriple]:
    """The envelopes the package builds on e: lambda, squares and kernel."""
    out = []
    for build in (lambda_envelope, lambda a: canonical_envelope(a, squares_ideal(a)),
                  lambda a: canonical_envelope(a, kernel_of_lambda(a))):
        try:
            out.append(build(e))
        except EnvelopeError:
            pass
    return out


def bumped(m: Matrix, r: int, s: int, by: Q) -> Matrix:
    rows = [list(row) for row in m.entries]
    rows[r][s] += by
    return Matrix.from_rows(rows)


def perturbed_triple(data, t: EnvelopeTriple, part: str) -> tuple:
    """(e, h, action, f) of t with one cell of f, of an action matrix, of h's
    structure constants or of E's moved; the action is then left unchecked."""
    e, h, act, f = t.e, t.h, t.action, t.f
    if part == "f":
        r = data.draw(st.integers(0, f.rows - 1))
        s = data.draw(st.integers(0, f.cols - 1))
        f = bumped(f, r, s, data.draw(st.sampled_from([Q(1), Q(-1), Q(1, 2)])))
    elif part == "action":
        act = unchecked_action(h, perturbed_mats(data, act.mats), act.v_dim)
    elif part == "h":
        h = perturbed_algebra(data, h)
        act = unchecked_action(h, act.mats, act.v_dim)
    elif part == "e":
        e = perturbed_algebra(data, e)
    return e, h, act, f


def kind(message: str) -> str:
    return re.sub(r"\d+", "#", message)


# -- validate_envelope ------------------------------------------------------------

VALIDATE_KINDS = {
    "h = E/M is zero, and the # x # map f has no Matrix form",
    "action is not an action of the supplied h",
    "action matrices do not act on E",
    "f must map E to h",
    "h is not a Lie algebra",
    "action matrix # is not a derivation at basis pair (#, #)",
    "f is not equivariant at (h basis #, E basis #)",
    "acting by f(e_#) does not reproduce left multiplication at (#, #)",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_triples_match(name):
    e = CORPUS[name]
    for t in triples(e):
        assert same_validation(t.e, t.h, t.action, t.f)[0] == algebra_key(e)


@pytest.mark.parametrize("d", [2, 3])
def test_omni_triples_match(d):
    ts = triples(omni_algebras(d)[0])
    assert len(ts) == 3
    for t in ts:
        same_validation(t.e, t.h, t.action, t.f)
        last = t.f.rows - 1, t.f.cols - 1
        for r, s in ((0, 0), last):
            same_validation(t.e, t.h, t.action, bumped(t.f, r, s, Q(1)))
            mats = [bumped(m, r % m.rows, s % m.rows, Q(-1)) if a in (0, t.h.dim - 1) else m
                    for a, m in enumerate(t.action.mats)]
            same_validation(t.e, t.h, unchecked_action(t.h, mats, t.action.v_dim), t.f)


@settings(max_examples=80, deadline=None)
@given(leibniz_algebras(), st.sampled_from(["none", "f", "action", "h", "e"]), st.data())
def test_random_triples_match(e, part, data):
    ts = triples(e)
    assume(ts)
    t = ts[data.draw(st.integers(0, len(ts) - 1))]
    same_validation(*perturbed_triple(data, t, part))


def one_cell_changes(t: EnvelopeTriple):
    """(e, h, action, f) of t with one cell of f, of one action matrix or of
    h's structure constants raised by 1, for every cell."""
    for r, s in product(range(t.f.rows), range(t.f.cols)):
        yield t.e, t.h, t.action, bumped(t.f, r, s, Q(1))
    for a, m in enumerate(t.action.mats):
        for r, s in product(range(m.rows), repeat=2):
            mats = [bumped(m, r, s, Q(1)) if b == a else x for b, x in enumerate(t.action.mats)]
            yield t.e, t.h, unchecked_action(t.h, mats, t.action.v_dim), t.f
    for i, j, k in product(range(t.h.dim), repeat=3):
        rows = [[list(cell) for cell in row] for row in t.h.c]
        rows[i][j][k] += 1
        h = StructureAlgebra.from_constants(rows, t.h.basis_names, t.h.name)
        yield t.e, h, unchecked_action(h, t.action.mats, t.action.v_dim), t.f


def test_every_message_is_reached():
    """Shape errors by construction, then every one-cell change on the
    envelopes of three small algebras."""
    e2, h0 = StructureAlgebra.abelian(2), StructureAlgebra.abelian(0)
    t = lambda_envelope(make_so3())
    wide = direct_sum(t.e, StructureAlgebra.abelian(1))
    cases = [(e2, h0, ModuleAction(h0, (), space_dim=2), Matrix(())),
             (t.e, StructureAlgebra.abelian(3), t.action, t.f),
             (wide, t.h, t.action, Matrix.from_cols([*map(t.f.col, range(3)), (0,) * 3])),
             (t.e, t.h, t.action, Matrix.from_cols([t.f.col(0), t.f.col(1)]))]
    cases += [args for e in (make_leibniz2(), make_aff1_hemi(), make_so3())
              for t in triples(e) for args in one_cell_changes(t)]
    outcomes = [same_validation(*args) for args in cases]
    assert {kind(got[1]) for got in outcomes if got[0] is EnvelopeError} == VALIDATE_KINDS


# -- ModuleAction.of and circle_product ---------------------------------------------

OF_ACTIONS = ACTIONS + [gl_action(2), gl_action(3),
                        lambda_envelope(omni_algebras(2)[0]).action]
SMALL = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2, 3), Q(-7, 5)])


def vectors(data, n: int) -> tuple:
    return tuple(data.draw(st.lists(SMALL, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(OF_ACTIONS))), st.data())
def test_action_matrices_match(which, data):
    act = OF_ACTIONS[which]
    hvec = vectors(data, act.h.dim)
    got = act.of(hvec)
    assert got.entries == ref_of(act.mats, act.v_dim, hvec).entries
    assert all(type(x) is Q for row in got.entries for x in row)
    a, b = vectors(data, act.h.dim + act.v_dim), vectors(data, act.h.dim + act.v_dim)
    assert circle_product(act.h, act, a, b) == ref_circle_product(act.h, act, a, b)


def test_action_matrices_of_basis_and_int_vectors_match():
    for act in OF_ACTIONS:
        hd = act.h.dim
        for hvec in [(0,) * hd, (1,) * hd] + [tuple(int(a == b) for b in range(hd))
                                             for a in range(hd)]:
            assert act.of(hvec).entries == ref_of(act.mats, act.v_dim, hvec).entries
    act = OF_ACTIONS[0]
    with pytest.raises(ValueError, match="^vector length does not match h x V$"):
        circle_product(act.h, act, (Q(1),), (Q(1),))


@pytest.mark.parametrize("space_dim", [0, 1, 2])
def test_zero_h_action_stays_exact(space_dim):
    h = StructureAlgebra.abelian(0)
    act = ModuleAction(h, (), space_dim=space_dim)
    assert act.of(()) == ref_of((), space_dim, ()) == Matrix.zeros(space_dim, space_dim)
    x, y = (Q(1), Q(2), Q(-3))[:space_dim], (Q(4), Q(0), Q(5))[:space_dim]
    assert circle_product(h, act, x, y) == ref_circle_product(h, act, x, y) \
        == (Q(0),) * space_dim


def test_actions_on_the_zero_space_match():
    h = StructureAlgebra.abelian(2)
    act = ModuleAction(h, (Matrix(()), Matrix(())), space_dim=0)
    assert act.of((Q(1), Q(-2))) == ref_of(act.mats, 0, (Q(1), Q(-2))) == Matrix(())
    a = (Q(1), Q(2))
    assert circle_product(h, act, a, a) == ref_circle_product(h, act, a, a) == (Q(0), Q(0))


# -- ly_envelope ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_ly_envelopes_match(name):
    assert_same_ly_envelope(ly_from_leibniz(CORPUS[name]))


def test_omni_ly_envelope_matches():
    assert_same_ly_envelope(ly_from_leibniz(omni_algebras(2)[0]))


@settings(max_examples=40, deadline=None)
@given(leibniz_algebras())
def test_random_leibniz_ly_envelopes_match(e):
    assert_same_ly_envelope(ly_from_leibniz(e))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_random_ly_envelopes_match(n, data):
    assert_same_ly_envelope(random_ly(data, n))


def test_ternary_not_skew_matches():
    """delta(e_1, e_0) is then outside the span of the delta(e_i, e_j), i < j;
    the ternary is scanned for skewness first, at the first failing tuple."""
    n = 2
    t = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    t[1][0][0][1] = Q(1)
    ly = LieYamaguti.from_tensors([[[Q(0)] * n for _ in range(n)] for _ in range(n)], t)
    assert assert_same_ly_envelope(ly) == (ValueError, "delta is not skew at (0, 1, 0)")


EXPLICIT_KINDS = {
    "delta is not skew at (#, #)",
    "delta# fails at (#, #, #): delta does not act as the ternary",
    "delta# fails at (h #, #, #): not equivariant",
    "delta# fails at (#, #, #): cyclic sum over the binary",
}


def widened(env: LYEnvelope, n: int) -> tuple:
    """env's (h, action, delta) with one more central basis element of h,
    acting by zero, in which delta has no component."""
    h = direct_sum(env.h, StructureAlgebra.abelian(1))
    action = ModuleAction(h, env.action.mats + (Matrix.zeros(n, n),), space_dim=n)
    return h, action, [[list(cell) + [Q(0)] for cell in row] for row in env.delta]


def test_explicit_ly_envelopes_match():
    """Every one-cell and every skew two-cell change of delta on small
    envelopes, with h as built and with h widened by a central direction
    that acts by zero; then the shape errors. (Jacobi is checked after
    either path; the random LY structures above reach its failure.)"""
    seen = set()
    for e in (make_aff1_hemi(), make_so3(), omni_algebras(1)[0], omni_algebras(2)[0]):
        ly = ly_from_leibniz(e)
        env, n = ly_envelope(ly), ly.dim
        for h, action, delta in ((env.h, env.action, env.delta), widened(env, n)):
            assert_same_ly_envelope(ly, h, action, delta)
            for i in range(n):
                for j in range(n):
                    for a in range(h.dim):
                        for skew in (False, True):
                            bad = [[list(cell) for cell in row] for row in delta]
                            bad[i][j][a] += 1
                            if skew:
                                bad[j][i][a] -= 1
                            got = assert_same_ly_envelope(ly, h, action, bad)
                            if got[0] is ValueError:
                                seen.add(kind(got[1]))
    assert seen == EXPLICIT_KINDS
    ly = ly_from_leibniz(make_so3())
    env = ly_envelope(ly)
    for args in ((env.h, None, None), (env.h, gl_action(2), env.delta)):
        assert_same_ly_envelope(ly, *args)


# -- each fact once ---------------------------------------------------------------

def forbid(monkeypatch, owner, *names: str) -> None:
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")
        monkeypatch.setattr(owner, name, refuse)


def test_validation_is_the_three_scans(monkeypatch):
    ts = triples(omni_algebras(2)[0])
    forbid(monkeypatch, envelope, "squares_ideal")
    forbid(monkeypatch, StructureAlgebra, "left_mul")
    forbid(monkeypatch, Matrix, "apply")
    for t in ts:
        validate_envelope(t.e, t.h, t.action, t.f)


def test_action_matrices_sum_no_dense_matrices(monkeypatch):
    act = gl_action(3)
    hvec = tuple(Q(a + 1, 3) for a in range(9))
    want = ref_of(act.mats, 3, hvec)
    a = hvec + (Q(1), Q(0), Q(-2))
    want_circle = ref_circle_product(act.h, act, a, a)
    forbid(monkeypatch, Matrix, "zeros", "__add__")
    assert act.of(hvec) == want
    forbid(monkeypatch, ModuleAction, "of")
    assert circle_product(act.h, act, a, a) == want_circle


def test_ly_envelope_row_reduces_once(monkeypatch):
    ly = ly_from_leibniz(omni_algebras(2)[0])
    spans, span = [], Subspace.span
    monkeypatch.setattr(Subspace, "span",
                        staticmethod(lambda *args: spans.append(args) or span(*args)))
    ly_envelope(ly)
    assert len(spans) == 1


def test_ly_envelope_reads_the_pairs_below_the_diagonal(monkeypatch):
    """Skewness of the ternary gives delta(e_j, e_i) and delta(e_i, e_i), so only
    the n(n - 1)/2 pairs i < j are read and given coordinates."""
    ly = ly_from_leibniz(omni_algebras(2)[0])
    want = outcome(ref_ly_envelope, ly)
    calls = {"delta_matrix": 0, "coords": 0}
    delta, coords = yamaguti.delta_matrix, Subspace.coords

    def counted(name, fn):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or fn(*args)
    monkeypatch.setattr(yamaguti, "delta_matrix", counted("delta_matrix", delta))
    monkeypatch.setattr(Subspace, "coords", counted("coords", coords))
    assert outcome(ly_envelope, ly) == want
    assert calls == {"delta_matrix": 15, "coords": 0}  # coordinates are read at the pivots
