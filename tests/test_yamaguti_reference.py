"""ly_from_decomposition against a verbatim copy of its dense version.

The library reads the binary and the ternary straight from the bracket written
in the basis (h, m). The copy below projects every bracket through the inverse
basis matrix and composes through h by hand. Both must return an equal
LieYamaguti, or raise the same exception type with the same message.
"""

from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    LieYamaguti,
    Pcg32,
    StructureAlgebra,
    Subspace,
    ly_envelope,
    ly_from_decomposition,
    ly_from_leibniz,
    random_nilpotent_leibniz,
)
from leibniz_forge.linalg import (
    Matrix,
    Vec,
    basis_vec,
    inverse,
    is_zero_vec,
    vadd,
    vzero,
)
from leibniz_forge.sampling import random_unimodular

from conftest import make_leibniz2, make_nl3, make_so3


def dense_ly_from_decomposition(g: StructureAlgebra,
                                h_basis: Subspace | Sequence[Vec],
                                m_basis: Subspace | Sequence[Vec]) -> LieYamaguti:
    """LY structure on m from a reductive decomposition g = h (+) m.

    Binary: m-projection of the bracket. Ternary: {x, y, z} = [h-part of
    [x, y], z]. Tensors are written in the supplied m basis (a Subspace
    contributes its canonical rref basis).
    """
    if not g.is_lie:
        raise ValueError("g is not a Lie algebra")
    hb = list(h_basis.basis if isinstance(h_basis, Subspace) else map(tuple, h_basis))
    mb = list(m_basis.basis if isinstance(m_basis, Subspace) else map(tuple, m_basis))
    n = g.dim
    if len(hb) + len(mb) != n:
        raise ValueError("h and m dimensions do not fill g")
    cols = hb + mb
    basis_mat = Matrix.from_cols(cols)
    inv = inverse(basis_mat)
    if inv is None:
        raise ValueError("h and m do not form a direct sum decomposition")
    hd, md = len(hb), len(mb)

    def split(v: Vec) -> tuple[Vec, Vec]:
        z = inv.apply(v)
        return z[:hd], z[hd:]

    for a in range(hd):
        for bb in range(a + 1, hd):
            _, mpart = split(g.product(hb[a], hb[bb]))
            if not is_zero_vec(mpart):
                raise ValueError(f"h is not a subalgebra at basis pair ({a}, {bb})")
    for a in range(hd):
        for i in range(md):
            hpart, _ = split(g.product(hb[a], mb[i]))
            if not is_zero_vec(hpart):
                raise ValueError(f"decomposition is not reductive at (h {a}, m {i})")

    bt = []
    tt = []
    for i in range(md):
        brow = []
        trow = []
        for j in range(md):
            hpart, mpart = split(g.product(mb[i], mb[j]))
            brow.append(mpart)
            delta_amb = vzero(n)
            for a, ca in enumerate(hpart):
                if ca != 0:
                    delta_amb = vadd(delta_amb, tuple(ca * x for x in hb[a]))
            cell = []
            for k in range(md):
                hres, mres = split(g.product(delta_amb, mb[k]))
                if not is_zero_vec(hres):
                    raise ValueError("decomposition is not reductive")
                cell.append(mres)
            trow.append(tuple(cell))
        bt.append(tuple(brow))
        tt.append(tuple(trow))
    return LieYamaguti(md, tuple(bt), tuple(tt))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return type(e), str(e)


def assert_same(g, h, m):
    want = outcome(dense_ly_from_decomposition, g, h, m)
    got = outcome(ly_from_decomposition, g, h, m)
    assert got == want


def e(n, *idx):
    return [basis_vec(n, i) for i in idx]


AFF1 = StructureAlgebra.from_products(2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, name="aff1")

SO3_SPLITTINGS = [
    (e(3, 2), e(3, 0, 1)),
    (e(3, 0), e(3, 1, 2)),
    (e(3, 1), e(3, 2, 0)),
    ([(1, 1, 0)], [(1, -1, 0), (0, 0, 2)]),
    ([(1, 2, 3)], [(2, -1, 0), (3, 0, -1)]),
    (Subspace.span(3, [(0, 0, 5)]), Subspace.span(3, [(1, 1, 0), (1, -1, 0)])),
    ([], e(3, 0, 1, 2)),
    (e(3, 0, 1, 2), []),
]

REJECTED = {
    "not_lie": (make_nl3(), e(3, 0), e(3, 1, 2)),
    "not_lie_leibniz": (make_leibniz2(), e(2, 0), e(2, 1)),
    "does_not_fill": (make_so3(), e(3, 2), e(3, 0)),
    "overfills": (make_so3(), e(3, 2), e(3, 0, 1, 2)),
    "singular": (make_so3(), e(3, 0), e(3, 0, 1)),
    "singular_in_m": (make_so3(), e(3, 2), [(1, 0, 0), (2, 0, 0)]),
    "wrong_length": (make_so3(), e(3, 2), [(1, 0), (0, 1, 0)]),
    "not_subalgebra": (make_so3(), e(3, 0, 1), e(3, 2)),
    "not_reductive": (AFF1, e(2, 1), e(2, 0)),
}


@pytest.mark.parametrize("h, m", SO3_SPLITTINGS)
def test_so3_splittings(h, m):
    assert_same(make_so3(), h, m)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejections(case):
    g, h, m = REJECTED[case]
    want = outcome(dense_ly_from_decomposition, g, h, m)
    assert isinstance(want, tuple) and want[0] is ValueError
    assert outcome(ly_from_decomposition, g, h, m) == want


def test_vectors_of_one_wrong_length():
    # the one intended difference: the dense version fails inside `inverse`
    g, h, m = make_so3(), [(1, 0)], [(0, 1), (1, 1)]
    assert outcome(dense_ly_from_decomposition, g, h, m) == (
        ValueError, "inverse is defined for square matrices")
    assert outcome(ly_from_decomposition, g, h, m) == (
        ValueError, "h and m do not form a direct sum decomposition")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_envelopes_of_nilpotent_leibniz(seed, dim, basis_seed):
    env = ly_envelope(ly_from_leibniz(random_nilpotent_leibniz(Pcg32(seed), dim)))
    gd, hd = env.g.dim, env.h_dim
    assert_same(env.g, e(gd, *range(hd)), e(gd, *range(hd, gd)))
    # another basis of h and of m: the decomposition is the same, the tensors are not
    rng = Pcg32(basis_seed)
    ph, pm = random_unimodular(rng, hd), random_unimodular(rng, gd - hd)
    h = [(*ph.col(a), *vzero(gd - hd)) for a in range(hd)]
    m = [(*vzero(hd), *pm.col(i)) for i in range(gd - hd)]
    assert_same(env.g, h, m)
