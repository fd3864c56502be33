"""The LY producers against verbatim copies of their dense versions.

The library reads the binary and the ternary of `ly_from_decomposition`
straight from the bracket written in the basis (h, m). The copy below projects
every bracket through the inverse basis matrix and composes through h by hand.

`ly_from_leibniz`, `LieYamaguti.from_tensors`, `torsion_curvature` and
`cli.parse_ly_text` build their tensors from nonzero cells, with one shared
all-zero cell. The copies below fill dense n^3 and n^4 tensors of distinct
Fractions, as the library did before.

Each pair must return equal tensors and equal `validate_ly` reports, or raise
the same exception type with the same message.
"""

from __future__ import annotations

import json
from pathlib import Path
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
    omni_algebras,
    random_nilpotent_leibniz,
    torsion_curvature,
    validate_ly,
)
from leibniz_forge.cli import (
    MAX_LY_DIM,
    CliError,
    _exact_number,
    _is_int,
    _load_json,
    _positive_int,
    parse_ly_text,
)
from leibniz_forge.linalg import (
    Matrix,
    Q,
    Vec,
    as_q,
    basis_vec,
    inverse,
    is_zero_vec,
    vadd,
    vneg,
    vzero,
)
from leibniz_forge.sampling import random_unimodular

from conftest import make_broken3, make_idem1, make_leibniz2, make_nl3, make_so3
from test_cli_golden import _ly_file, write_inputs


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


# -- ly_from_leibniz, from_tensors, torsion_curvature and parse_ly_text ------

def dense_ly_from_leibniz(e: StructureAlgebra) -> LieYamaguti:
    """Skew product plus ternary {x, y, z} = -(x.y).z / 4 on a Leibniz algebra."""
    ok, witness = e.check_leibniz()
    if not ok:
        raise ValueError(f"not a Leibniz algebra: first failing triple {witness[:3]}")
    n = e.dim
    quarter = Q(-1, 4)
    b = tuple(tuple(e.skew_product(basis_vec(n, i), basis_vec(n, j)) for j in range(n))
              for i in range(n))
    t = tuple(tuple(tuple(tuple(quarter * x for x in e.rmul_basis(e.c[i][j], k))
                          for k in range(n))
                    for j in range(n))
              for i in range(n))
    return LieYamaguti(n, b, t)


def dense_from_tensors(b: Sequence, t: Sequence) -> LieYamaguti:
    dim = len(b)
    bt = tuple(tuple(tuple(as_q(x) for x in cell) for cell in row) for row in b)
    tt = tuple(tuple(tuple(tuple(as_q(x) for x in cell) for cell in row)
                     for row in plane) for plane in t)
    if any(len(row) != dim for row in bt) or any(len(cell) != dim for row in bt for cell in row):
        raise ValueError("binary tensor is not dim^3")
    if len(tt) != dim or any(len(p) != dim for p in tt) \
            or any(len(r) != dim for p in tt for r in p) \
            or any(len(c) != dim for p in tt for r in p for c in r):
        raise ValueError("ternary tensor is not dim^4")
    return LieYamaguti(dim, bt, tt)


def dense_torsion_curvature(ly: LieYamaguti):
    """Canonical-connection tensors of the structure: T = -binary, R = -ternary."""
    tb = tuple(tuple(vneg(cell) for cell in row) for row in ly.b)
    tt = tuple(tuple(tuple(vneg(cell) for cell in row) for row in plane) for plane in ly.t)
    return tb, tt


def dense_parse_ly_text(text: str, origin: str = "file") -> LieYamaguti:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict) or "dim" not in doc:
        raise CliError(f"{origin}: expected keys dim, binary, ternary")
    n = _positive_int(doc, "dim", origin, MAX_LY_DIM)
    b = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    t = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]

    def fill(key: str, arity: int, target) -> None:
        if not isinstance(doc.get(key, []), list):
            raise CliError(f"{origin}: {key} must be a list of entries")
        seen: set[tuple] = set()  # the indices of every entry so far, zero values included
        for pos, entry in enumerate(doc.get(key, [])):
            where = f"{origin}: {key}[{pos}]"
            if not isinstance(entry, list) or len(entry) != arity + 1:
                raise CliError(f"{where}: expected {arity} indices and a value")
            idx = entry[:arity]
            if any(not _is_int(i) or not 0 <= i < n for i in idx):
                raise CliError(f"{where}: indices must lie in [0, {n - 1}]")
            if tuple(idx) in seen:
                raise CliError(f"{where}: duplicate entry at {idx}")
            seen.add(tuple(idx))
            cursor = target
            for i in idx[:-1]:
                cursor = cursor[i]
            cursor[idx[-1]] = _exact_number(entry[arity], where)

    fill("binary", 3, b)
    fill("ternary", 4, t)
    return dense_from_tensors(b, t)  # LieYamaguti.from_tensors as it was


def ly_text(ly: LieYamaguti, extra: Sequence = ()) -> str:
    """The LY file of ly, one entry per nonzero coefficient, then `extra` ternary rows."""
    doc = _ly_file(ly)
    doc["ternary"] += list(extra)
    return json.dumps(doc)


def assert_same_ly(dense_fn, fn, *args):
    """Equal tensors and equal validate_ly reports, or the same error."""
    want, got = outcome(dense_fn, *args), outcome(fn, *args)
    assert got == want
    if isinstance(want, LieYamaguti):
        assert validate_ly(got) == validate_ly(want)
    return got


def assert_same_chain(a: StructureAlgebra):
    ly = assert_same_ly(dense_ly_from_leibniz, ly_from_leibniz, a)
    if not isinstance(ly, LieYamaguti):
        return
    assert torsion_curvature(ly) == dense_torsion_curvature(ly)
    assert_same_ly(dense_from_tensors, LieYamaguti.from_tensors, ly.b, ly.t)
    assert_same_ly(dense_parse_ly_text, parse_ly_text, ly_text(ly))
    # a structure that fails LY: one ternary entry more, at a cell that is zero
    zero_at = next(((i, j, k) for i in range(ly.dim) for j in range(ly.dim)
                    for k in range(ly.dim) if not any(ly.t[i][j][k])), None)
    if zero_at is not None:
        assert_same_ly(dense_parse_ly_text, parse_ly_text, ly_text(ly, [[*zero_at, 0, "2/3"]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_omni_hemi_chain(d):
    assert_same_chain(omni_algebras(d)[0])


@pytest.mark.parametrize("make", [make_leibniz2, make_so3, make_idem1, make_nl3, make_broken3])
def test_corpus_chain(make):
    assert_same_chain(make())


def test_non_leibniz_message():
    want = outcome(dense_ly_from_leibniz, make_nl3())
    assert want[0] is ValueError and want[1].startswith("not a Leibniz algebra")
    assert outcome(ly_from_leibniz, make_nl3()) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_nilpotent_leibniz_chain(seed, dim):
    assert_same_chain(random_nilpotent_leibniz(Pcg32(seed), dim))


BAD_LY_TEXTS = [
    "[]",
    "{",
    '{"binary": []}',
    '{"dim": 0}',
    '{"dim": true}',
    f'{{"dim": {MAX_LY_DIM + 1}}}',
    '{"dim": 2, "binary": 5}',
    '{"dim": 2, "ternary": "abc"}',
    '{"dim": 2, "binary": [[0, 1, 0]]}',
    '{"dim": 2, "binary": [5]}',
    '{"dim": 2, "binary": [[0, 2, 0, "1"]]}',
    '{"dim": 2, "binary": [[0, -1, 0, "1"]]}',
    '{"dim": 2, "ternary": [[0, 1, 1, 2, "1"]]}',
    '{"dim": 2, "ternary": [[0, 1, true, 0, "1"]]}',
    '{"dim": 2, "binary": [[0, 1, 0, "1"], [0, 1, 0, "2"]]}',
    '{"dim": 2, "binary": [[0, 1, 0, "0"], [0, 1, 0, "1"]]}',
    '{"dim": 1, "ternary": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]}',
    '{"dim": 2, "binary": [[0, 1, 0, 0.5]]}',
    '{"dim": 2, "binary": [[0, 1, 0, "1/0"]]}',
    '{"dim": 2, "ternary": [[0, 1, 0, 1, "x"]]}',
]

ODD_LY_TEXTS = [
    '{"dim": 1}',
    '{"dim": 3, "binary": [], "ternary": []}',
    '{"dim": 2, "binary": [[0, 1, 0, "0"]], "ternary": [[1, 0, 1, 1, 0]]}',
    '{"dim": 2, "binary": [[0, 1, 0, "1"], [1, 0, 0, "-1"], [0, 1, 1, "0"]]}',
    '{"dim": 2, "ternary": [[0, 1, 1, 0, "1/2"], [1, 0, 1, 0, "-1/2"], [0, 1, 1, 1, 0]]}',
]


@pytest.mark.parametrize("text", BAD_LY_TEXTS + ODD_LY_TEXTS)
def test_ly_texts(text):
    want = outcome(dense_parse_ly_text, text, "ly.json")
    assert isinstance(want, LieYamaguti) == (text in ODD_LY_TEXTS)
    assert_same_ly(dense_parse_ly_text, parse_ly_text, text, "ly.json")


def test_golden_cli_ly_files(tmp_path):
    paths = write_inputs(str(tmp_path))
    names = [name for name in paths if name.startswith("ly_")]
    assert names
    for name in names:
        text = Path(paths[name]).read_text(encoding="utf-8")
        assert_same_ly(dense_parse_ly_text, parse_ly_text, text, paths[name])


@pytest.mark.parametrize("b, t", [
    ([[[0.1]]], [[[[0.5]]]]),
    ([[["1/2"]]], [[[[3]]]]),
    ([[[0, 0], [0, 0]]], [[[[0]]]]),
    ([[[0], [0]], [[0], [0]]], [[[[0]]]]),
    ([[[1]]], [[[[0, 0]]]]),
    ([[[1]]], [[[[0]]], [[[0]]]]),
    ((), ()),
])
def test_from_tensors_shapes_and_scalars(b, t):
    assert_same_ly(dense_from_tensors, LieYamaguti.from_tensors, b, t)
