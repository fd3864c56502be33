"""The integer view that the identity scans of SparseTensor read, and the walk
of dense tensors whose all-zero cells, and zero entries, are one shared object."""

from __future__ import annotations

import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import (
    LoopContext,
    ModuleAction,
    Pcg32,
    StructureAlgebra,
    gl_action,
    hemi_loop_closed_form,
    left_divide,
    left_inner_mapping,
    left_inverse,
    loop_context,
    loop_product,
    ly_from_leibniz,
    omni_algebras,
    random_nilpotent_leibniz,
)
from leibniz_forge.tensor import SparseTensor, first_failure, materialize


def test_view_is_built_in_the_walk_over_the_lcm_denominator():
    t = SparseTensor(((((Q(1, 2), Q(0)), (Q(0), Q(-2, 3))),
                      ((Q(0), Q(0)), (Q(5, 4), Q(0))))), 2)
    assert t._groups == {}  # no group index before the first scan
    assert t.entries == {(0, 0): {0: Q(1, 2)}, (0, 1): {1: Q(-2, 3)}, (1, 1): {0: Q(5, 4)}}
    assert first_failure(t.dim, "ij", [(1, t, "ij"), (1, t, "ji")]) == (0, 0)
    assert t.scaled == ({(0, 0): {0: 6}, (0, 1): {1: -8}, (1, 1): {0: 15}}, 12)
    assert t.entries[(1, 1)][0] == Q(5, 4)  # public cells stay Fraction


def test_empty_and_zero_tensors_have_denominator_one():
    assert SparseTensor((), 2).scaled == ({}, 1)
    zero = SparseTensor(tuple(tuple((Q(0),) * 3 for _ in range(3)) for _ in range(3)), 2)
    assert zero.entries == {} and zero.scaled == ({}, 1)
    assert first_failure(3, "ijk", [(1, zero, "i*", zero, "jk")]) is None


def test_exact_loop_constants_read_the_view():
    a = StructureAlgebra.from_products(3, {(2, 2): {1: Q(1, 3)}, (2, 1): {0: Q(-1, 2)}})
    assert loop_context(a, mode="exact")._constants is a.sparse.scaled
    assert a.sparse.scaled == ({(2, 1): {0: -3}, (2, 2): {1: 2}}, 6)
    hemi = omni_algebras(2)[0]
    cells, den = loop_context(hemi, mode="float")._constants
    assert den == 1 and cells.keys() == hemi.sparse.entries.keys()
    assert all(isinstance(c, float) for cell in cells.values() for c in cell.values())


def distinct(t, depth: int):
    """A copy of nested tuples with a new tuple per cell and row and a new Fraction per entry."""
    if depth == 0:
        return tuple([Q(x.numerator, x.denominator) for x in t])
    return tuple([distinct(sub, depth - 1) for sub in t])


def lists(t, depth: int):
    return list(t) if depth == 0 else [lists(sub, depth - 1) for sub in t]


def rows_rebuilt(t, depth: int):
    """A copy with a new tuple per row and the cells themselves shared, as
    perfbench/workloads.py::_perturb_ly rebuilds a ternary tensor."""
    return t if depth == 0 else tuple([rows_rebuilt(sub, depth - 1) for sub in t])


def by_value(dense, arity: int) -> dict:
    """The nonzero entries of a dense tensor, read entry by entry."""
    cells = {key: {k: x for k, x in enumerate(cell) if x} for key, cell in all_cells(dense, arity)}
    return {key: cell for key, cell in cells.items() if cell}


def assert_view(dense, arity: int, want: dict) -> SparseTensor:
    """The view of dense has want as its entries, in key order, and the
    scaled cells, shape and output dimension that follow from them."""
    view = SparseTensor(dense, arity)
    assert [(key, list(cell.items())) for key, cell in view.entries.items()] \
        == sorted((key, sorted(cell.items())) for key, cell in want.items())
    den = math.lcm(*(x.denominator for cell in want.values() for x in cell.values()))
    assert view.scaled == ({key: {k: x.numerator * (den // x.denominator) for k, x in cell.items()}
                            for key, cell in view.entries.items()}, den)
    n = len(dense)
    assert (view.dim, view.shape, view.out_dim) == (n, (n,) * arity, n)
    return view


@st.composite
def cell_maps(draw):
    """(dim, arity, cells) with zero-valued entries and all-zero cells among the cells."""
    dim, arity = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    if dim == 0:
        return dim, arity, {}
    index = st.integers(0, dim - 1)
    value = st.sampled_from([Q(0), Q(0), Q(1), Q(-2, 3), Q(5, 7)])
    cells = draw(st.dictionaries(st.tuples(*[index] * arity),
                                 st.dictionaries(index, value, max_size=dim), max_size=12))
    return dim, arity, cells


@settings(max_examples=200, deadline=None)
@given(cell_maps())
def test_walk_of_a_shared_zero_tensor(case):
    dim, arity, cells = case
    t = materialize(dim, arity, cells)
    want = sorted((key, sorted((k, x) for k, x in cell.items() if x))
                  for key, cell in cells.items() if any(cell.values()))
    for dense in (t, distinct(t, arity), lists(t, arity), rows_rebuilt(t, arity)):
        assert_view(dense, arity, {key: dict(cell) for key, cell in want})
    nonzero = dict(want)
    assert len({id(cell) for key, cell in all_cells(t, arity) if key not in nonzero}) <= 1


def all_cells(t, arity: int, key: tuple[int, ...] = ()):
    if len(key) == arity:
        yield key, t
        return
    for i, sub in enumerate(t):
        yield from all_cells(sub, arity, key + (i,))


def test_zero_valued_cells_are_absent_and_shared():
    t = materialize(2, 2, {(0, 1): {0: Q(0)}, (1, 0): {0: Q(0), 1: Q(3)}, (1, 1): {}})
    assert t == (((Q(0), Q(0)), (Q(0), Q(0))), ((Q(0), Q(3)), (Q(0), Q(0))))
    assert t[0][0] is t[0][1] is t[1][1]
    assert SparseTensor(t, 2).entries == {(1, 0): {1: Q(3)}}
    zero = materialize(3, 3, {})
    assert zero[0] is zero[2] and zero[0][1] is zero[1][0]  # all-zero rows are shared too


def test_algebra_constants_share_one_zero():
    """from_products writes every zero entry as one object, which the walk skips."""
    for a in (omni_algebras(2)[0], random_nilpotent_leibniz(Pcg32(5), 4)):
        assert len({id(x) for row in a.c for cell in row for x in cell if x == 0}) == 1


def test_a_distinct_zero_cell_after_the_shared_one_is_read():
    z, other = (Q(0), Q(0)), (Q(0), Q(0))
    t = ((z, (Q(1), Q(0))), (other, z), (z, (Q(0), Q(-1))), (other, (Q(2), Q(0))))
    assert SparseTensor(t, 2).entries == {(0, 1): {0: Q(1)}, (2, 1): {1: Q(-1)},
                                          (3, 1): {0: Q(2)}}
    # a cell after the remembered zero that is not that object is tested for zero
    assert SparseTensor(((z,), ((Q(0), Q(4)),), (z,)), 2).entries == {(1, 0): {1: Q(4)}}
    # only an all-zero cell is remembered: a nonzero cell read twice is kept twice
    one = (Q(1), Q(0))
    assert SparseTensor(((one, one), (z, one)), 2).entries == {
        (0, 0): {0: Q(1)}, (0, 1): {0: Q(1)}, (1, 1): {0: Q(1)}}


def test_entries_that_are_not_the_shared_zero_are_tested():
    """A perturbed copy of a library tensor: rows rebuilt, cells shared, and
    cells whose zero entries are the shared zero next to entries that are not,
    a new nonzero or a distinct zero (a sum that cancels, or a zero value that
    parse_ly_text keeps next to a nonzero one)."""
    t = ly_from_leibniz(omni_algebras(2)[0]).t
    (i, j, k), cell = next(iter(SparseTensor(t, 3).entries.items()))
    m0 = next(iter(cell))
    zero = next(c for _, c in all_cells(t, 3) if not any(c))[0]
    planes = [list(list(row) for row in plane) for plane in t]
    for (a, b, c), m, dx in (((i, j, k), m0, -cell[m0]), ((j, i, k), 0, Q(3, 5)),
                             ((5, 5, 5), 2, Q(-1, 7))):
        new = list(planes[a][b][c])
        new[m] += dx
        planes[a][b][c] = tuple(new)
    copy = tuple(tuple(tuple(row) for row in plane) for plane in planes)
    assert any(x is zero for x in copy[i][j][k]) and any(x is not zero and x == 0
                                                        for x in copy[i][j][k])
    assert_view(copy, 3, by_value(copy, 3))
    parsed = materialize(3, 2, {(0, 1): {0: Q(0), 2: Q(4)}, (2, 2): {1: Q(-1, 2)}})
    assert parsed[0][1][0] is not parsed[0][0][0] and parsed[0][1][1] is parsed[0][0][0]
    assert assert_view(parsed, 2, by_value(parsed, 2)).entries == {
        (0, 1): {2: Q(4)}, (2, 2): {1: Q(-1, 2)}}


def test_int_entries_are_walked_like_fractions():
    t = (((0, 0), (2, 0)), ((0, 0), (0, -3)))
    view = assert_view(t, 2, {(0, 1): {0: 2}, (1, 1): {1: -3}})
    assert view.scaled == ({(0, 1): {0: 2}, (1, 1): {1: -3}}, 1)
    assert_view(((1, 0, 0), (0, 0, 0), (0, 5, 0)), 1, {(0,): {0: 1}, (2,): {1: 5}})


# -- vector lengths -------------------------------------------------------------

NIL6 = random_nilpotent_leibniz(Pcg32(13), 6)
HEMI2 = omni_algebras(2)[0]
GL2 = gl_action(2)
LY3 = ly_from_leibniz(omni_algebras(1)[0])


def vec(n: int) -> tuple:
    return tuple(Q(k + 1) for k in range(n))


WRONG_LENGTHS = {
    "product": lambda: HEMI2.product(vec(6), vec(5)),
    "left_mul short": lambda: HEMI2.left_mul(vec(5)),
    "left_mul long": lambda: HEMI2.left_mul(vec(7)),
    "left_mul dim 0": lambda: StructureAlgebra.abelian(0).left_mul(vec(2)),
    "lmul_basis": lambda: HEMI2.lmul_basis(0, vec(7)),
    "rmul_basis": lambda: HEMI2.rmul_basis(vec(5), 0),
    "action.of short": lambda: GL2.of(vec(3)),
    "action.of long": lambda: GL2.of(vec(5)),
    "binary": lambda: LY3.binary(vec(2), vec(1)),
    "ternary": lambda: LY3.ternary(vec(2), vec(2), vec(3)),
    "loop_product": lambda: loop_product(LoopContext(NIL6, Q(1, 2), "exact"), vec(6), vec(7)),
    "left_inverse exact": lambda: left_inverse(LoopContext(NIL6, Q(1, 2), "exact"), vec(7)),
    "left_inverse float": lambda: left_inverse(LoopContext(NIL6, Q(1, 2), "float"), vec(5)),
    "left_divide": lambda: left_divide(LoopContext(NIL6, Q(1, 2), "exact"), vec(5), vec(6)),
    "left_inner_mapping": lambda: left_inner_mapping(LoopContext(NIL6, Q(1, 2), "exact"),
                                                     vec(6), vec(7)),
    "closed form short xi": lambda: hemi_loop_closed_form(GL2, Q(1, 2), vec(3), vec(2),
                                                          vec(4), vec(2)),
    "closed form long y": lambda: hemi_loop_closed_form(GL2, Q(1, 2), vec(4), vec(2),
                                                        vec(4), vec(3), mode="float"),
}


@pytest.mark.parametrize("case", WRONG_LENGTHS)
def test_wrong_length_vectors_are_value_errors(case):
    with pytest.raises(ValueError, match="vector length does not match the dimension"):
        WRONG_LENGTHS[case]()


BASIS_INDICES = {
    "lmul_basis above": lambda: HEMI2.lmul_basis(6, vec(6)),
    "lmul_basis far above": lambda: HEMI2.lmul_basis(10, vec(6)),
    "rmul_basis negative": lambda: HEMI2.rmul_basis(vec(6), -1),
    "action index": lambda: GL2.sparse.contract(vec(4), 2),
}


@pytest.mark.parametrize("case", BASIS_INDICES)
def test_basis_indices_outside_the_axis_are_value_errors(case):
    with pytest.raises(ValueError, match="basis index out of range"):
        BASIS_INDICES[case]()


def test_action_axes_are_set_for_a_zero_h():
    act = ModuleAction(StructureAlgebra.abelian(0), (), space_dim=3)
    assert act.sparse.shape == (0, 3) and act.sparse.out_dim == 3
    with pytest.raises(ValueError, match="vector length"):
        act.of(vec(1))
