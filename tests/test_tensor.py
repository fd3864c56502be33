"""The integer view that the identity scans of SparseTensor read, and the walk
of dense tensors whose all-zero cells are one shared object."""

from __future__ import annotations

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_forge import StructureAlgebra, loop_context, omni_algebras
from leibniz_forge.tensor import SparseTensor, first_failure, materialize


def test_view_is_built_on_first_use_over_the_lcm_denominator():
    t = SparseTensor(((((Q(1, 2), Q(0)), (Q(0), Q(-2, 3))),
                      ((Q(0), Q(0)), (Q(5, 4), Q(0))))), 2)
    assert "scaled" not in vars(t) and t._groups == {}
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
    for dense in (t, distinct(t, arity), lists(t, arity)):
        view = SparseTensor(dense, arity)
        assert [(key, list(cell.items())) for key, cell in view.entries.items()] == want
        assert (view.dim, view.out_dim) == (dim, dim)
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
