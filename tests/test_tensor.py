"""The integer view that the identity scans of SparseTensor read."""

from __future__ import annotations

from fractions import Fraction as Q

from leibniz_forge import StructureAlgebra, loop_context, omni_algebras
from leibniz_forge.tensor import SparseTensor, first_failure


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
