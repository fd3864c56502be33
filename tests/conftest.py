"""Shared corpus of exact algebras used across the suite.

Builders are plain functions so tests can construct fresh copies; the
session fixtures hand out shared instances for the read-only checks.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from leibniz_forge import (
    ModuleAction,
    OneForm,
    Pcg32,
    Poly,
    Section,
    StructureAlgebra,
    canonical_envelope,
    hemisemidirect,
    omni_algebras,
    random_nilpotent_leibniz,
    squares_ideal,
)
from leibniz_forge.linalg import Matrix


def make_leibniz2() -> StructureAlgebra:
    # e2*e2 = e1, the smallest non-Lie nilpotent Leibniz algebra
    return StructureAlgebra.from_products(2, {(1, 1): {0: 1}}, name="leibniz2")


def make_so3() -> StructureAlgebra:
    return StructureAlgebra.from_products(
        3,
        {(0, 1): {2: 1}, (1, 0): {2: -1},
         (1, 2): {0: 1}, (2, 1): {0: -1},
         (2, 0): {1: 1}, (0, 2): {1: -1}},
        name="so3")


def make_heisenberg3() -> StructureAlgebra:
    return StructureAlgebra.from_products(
        3, {(0, 1): {2: 1}, (1, 0): {2: -1}}, name="heis3")


def make_aff1_hemi() -> StructureAlgebra:
    # aff(1) = span{h, e} with [h, e] = e acting on R^1 by rho(h) = 1, rho(e) = 0
    aff1 = StructureAlgebra.from_products(
        2, {(0, 1): {1: 1}, (1, 0): {1: -1}}, ("h", "e"), name="aff1")
    act = ModuleAction(aff1, (Matrix.from_rows([[1]]), Matrix.from_rows([[0]])))
    return hemisemidirect(aff1, act, name="aff1_hemi")


def make_n2_hemi() -> StructureAlgebra:
    # one strictly upper triangular generator on R^2; every lambda(v) is nilpotent
    n2 = StructureAlgebra.abelian(1, name="n2")
    act = ModuleAction(n2, (Matrix.from_rows([[0, 1], [0, 0]]),))
    return hemisemidirect(n2, act, name="n2_hemi")


def make_so3_hemi() -> StructureAlgebra:
    so3 = make_so3()
    mats = tuple(so3.left_mul(tuple(Q(1) if k == i else Q(0) for k in range(3)))
                 for i in range(3))
    act = ModuleAction(so3, mats)
    return hemisemidirect(so3, act, name="so3_hemi")


def make_nl3() -> StructureAlgebra:
    # e1*e1 = e2, e2*e2 = e3: not Leibniz, but every lambda(v) is nilpotent
    return StructureAlgebra.from_products(
        3, {(0, 0): {1: 1}, (1, 1): {2: 1}}, name="nl3")


def make_idem1() -> StructureAlgebra:
    return StructureAlgebra.from_products(1, {(0, 0): {0: 1}}, name="idem1")


def make_broken3() -> StructureAlgebra:
    # skew but fails Jacobi: [e1,e2] = e3, [e1,e3] = e1
    return StructureAlgebra.from_products(
        3,
        {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {0: 1}, (2, 0): {0: -1}},
        name="broken3")


def linear_section(d: int, v) -> Section:
    """Weinstein's linear section of T (+) T* over Q^d for v in gl(d) x Q^d, in the
    coordinates of omni_algebras(d): E_pq -> x_p d/dx_q and e_k -> dx_k."""
    vf = tuple(sum((Poly.var(d, p) * v[p * d + q] for p in range(d)), Poly.zero(d))
               for q in range(d))
    form = tuple(Poly.const(d, v[d * d + k]) for k in range(d))
    return Section(OneForm(d, vf), OneForm(d, form))


_RANDOM_NILPOTENT = ((11, 2), (12, 3), (13, 4), (14, 5), (15, 4))


def build_corpus() -> dict[str, StructureAlgebra]:
    """Leibniz algebra corpus named by the acceptance criteria.

    Contains the 2-dim nilpotent algebra, hemisemidirect gl(d) examples for
    d = 1..3, aff(1) on R, canonical envelopes of two of those, seeded random
    nilpotent algebras of dim <= 5, and Lie examples for the float paths.
    """
    corpus = {
        "leibniz2": make_leibniz2(),
        "aff1_hemi": make_aff1_hemi(),
        "n2_hemi": make_n2_hemi(),
        "so3": make_so3(),
        "heis3": make_heisenberg3(),
        "so3_hemi": make_so3_hemi(),
    }
    for d in (1, 2, 3):
        corpus[f"omni_hemi{d}"] = omni_algebras(d)[0]
    for seed, dim in _RANDOM_NILPOTENT:
        corpus[f"nilp{dim}_s{seed}"] = random_nilpotent_leibniz(Pcg32(seed), dim)
    for base in ("leibniz2", "omni_hemi1"):
        a = corpus[base]
        g = canonical_envelope(a, squares_ideal(a)).g
        corpus[f"env_{base}"] = g
    return corpus


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus() -> dict[str, StructureAlgebra]:
    return build_corpus()


@pytest.fixture(scope="session")
def leibniz2() -> StructureAlgebra:
    return make_leibniz2()


@pytest.fixture(scope="session")
def so3() -> StructureAlgebra:
    return make_so3()


@pytest.fixture(scope="session")
def nl3() -> StructureAlgebra:
    return make_nl3()
