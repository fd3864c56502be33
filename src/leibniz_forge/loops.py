"""Left loops x <> y = x + exp(s lambda(x)) y and the attached connection.

For a Leibniz product the left multiplications are derivations of the product,
their exponentials are automorphisms, and the loop inherits the left inverse
property along with inner mappings that are loop automorphisms. The loop is
evaluated exactly whenever every left multiplication is nilpotent; otherwise a
float mode with an explicit tolerance takes over.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Sequence

from .algebra import StructureAlgebra
from .courant import CheckResult, VectorField, vf_bracket
from .linalg import (
    FloatMatrix,
    Matrix,
    NotNilpotentError,
    Q,
    Scalar,
    ScaledMatrix,
    _clear,
    _exp_series,
    _insert_row,
    as_q,
    is_nilpotent,
    mat_exp_exact,
    mat_exp_float,
    vadd,
    vec,
    vneg,
    vzero,
)
from .poly import Poly
from .products import ModuleAction
from .sampling import Pcg32, random_vector
from .tensor import _add

_GATE_SEED = 32
_GATE_SAMPLES = 32


# -- exactness gate -----------------------------------------------------------

@dataclass(frozen=True)
class LoopGate:
    """Why exact evaluation is or is not available for an algebra."""

    basis_nilpotent: bool
    sampled_nilpotent: bool
    envelope_nilpotent: bool

    @property
    def exact_ok(self) -> bool:
        return self.basis_nilpotent and self.sampled_nilpotent and self.envelope_nilpotent


def _envelope_nilpotent(a: StructureAlgebra) -> bool:
    """Is the associative algebra A generated by all lambda(e_i) nilpotent?

    The chain W_0 = E, W_(k+1) = span{e_i . w : w in a basis of W_k} has W_k =
    A^k E, so A is nilpotent iff it reaches 0. W_1 = A E lies in E and A keeps
    inclusions, so W_(k+1) lies in W_k; once the dimension stops falling the
    chain is constant and never dies. At most n + 1 spans in E are built, each
    as canonical integer rows; e_i . w is read from the integer cells, which scale
    it by their common denominator and so leave every span as it is, and no
    Fraction is made.
    """
    cells = a.sparse.scaled[0]
    chain: dict[int, dict] = {i: {i: 1} for i in range(a.dim)}
    while chain:
        nxt: dict[int, dict] = {}
        for w in chain.values():
            prods: dict[int, dict] = {}  # i -> e_i . w
            for (i, j), cell in cells.items():
                if j in w:
                    _add(prods, i, cell, w[j])
            for v in prods.values():
                _insert_row(nxt, v)
        if len(nxt) == len(chain):
            return False
        chain = nxt
    return True


def loop_gate(a: StructureAlgebra) -> LoopGate:
    """Layered nilpotency evidence: envelope, then basis, then sampled.

    The fields are those of checking basis -> sampled -> envelope, each layer
    run only when the one before it passes. Every lambda(x) = sum x_i lambda(e_i)
    lies in the associative envelope of the lambda(e_i), so a nilpotent
    envelope gives (True, True, True) at once. Otherwise a basis failure gives
    (False, False, False), and the samples (True, sampled_ok, False).
    """
    if _envelope_nilpotent(a):
        return LoopGate(True, True, True)
    if not all(is_nilpotent(Matrix.from_cols(cols))[0] for cols in a.c):  # each lambda(e_i)
        return LoopGate(False, False, False)
    rng = Pcg32(_GATE_SEED)
    sampled_ok = all(is_nilpotent(a.left_mul(random_vector(rng, a.dim)))[0]
                     for _ in range(_GATE_SAMPLES))
    return LoopGate(True, sampled_ok, False)


# -- evaluation context -------------------------------------------------------

def _float(q: Scalar | float, what: str) -> float:
    """float(q) in float mode; an exact value beyond the float range is an input error."""
    try:
        return float(q)
    except OverflowError:
        raise ValueError(f"non-finite {what}: beyond the float range") from None


@dataclass(frozen=True)
class LoopContext:
    algebra: StructureAlgebra
    s: Fraction
    mode: str  # "exact" | "float"
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "s", as_q(self.s))
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"finite positive tolerance required, got {self.tol!r}")

    @cached_property
    def _constants(self) -> tuple[dict[tuple[int, int], dict[int, int | float]], int]:
        """The nonzero c_ij^k as (i, j) -> {k: value} in key order over one denominator:
        the integer view when exact, float(c_ij^k) over 1 in float mode."""
        if self.mode == "exact":
            return self.algebra.sparse.scaled
        return {ij: {k: _float(c, "structure constant") for k, c in cell.items()}
                for ij, cell in self.algebra.sparse.entries.items()}, 1


def loop_context(algebra: StructureAlgebra, s: Scalar = Q(1, 2),
                 mode: str = "auto", tol: float = 1e-9) -> LoopContext:
    if mode == "auto":
        mode = "exact" if loop_gate(algebra).exact_ok else "float"
    elif mode == "exact" and not loop_gate(algebra).exact_ok:
        raise NotNilpotentError(
            "left multiplications are not uniformly nilpotent; use float mode")
    return LoopContext(algebra, s, mode, tol)


# -- the loop on each mode's vectors -----------------------------------------

def _s_lambda(ctx: LoopContext, x: tuple, sign: int) -> ScaledMatrix | FloatMatrix:
    """sign * s * lambda(x) from the nonzero c_ij^k, x in the mode's form; exact: integer-scaled.

    Float: entry (k, j) sums x_i c_ij^k over ascending i from 0, then is
    scaled, as contracting x column by column would round it.
    """
    cells, den = ctx._constants
    n, exact = ctx.algebra.dim, ctx.mode == "exact"
    if exact:
        nums, xden = x
        x = tuple(sign * ctx.s.numerator * q for q in nums)
    rows: list[dict[int, int | float]] = [{} for _ in range(n)]
    for (i, j), cell in cells.items():
        if x[i]:
            for k, c in cell.items():
                rows[k][j] = rows[k].get(j, 0) + x[i] * c
    if exact:
        return ScaledMatrix.reduced(rows, ctx.s.denominator * xden * den)
    t = _float(sign * ctx.s, "s")
    return FloatMatrix(tuple(tuple(t * r.get(j, 0.0) for j in range(n)) for r in rows))


class _Loop:
    """The loop on float vectors, tuples of finite floats equal within tol;
    _ExactLoop puts exact vectors in their place. Each exp(+-s lambda(x)) is
    built once per instance."""

    def __init__(self, ctx: LoopContext) -> None:
        self.ctx = ctx
        self._exps: dict = {}

    add, neg, out = staticmethod(vadd), staticmethod(vneg), staticmethod(tuple)

    @staticmethod
    def coerce(v: Sequence) -> tuple:
        out = tuple(_float(c, "vector entry") for c in v)
        if not all(map(math.isfinite, out)):
            raise ValueError(f"non-finite vector entry in {out}")
        return out

    def close(self, u: tuple, v: tuple) -> bool:
        return max((abs(p - q) for p, q in zip(u, v)), default=0.0) <= self.ctx.tol

    def matrix_exp(self, m: Matrix | FloatMatrix) -> Matrix | FloatMatrix:
        return mat_exp_float(m, tol=min(self.ctx.tol, 1e-12))

    def exp_of(self, m: Matrix | ScaledMatrix | FloatMatrix) -> Callable[[tuple], tuple]:
        """v -> exp(m) v."""
        return self.matrix_exp(m).apply

    def vectors(self, n: int, *vs: Sequence) -> list[tuple]:
        """The vectors in the mode's form; each must have n entries."""
        if any(len(v) != n for v in vs):
            raise ValueError("vector length does not match the dimension")
        return [self.coerce(v) for v in vs]

    def exp(self, x: tuple, sign: int) -> Callable[[tuple], tuple]:
        exp = self._exps.get((x, sign))
        if exp is None:
            exp = self._exps[x, sign] = self.exp_of(_s_lambda(self.ctx, x, sign))
        return exp

    def product(self, x: tuple, y: tuple) -> tuple:
        return self.add(x, self.exp(x, 1)(y))

    def inverse(self, x: tuple) -> tuple:
        return self.neg(self.exp(x, -1)(x))

    def divide(self, a: tuple, b: tuple) -> tuple:
        return self.exp(a, -1)(self.add(b, self.neg(a)))

    def inner(self, a: tuple, b: tuple, v: tuple) -> tuple:
        """L(a,b) v = exp(-s lambda(a<>b)) exp(s lambda(a)) exp(s lambda(b)) v."""
        return self.exp(self.product(a, b), -1)(self.exp(a, 1)(self.exp(b, 1)(v)))


class _ExactLoop(_Loop):
    """The loop on exact vectors, (integer numerators, positive denominator) in
    lowest terms: equal vectors are equal pairs, which hash as ints, and only
    returned values become Fractions."""

    close = staticmethod(operator.eq)

    @staticmethod
    def coerce(v: Sequence) -> tuple:
        return _clear(vec(v))

    @staticmethod
    def add(u: tuple, v: tuple) -> tuple:
        (a, d), (b, e) = u, v
        g = math.gcd(d, e)
        nums, den = [x * (e // g) + y * (d // g) for x, y in zip(a, b)], d // g * e
        g = math.gcd(den, *nums)
        return tuple(x // g for x in nums), den // g

    @staticmethod
    def neg(u: tuple) -> tuple:
        return tuple(-x for x in u[0]), u[1]

    @staticmethod
    def out(u: tuple) -> tuple:
        return tuple(Fraction(x, u[1]) for x in u[0])

    def matrix_exp(self, m: Matrix | ScaledMatrix) -> Matrix:
        return mat_exp_exact(m)

    def exp_of(self, m: Matrix | ScaledMatrix) -> Callable[[tuple], tuple]:
        return partial(_exp_series, ScaledMatrix.of(m))


def _loop(ctx: LoopContext) -> _Loop:
    return (_ExactLoop if ctx.mode == "exact" else _Loop)(ctx)


# -- loop operations ----------------------------------------------------------

def loop_product(ctx: LoopContext, x: Sequence, y: Sequence):
    """x <> y = x + exp(s lambda(x)) y."""
    lp = _loop(ctx)
    return lp.out(lp.product(*lp.vectors(ctx.algebra.dim, x, y)))


def left_inverse(ctx: LoopContext, x: Sequence):
    """The unique x' with x <> x' = 0: x' = -exp(-s lambda(x)) x."""
    lp = _loop(ctx)
    return lp.out(lp.inverse(*lp.vectors(ctx.algebra.dim, x)))


def left_divide(ctx: LoopContext, a: Sequence, b: Sequence):
    """a \\ b, the solution of a <> z = b: exp(-s lambda(a)) (b - a)."""
    lp = _loop(ctx)
    return lp.out(lp.divide(*lp.vectors(ctx.algebra.dim, a, b)))


def left_inner_mapping(ctx: LoopContext, a: Sequence, b: Sequence):
    """L(a,b) = exp(-s lambda(a<>b)) exp(s lambda(a)) exp(s lambda(b)) as a matrix."""
    lp = _loop(ctx)
    a, b = lp.vectors(ctx.algebra.dim, a, b)
    exp = lp.matrix_exp
    return exp(_s_lambda(ctx, lp.product(a, b), -1)) @ exp(_s_lambda(ctx, a, 1)) \
        @ exp(_s_lambda(ctx, b, 1))


# -- property suite -----------------------------------------------------------

@dataclass(frozen=True)
class LoopPropertyReport:
    ok: bool
    checks: tuple[CheckResult, ...]


def loop_property_check(ctx: LoopContext, samples: int = 64,
                        seed: int = 0) -> LoopPropertyReport:
    """Identity laws, division, LIP, and the inner-mapping laws on seeded samples.

    A failing law reports its first failing sample and the vectors a, b, c, d
    of that sample that it reads.
    """
    if samples < 1:
        raise ValueError(f"at least one sample required, got {samples}")
    n = ctx.algebra.dim
    rng = Pcg32(seed)
    quads = [tuple(random_vector(rng, n) for _ in range(4)) for _ in range(samples)]
    zero = _loop(ctx).coerce(vzero(n))

    def identity_law(lp, a, *_):
        return lp.close(lp.product(zero, a), a) and lp.close(lp.product(a, zero), a)

    def division_law(lp, a, b, *_):
        return lp.close(lp.product(a, lp.divide(a, b)), b) and \
            lp.close(lp.divide(a, lp.product(a, b)), b)

    def inverse_law(lp, a, *_):
        return lp.close(lp.inverse(a), lp.divide(a, zero)) and \
            lp.close(lp.product(a, lp.inverse(a)), zero)

    def lip_law(lp, a, b, *_):
        return lp.close(lp.product(lp.inverse(a), lp.product(a, b)), b)

    def inner_defining_law(lp, a, b, c, _):
        return lp.close(lp.product(a, lp.product(b, c)),
                        lp.product(lp.product(a, b), lp.inner(a, b, c)))

    def inner_automorphism_law(lp, a, b, c, d):
        return lp.close(lp.inner(a, b, lp.product(c, d)),
                        lp.product(lp.inner(a, b, c), lp.inner(a, b, d)))

    laws = (("identity", identity_law, 1),
            ("left_division", division_law, 2),
            ("left_inverse", inverse_law, 1),
            ("left_inverse_property", lip_law, 2),
            ("inner_mapping_defining", inner_defining_law, 3),
            ("inner_mapping_automorphism", inner_automorphism_law, 4))
    bad: list[int | None] = [None] * len(laws)
    for k, q in enumerate(quads):
        # one _Loop per sample: the laws share its exponentials, and it is
        # dropped with the sample; a law that has failed is not evaluated again
        lp = _loop(ctx)
        vs = lp.vectors(n, *q)
        for i, (_, law, _) in enumerate(laws):
            if bad[i] is None and not law(lp, *vs):
                bad[i] = k
    checks = []
    for (name, _, reads), k in zip(laws, bad):
        witness = None if k is None else f"sample {k}: " + ", ".join(
            f"{v}=({', '.join(map(str, x))})" for v, x in zip("abcd", quads[k][:reads]))
        checks.append(CheckResult(name, k is None, witness))
    return LoopPropertyReport(all(c.ok for c in checks), tuple(checks))


# -- closed form on a semidirect sum ------------------------------------------

def hemi_loop_closed_form(action: ModuleAction, s: Scalar,
                          xi: Sequence, x: Sequence, eta: Sequence, y: Sequence,
                          mode: str = "exact", tol: float = 1e-9):
    """Loop product on h x V evaluated blockwise.

    Left multiplication by (xi, x) in the bracket-action product is block
    diagonal (ad xi on h, rho(xi) on V), so its exponential splits:
    (xi, x) <> (eta, y) = (xi + exp(s ad xi) eta, x + exp(s rho(xi)) y).
    """
    # a context on h checks mode, s and tol, and its loop's vector operations serve both blocks
    lp = _loop(LoopContext(action.h, s, mode, tol))
    sq, xq = lp.ctx.s, vec(xi)

    def block(m: Matrix, base: Sequence, v: Sequence) -> tuple:
        base, v = lp.vectors(m.rows, base, v)
        return lp.out(lp.add(base, lp.exp_of(m * sq)(v)))

    return block(action.h.left_mul(xq), xi, eta), block(action.of(xq), x, y)


# -- canonical connection on polynomial fields --------------------------------

def constant_field(dim: int, v: Sequence[Scalar]) -> VectorField:
    if len(v) != dim:
        raise ValueError("vector length does not match the dimension")
    return VectorField(dim, tuple(Poly.const(dim, as_q(c)) for c in v))


def connection_eval(a: StructureAlgebra, s: Scalar,
                    x: VectorField, y: VectorField) -> VectorField:
    """(nabla_X Y)(p) = DY(p) X(p) - s X(p) . Y(p), exact in the coefficients."""
    n = a.dim
    if x.nvars != n or y.nvars != n:
        raise ValueError("fields must have one component per algebra basis vector")
    sq = as_q(s)
    comps = [x.derive(c) for c in y.components]
    for (i, j), cell in a.sparse.entries.items():
        xy = x.components[i] * y.components[j]
        for k, ck in cell.items():
            comps[k] = comps[k] - xy * (sq * ck)
    return VectorField(n, tuple(comps))


def torsion_field(a: StructureAlgebra, s: Scalar,
                  x: VectorField, y: VectorField) -> VectorField:
    return connection_eval(a, s, x, y) - connection_eval(a, s, y, x) - vf_bracket(x, y)


def curvature_field(a: StructureAlgebra, s: Scalar,
                    x: VectorField, y: VectorField, z: VectorField) -> VectorField:
    return (connection_eval(a, s, x, connection_eval(a, s, y, z))
            - connection_eval(a, s, y, connection_eval(a, s, x, z))
            - connection_eval(a, s, vf_bracket(x, y), z))
