"""Left loops x <> y = x + exp(s lambda(x)) y and the attached connection.

For a Leibniz product the left multiplications are derivations of the product,
their exponentials are automorphisms, and the loop inherits the left inverse
property along with inner mappings that are loop automorphisms. The loop is
evaluated exactly whenever every left multiplication is nilpotent; otherwise a
float mode with an explicit tolerance takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import StructureAlgebra, Subspace
from .courant import CheckResult, VectorField, vf_bracket
from .linalg import (
    FloatMatrix,
    Matrix,
    NotNilpotentError,
    Q,
    Scalar,
    as_q,
    basis_vec,
    is_nilpotent,
    mat_exp_exact,
    mat_exp_float,
    vadd,
    vzero,
)
from .poly import Poly
from .products import ModuleAction
from .sampling import Pcg32, random_vector

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
    """Is the associative algebra generated by all lambda(e_i) nilpotent?

    Tracks the span W_k of products of exactly k generators. If the envelope
    is nilpotent W_k dies within n^2 + 1 steps; a nonzero fixed point W_(k+1)
    = W_k proves it never dies.
    """
    n = a.dim
    gens = [a.left_mul(basis_vec(n, i)) for i in range(n)]
    chain = Subspace.span(n * n, [g.flat for g in gens])
    for _ in range(n * n + 1):
        if chain.dim == 0:
            return True
        nxt_vecs = []
        for w in chain.basis:
            wm = Matrix.from_flat(w, n)
            for g in gens:
                nxt_vecs.append((wm @ g).flat)
        nxt = Subspace.span(n * n, nxt_vecs)
        if nxt == chain:
            return False
        chain = nxt
    return chain.dim == 0


def loop_gate(a: StructureAlgebra) -> LoopGate:
    """Layered nilpotency evidence; later layers are skipped once one fails."""
    basis_ok = all(is_nilpotent(a.left_mul(basis_vec(a.dim, i)))[0] for i in range(a.dim))
    if not basis_ok:
        return LoopGate(False, False, False)
    rng = Pcg32(_GATE_SEED)
    sampled_ok = all(is_nilpotent(a.left_mul(random_vector(rng, a.dim)))[0]
                     for _ in range(_GATE_SAMPLES))
    if not sampled_ok:
        return LoopGate(True, False, False)
    return LoopGate(True, True, _envelope_nilpotent(a))


# -- evaluation context -------------------------------------------------------

@dataclass(frozen=True)
class LoopContext:
    algebra: StructureAlgebra
    s: Fraction
    mode: str  # "exact" | "float"
    tol: float = 1e-9


def loop_context(algebra: StructureAlgebra, s: Scalar = Q(1, 2),
                 mode: str = "auto", tol: float = 1e-9) -> LoopContext:
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if loop_gate(algebra).exact_ok else "float"
    elif mode == "exact" and not loop_gate(algebra).exact_ok:
        raise NotNilpotentError(
            "left multiplications are not uniformly nilpotent; use float mode")
    return LoopContext(algebra, as_q(s), mode, tol)


FloatVec = tuple[float, ...]


def _to_floats(v: Sequence) -> FloatVec:
    return tuple(float(x) for x in v)


def _left_mul_float(a: StructureAlgebra, x: Sequence[float]) -> FloatMatrix:
    cols = [a.sparse.contract(x, j) for j in range(a.dim)]
    return FloatMatrix.from_rows(list(zip(*cols)))


def _exp_s_lambda(ctx: LoopContext, x: Sequence, factor: Fraction) -> Matrix | FloatMatrix:
    if ctx.mode == "exact":
        lam = ctx.algebra.left_mul(tuple(as_q(c) for c in x))
        return mat_exp_exact(lam * (factor * ctx.s))
    lam = _left_mul_float(ctx.algebra, _to_floats(x))
    return mat_exp_float(lam * float(factor * ctx.s), tol=min(ctx.tol, 1e-12))


# -- loop operations ----------------------------------------------------------

def loop_product(ctx: LoopContext, x: Sequence, y: Sequence):
    """x <> y = x + exp(s lambda(x)) y."""
    if ctx.mode == "exact":
        xq = tuple(as_q(c) for c in x)
        yq = tuple(as_q(c) for c in y)
        return vadd(xq, _exp_s_lambda(ctx, xq, Q(1)).apply(yq))
    xf, yf = _to_floats(x), _to_floats(y)
    ex = _exp_s_lambda(ctx, xf, Q(1))
    return tuple(a + b for a, b in zip(xf, ex.apply(yf)))


def left_inverse(ctx: LoopContext, x: Sequence):
    """The unique x' with x <> x' = 0: x' = -exp(-s lambda(x)) x."""
    if ctx.mode == "exact":
        xq = tuple(as_q(c) for c in x)
        return tuple(-c for c in _exp_s_lambda(ctx, xq, Q(-1)).apply(xq))
    xf = _to_floats(x)
    return tuple(-c for c in _exp_s_lambda(ctx, xf, Q(-1)).apply(xf))


def left_divide(ctx: LoopContext, a: Sequence, b: Sequence):
    """a \\ b, the solution of a <> z = b: exp(-s lambda(a)) (b - a)."""
    if ctx.mode == "exact":
        aq = tuple(as_q(c) for c in a)
        bq = tuple(as_q(c) for c in b)
        diff = tuple(p - q for p, q in zip(bq, aq))
        return _exp_s_lambda(ctx, aq, Q(-1)).apply(diff)
    af, bf = _to_floats(a), _to_floats(b)
    diff = tuple(p - q for p, q in zip(bf, af))
    return _exp_s_lambda(ctx, af, Q(-1)).apply(diff)


def left_inner_mapping(ctx: LoopContext, a: Sequence, b: Sequence):
    """L(a,b) = exp(-s lambda(a<>b)) exp(s lambda(a)) exp(s lambda(b)) as a matrix."""
    ab = loop_product(ctx, a, b)
    return _exp_s_lambda(ctx, ab, Q(-1)) @ _exp_s_lambda(ctx, a, Q(1)) @ _exp_s_lambda(ctx, b, Q(1))


# -- property suite -----------------------------------------------------------

@dataclass(frozen=True)
class LoopPropertyReport:
    ok: bool
    checks: tuple[CheckResult, ...]


def _close(ctx: LoopContext, u: Sequence, v: Sequence) -> bool:
    if ctx.mode == "exact":
        return tuple(u) == tuple(v)
    return max((abs(float(p) - float(q)) for p, q in zip(u, v)), default=0.0) <= ctx.tol


def loop_property_check(ctx: LoopContext, samples: int = 64,
                        seed: int = 0) -> LoopPropertyReport:
    """Identity laws, division, LIP, and the inner-mapping laws on seeded samples."""
    n = ctx.algebra.dim
    rng = Pcg32(seed)
    quads = [tuple(random_vector(rng, n) for _ in range(4)) for _ in range(samples)]
    zero = vzero(n)

    def identity_law(q):
        a = q[0]
        return _close(ctx, loop_product(ctx, zero, a), a) and \
            _close(ctx, loop_product(ctx, a, zero), a)

    def division_law(q):
        a, b = q[0], q[1]
        return _close(ctx, loop_product(ctx, a, left_divide(ctx, a, b)), b) and \
            _close(ctx, left_divide(ctx, a, loop_product(ctx, a, b)), b)

    def inverse_law(q):
        a = q[0]
        return _close(ctx, left_inverse(ctx, a), left_divide(ctx, a, zero)) and \
            _close(ctx, loop_product(ctx, a, left_inverse(ctx, a)), zero)

    def lip_law(q):
        a, b = q[0], q[1]
        return _close(ctx, loop_product(ctx, left_inverse(ctx, a),
                                        loop_product(ctx, a, b)), b)

    def inner_defining_law(q):
        a, b, c = q[0], q[1], q[2]
        lhs = loop_product(ctx, a, loop_product(ctx, b, c))
        lc = left_inner_mapping(ctx, a, b).apply(
            c if ctx.mode == "float" else tuple(as_q(x) for x in c))
        rhs = loop_product(ctx, loop_product(ctx, a, b), lc)
        return _close(ctx, lhs, rhs)

    def inner_automorphism_law(q):
        a, b, c, d = q
        m = left_inner_mapping(ctx, a, b)
        conv = (lambda v: _to_floats(v)) if ctx.mode == "float" else (lambda v: v)
        lhs = m.apply(conv(loop_product(ctx, c, d)))
        rhs = loop_product(ctx, m.apply(conv(c)), m.apply(conv(d)))
        return _close(ctx, lhs, rhs)

    checks = []
    all_ok = True
    for name, law in (("identity", identity_law),
                      ("left_division", division_law),
                      ("left_inverse", inverse_law),
                      ("left_inverse_property", lip_law),
                      ("inner_mapping_defining", inner_defining_law),
                      ("inner_mapping_automorphism", inner_automorphism_law)):
        bad = next((i for i, q in enumerate(quads) if not law(q)), None)
        ok = bad is None
        all_ok = all_ok and ok
        checks.append(CheckResult(name, ok, None if ok else f"sample {bad}"))
    return LoopPropertyReport(all_ok, tuple(checks))


# -- closed form on a semidirect sum ------------------------------------------

def hemi_loop_closed_form(action: ModuleAction, s: Scalar,
                          xi: Sequence, x: Sequence, eta: Sequence, y: Sequence,
                          mode: str = "exact", tol: float = 1e-9):
    """Loop product on h x V evaluated blockwise.

    Left multiplication by (xi, x) in the bracket-action product is block
    diagonal (ad xi on h, rho(xi) on V), so its exponential splits:
    (xi, x) <> (eta, y) = (xi + exp(s ad xi) eta, x + exp(s rho(xi)) y).
    """
    sq = as_q(s)
    ad = action.h.left_mul(tuple(as_q(c) for c in xi))
    rho_xi = action.of(tuple(as_q(c) for c in xi))
    if mode == "exact":
        eh = mat_exp_exact(ad * sq)
        ev = mat_exp_exact(rho_xi * sq)
        return (vadd(tuple(as_q(c) for c in xi), eh.apply(tuple(as_q(c) for c in eta))),
                vadd(tuple(as_q(c) for c in x), ev.apply(tuple(as_q(c) for c in y))))
    if mode == "float":
        eh = mat_exp_float(ad * sq, tol=min(tol, 1e-12))
        ev = mat_exp_float(rho_xi * sq, tol=min(tol, 1e-12))
        return (tuple(a + b for a, b in zip(_to_floats(xi), eh.apply(_to_floats(eta)))),
                tuple(a + b for a, b in zip(_to_floats(x), ev.apply(_to_floats(y)))))
    raise ValueError(f"unknown mode {mode!r}")


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
    comps = []
    for k in range(n):
        acc = Poly.zero(n)
        for j in range(n):
            acc = acc + y.components[k].partial(j) * x.components[j]
        for i in range(n):
            for j in range(n):
                ck = a.c[i][j][k]
                if ck != 0:
                    acc = acc - x.components[i] * y.components[j] * (sq * ck)
        comps.append(acc)
    return VectorField(n, tuple(comps))


def torsion_field(a: StructureAlgebra, s: Scalar,
                  x: VectorField, y: VectorField) -> VectorField:
    return connection_eval(a, s, x, y) - connection_eval(a, s, y, x) - vf_bracket(x, y)


def curvature_field(a: StructureAlgebra, s: Scalar,
                    x: VectorField, y: VectorField, z: VectorField) -> VectorField:
    return (connection_eval(a, s, x, connection_eval(a, s, y, z))
            - connection_eval(a, s, y, connection_eval(a, s, x, z))
            - connection_eval(a, s, vf_bracket(x, y), z))
