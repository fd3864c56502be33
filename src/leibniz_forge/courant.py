"""Exact symbolic Courant bracket on polynomial sections of T (+) T*.

A section pairs a polynomial vector field with a polynomial 1-form on Q^n.
Conventions, fixed once:

    <(xi1, th1), (xi2, th2)> = (i_xi1 th2 + i_xi2 th1) / 2
    D f = (0, df), so <D f, x> = rho(x) f / 2
    courant(x, y) = ([xi1, xi2], L_xi1 th2 - L_xi2 th1 - d(i_xi1 th2 - i_xi2 th1)/2)
    dorfman(x, y) = ([xi1, xi2], L_xi1 th2 - i_xi2 dth1)
    bivector sharp: (pi# th)^i = sum_j pi^{ij} th_j

Under the halved pairing the ideal identity for the image of D reads
x . D f = D(rho(x) f) = 2 D<x, D f>; the un-halved convention would absorb
the factor 2. All checks here use the halved forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Q, Scalar, as_q
from .poly import Poly


# -- graded pieces ------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    nvars: int
    components: tuple[Poly, ...]

    @staticmethod
    def zero(nvars: int) -> "VectorField":
        return VectorField(nvars, tuple(Poly.zero(nvars) for _ in range(nvars)))

    def __post_init__(self) -> None:
        if len(self.components) != self.nvars or any(p.nvars != self.nvars for p in self.components):
            raise ValueError("vector field needs one polynomial per variable")

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.nvars, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.nvars, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.nvars, tuple(-a for a in self.components))

    def scale(self, f: "Poly | Scalar") -> "VectorField":
        return VectorField(self.nvars, tuple(c * f if isinstance(f, Poly) else c * as_q(f)
                                             for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def derive(self, p: Poly) -> Poly:
        """Directional derivative rho(xi) p = sum_i xi_i d_i p."""
        out = Poly.zero(self.nvars)
        for i, c in enumerate(self.components):
            out = out + c * p.partial(i)
        return out


@dataclass(frozen=True)
class OneForm:
    nvars: int
    components: tuple[Poly, ...]

    @staticmethod
    def zero(nvars: int) -> "OneForm":
        return OneForm(nvars, tuple(Poly.zero(nvars) for _ in range(nvars)))

    def __post_init__(self) -> None:
        if len(self.components) != self.nvars or any(p.nvars != self.nvars for p in self.components):
            raise ValueError("1-form needs one polynomial per variable")

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.nvars, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.nvars, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "OneForm":
        return OneForm(self.nvars, tuple(-a for a in self.components))

    def scale(self, f: "Poly | Scalar") -> "OneForm":
        return OneForm(self.nvars, tuple(c * f if isinstance(f, Poly) else c * as_q(f)
                                         for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric matrix of coefficient polynomials, omega_ij = -omega_ji."""

    nvars: int
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        n = self.nvars
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("2-form needs an n x n coefficient matrix")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValueError("2-form coefficients must be antisymmetric")

    @staticmethod
    def from_upper(nvars: int, upper: dict[tuple[int, int], Poly]) -> "TwoForm":
        rows = [[Poly.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
        for (i, j), p in upper.items():
            if not 0 <= i < j < nvars:
                raise ValueError(f"upper-triangular index expected, got ({i}, {j})")
            rows[i][j] = p
            rows[j][i] = -p
        return TwoForm(nvars, tuple(tuple(r) for r in rows))

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric matrix pi^{ij}; sharp maps 1-forms to vector fields."""

    nvars: int
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        n = self.nvars
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("bivector needs an n x n coefficient matrix")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValueError("bivector coefficients must be antisymmetric")

    @staticmethod
    def from_upper(nvars: int, upper: dict[tuple[int, int], Poly]) -> "Bivector":
        rows = [[Poly.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
        for (i, j), p in upper.items():
            if not 0 <= i < j < nvars:
                raise ValueError(f"upper-triangular index expected, got ({i}, {j})")
            rows[i][j] = p
            rows[j][i] = -p
        return Bivector(nvars, tuple(tuple(r) for r in rows))

    def sharp(self, theta: OneForm) -> VectorField:
        comps = []
        for i in range(self.nvars):
            acc = Poly.zero(self.nvars)
            for j in range(self.nvars):
                acc = acc + self.entries[i][j] * theta.components[j]
            comps.append(acc)
        return VectorField(self.nvars, tuple(comps))


@dataclass(frozen=True)
class Section:
    vf: VectorField
    form: OneForm

    @staticmethod
    def zero(nvars: int) -> "Section":
        return Section(VectorField.zero(nvars), OneForm.zero(nvars))

    def __post_init__(self) -> None:
        if self.vf.nvars != self.form.nvars:
            raise ValueError("vector field and 1-form live over different variables")

    @property
    def nvars(self) -> int:
        return self.vf.nvars

    def __add__(self, other: "Section") -> "Section":
        return Section(self.vf + other.vf, self.form + other.form)

    def __sub__(self, other: "Section") -> "Section":
        return Section(self.vf - other.vf, self.form - other.form)

    def __neg__(self) -> "Section":
        return Section(-self.vf, -self.form)

    def scale(self, f: "Poly | Scalar") -> "Section":
        return Section(self.vf.scale(f), self.form.scale(f))

    def is_zero(self) -> bool:
        return self.vf.is_zero() and self.form.is_zero()


# -- Cartan calculus ----------------------------------------------------------

def d_function(f: Poly) -> OneForm:
    return OneForm(f.nvars, tuple(f.partial(i) for i in range(f.nvars)))


def d_one_form(theta: OneForm) -> TwoForm:
    n = theta.nvars
    rows = [[theta.components[j].partial(i) - theta.components[i].partial(j)
             for j in range(n)] for i in range(n)]
    return TwoForm(n, tuple(tuple(r) for r in rows))


def interior_one_form(xi: VectorField, theta: OneForm) -> Poly:
    out = Poly.zero(xi.nvars)
    for a, b in zip(xi.components, theta.components):
        out = out + a * b
    return out


def interior_two_form(xi: VectorField, omega: TwoForm) -> OneForm:
    n = xi.nvars
    comps = []
    for j in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            acc = acc + xi.components[i] * omega.entries[i][j]
        comps.append(acc)
    return OneForm(n, tuple(comps))


def vf_bracket(a: VectorField, b: VectorField) -> VectorField:
    n = a.nvars
    comps = []
    for k in range(n):
        acc = Poly.zero(n)
        for i in range(n):
            acc = acc + a.components[i] * b.components[k].partial(i)
            acc = acc - b.components[i] * a.components[k].partial(i)
        comps.append(acc)
    return VectorField(n, tuple(comps))


def lie_derivative_one_form(xi: VectorField, theta: OneForm) -> OneForm:
    """Cartan formula i_xi d theta + d i_xi theta."""
    return interior_two_form(xi, d_one_form(theta)) + d_function(interior_one_form(xi, theta))


# -- pairing, D, and the two brackets -----------------------------------------

def pairing(x: Section, y: Section) -> Poly:
    half = Q(1, 2)
    return (interior_one_form(x.vf, y.form) + interior_one_form(y.vf, x.form)) * half


def d_section(f: Poly) -> Section:
    return Section(VectorField.zero(f.nvars), d_function(f))


def courant_bracket(x: Section, y: Section) -> Section:
    half = Q(1, 2)
    form = (lie_derivative_one_form(x.vf, y.form)
            - lie_derivative_one_form(y.vf, x.form)
            - d_function(interior_one_form(x.vf, y.form)
                         - interior_one_form(y.vf, x.form)).scale(half))
    return Section(vf_bracket(x.vf, y.vf), form)


def dorfman_product(x: Section, y: Section) -> Section:
    form = (lie_derivative_one_form(x.vf, y.form)
            - interior_two_form(y.vf, d_one_form(x.form)))
    return Section(vf_bracket(x.vf, y.vf), form)


def t_function(x: Section, y: Section, z: Section) -> Poly:
    third = Q(1, 3)
    acc = pairing(courant_bracket(x, y), z)
    acc = acc + pairing(courant_bracket(y, z), x)
    acc = acc + pairing(courant_bracket(z, x), y)
    return acc * third


def courant_ternary(x: Section, y: Section, z: Section) -> Section:
    """Closed form of -(x . y) . z / 4 for the Dorfman product."""
    quarter = Q(-1, 4)
    inner_vf = vf_bracket(x.vf, y.vf)
    inner_form = (lie_derivative_one_form(x.vf, y.form)
                  - lie_derivative_one_form(y.vf, x.form))
    form = (lie_derivative_one_form(inner_vf, z.form)
            - interior_two_form(z.vf, d_one_form(inner_form)))
    return Section(vf_bracket(inner_vf, z.vf), form).scale(quarter)


# -- axiom and identity suites ------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None


def axiom_suite(triples: Sequence[tuple[Section, Section, Section]],
                funcs: Sequence[tuple[Poly, Poly]]) -> list[CheckResult]:
    """The five structure axioms, checked exactly on every supplied case.

    axiom1  cyclic [[x,y],z] sums to D T(x,y,z)
    axiom2  anchor is bracket preserving
    axiom3  Leibniz scaling of the skew bracket with correction terms
    axiom4  D lands in the anchor kernel and is isotropic
    axiom5  pairing is invariant for the Dorfman product
    """
    results: list[CheckResult] = []

    def ax1(case):
        idx, (x, y, z) = case
        lhs = (courant_bracket(courant_bracket(x, y), z)
               + courant_bracket(courant_bracket(y, z), x)
               + courant_bracket(courant_bracket(z, x), y))
        return idx, (lhs - d_section(t_function(x, y, z))).is_zero()

    def ax2(case):
        idx, (x, y, z) = case
        lhs = courant_bracket(x, y).vf - vf_bracket(x.vf, y.vf)
        return idx, lhs.is_zero()

    def ax3(case):
        idx, ((x, y, _), (f, _g)) = case
        lhs = courant_bracket(x, y.scale(f))
        rhs = (courant_bracket(x, y).scale(f)
               + y.scale(x.vf.derive(f))
               - d_section(f).scale(pairing(x, y)))
        return idx, (lhs - rhs).is_zero()

    def ax4(case):
        idx, (f, g) = case
        return idx, pairing(d_section(f), d_section(g)).is_zero() and d_section(f).vf.is_zero()

    def ax5(case):
        idx, (x, y, z) = case
        lhs = x.vf.derive(pairing(y, z))
        rhs = (pairing(dorfman_product(x, y), z) + pairing(y, dorfman_product(x, z)))
        return idx, (lhs - rhs).is_zero()

    for name, cases, fn in (
            ("axiom1", list(enumerate(triples)), ax1),
            ("axiom2", list(enumerate(triples)), ax2),
            ("axiom3", [(i, (t, fg)) for i, (t, fg) in enumerate(zip(triples, _cycle(funcs, len(triples))))], ax3),
            ("axiom4", list(enumerate(funcs)), ax4),
            ("axiom5", list(enumerate(triples)), ax5)):
        outcomes = [fn(case) for case in cases]
        bad = next((i for i, ok in outcomes if not ok), None)
        results.append(CheckResult(name, bad is None,
                                   None if bad is None else f"case {bad}"))
    return results


def _cycle(items: Sequence, count: int) -> list:
    if not items:
        raise ValueError("at least one sampled function pair is required")
    return [items[i % len(items)] for i in range(count)]


def dorfman_checks(triples: Sequence[tuple[Section, Section, Section]],
                   funcs: Sequence[tuple[Poly, Poly]]) -> list[CheckResult]:
    """Dorfman Leibniz rule, the skew/symmetric decomposition, and the D-ideal identity."""
    results: list[CheckResult] = []

    bad = None
    for i, (x, y, z) in enumerate(triples):
        lhs = dorfman_product(x, dorfman_product(y, z))
        rhs = (dorfman_product(dorfman_product(x, y), z)
               + dorfman_product(y, dorfman_product(x, z)))
        if not (lhs - rhs).is_zero():
            bad = i
            break
    results.append(CheckResult("dorfman_leibniz", bad is None,
                               None if bad is None else f"case {bad}"))

    bad = None
    for i, (x, y, _) in enumerate(triples):
        dec = dorfman_product(x, y) - courant_bracket(x, y) - d_section(pairing(x, y))
        skew = courant_bracket(x, y) - (dorfman_product(x, y) - dorfman_product(y, x)).scale(Q(1, 2))
        sym = (dorfman_product(x, y) + dorfman_product(y, x)
               - d_section(pairing(x, y)).scale(2))
        if not dec.is_zero() or not skew.is_zero() or not sym.is_zero():
            bad = i
            break
    results.append(CheckResult("skew_symmetric_decomposition", bad is None,
                               None if bad is None else f"case {bad}"))

    bad = None
    for i, ((x, _, _), (f, _g)) in enumerate(zip(triples, _cycle(funcs, len(triples)))):
        left = dorfman_product(x, d_section(f))
        mid = d_section(x.vf.derive(f))
        right = d_section(pairing(x, d_section(f))).scale(2)
        back = dorfman_product(d_section(f), x)
        if not (left - mid).is_zero() or not (left - right).is_zero() or not back.is_zero():
            bad = i
            break
    results.append(CheckResult("d_image_ideal", bad is None,
                               None if bad is None else f"case {bad}"))
    return results


# -- graphs -------------------------------------------------------------------

def graph_section_poisson(pi: Bivector, theta: OneForm) -> Section:
    return Section(pi.sharp(theta), theta)


def graph_section_twoform(omega: TwoForm, xi: VectorField) -> Section:
    return Section(xi, interior_two_form(xi, omega))


def graph_closure_check(kind: str, data: "Bivector | TwoForm",
                        inputs: Sequence) -> tuple[bool, tuple[int, int] | None]:
    """Close the graph under the Courant bracket over all input pairs.

    For a bivector the graph holds (pi# theta, theta); closure fails exactly
    when pi is not Poisson. For a 2-form the graph holds (xi, i_xi omega);
    closure fails exactly when the form is not closed. Returns the first
    failing input pair as witness.
    """
    if kind == "poisson":
        sections = [graph_section_poisson(data, th) for th in inputs]

        def on_graph(s: Section) -> bool:
            return (s.vf - data.sharp(s.form)).is_zero()
    elif kind == "twoform":
        sections = [graph_section_twoform(data, xi) for xi in inputs]

        def on_graph(s: Section) -> bool:
            return (s.form - interior_two_form(s.vf, data)).is_zero()
    else:
        raise ValueError(f"unknown graph kind {kind!r}")

    for i in range(len(sections)):
        for j in range(len(sections)):
            if not on_graph(courant_bracket(sections[i], sections[j])):
                return False, (i, j)
    return True, None


# -- quotient by exact forms and the double semidirect product ----------------

def homotopy_quotient(theta: OneForm) -> tuple[OneForm, Poly]:
    """(canonical representative, potential) for the class of theta mod exact forms.

    The potential integrates along rays from the origin: a component term
    c x^alpha in slot i contributes c x^alpha x_i / (|alpha| + 1). The
    representative theta - d(potential) vanishes exactly on exact forms and is
    a projection.
    """
    n = theta.nvars
    potential = Poly.zero(n)
    for i, comp in enumerate(theta.components):
        for mono, coeff in comp.terms:
            lifted = tuple(e + 1 if j == i else e for j, e in enumerate(mono))
            potential = potential + Poly.monomial(n, lifted, coeff * Q(1, sum(mono) + 1))
    return theta - d_function(potential), potential


def form_class(theta: OneForm) -> OneForm:
    return homotopy_quotient(theta)[0]


HElement = tuple[VectorField, OneForm]  # second slot: canonical class representative
DoubleElement = tuple[HElement, Section]


def h_bracket(a: HElement, b: HElement) -> HElement:
    """Bracket of the vector-fields-with-form-classes Lie algebra."""
    xi1, phi1 = a
    xi2, phi2 = b
    form = lie_derivative_one_form(xi1, phi2) - lie_derivative_one_form(xi2, phi1)
    return (vf_bracket(xi1, xi2), form_class(form))


def h_act(a: HElement, e: Section) -> Section:
    """Action on a plain section: Lie derivative plus the nilpotent -i d(phi) part."""
    xi, phi = a
    return Section(vf_bracket(xi, e.vf),
                   lie_derivative_one_form(xi, e.form)
                   - interior_two_form(e.vf, d_one_form(phi)))


def double_bracket(a: DoubleElement, b: DoubleElement) -> DoubleElement:
    """Semidirect bracket on (X ltimes Omega^1/dC) ltimes (X x Omega^1)."""
    return (h_bracket(a[0], b[0]), h_act(a[0], b[1]) - h_act(b[0], a[1]))


def double_equal(a: DoubleElement, b: DoubleElement) -> bool:
    return (a[0][0] - b[0][0]).is_zero() and (a[0][1] - b[0][1]).is_zero() \
        and (a[1] - b[1]).is_zero()


def sigma_double(s: Scalar, x: Section) -> DoubleElement:
    sq = as_q(s)
    return ((x.vf.scale(sq), form_class(x.form.scale(sq))), x)


def double_recovery_check(x: Section, y: Section) -> bool:
    """E-projection of the sigma_(1/2) bracket reproduces the Courant bracket."""
    half = Q(1, 2)
    _, e_part = double_bracket(sigma_double(half, x), sigma_double(half, y))
    return (e_part - courant_bracket(x, y)).is_zero()
