"""Exact symbolic Courant bracket on polynomial sections of T (+) T*.

A section pairs a polynomial vector field with a polynomial 1-form on Q^n.
Conventions, fixed once:

    <(xi1, th1), (xi2, th2)> = (i_xi1 th2 + i_xi2 th1) / 2
    D f = (0, df), so <D f, x> = rho(x) f / 2
    dorfman(x, y) = x . y = ([xi1, xi2], L_xi1 th2 - i_xi2 dth1)
    courant(x, y) = (x . y - y . x)/2 = x . y - D<x, y>
    courant_ternary(x, y, z) = -(x . y) . z / 4
    h_act((xi, phi), e) = (xi, phi) . e, in the double semidirect product
    bivector sharp: (pi# th)^i = sum_j pi^{ij} th_j

Each component of a bracket, Lie derivative, contraction or sharp is one call of
poly._contract, a sum of terms w a d_i b (d_i the partial in variable i) read straight
from the operands' stored integer numerators; with x = (xi, th) and y = (eta, phi):

    [xi, eta]_k    = sum_i xi_i d_i eta_k - eta_i d_i xi_k
    (L_xi th)_j    = sum_i xi_i d_i th_j + th_i d_j xi_i
    courant form_j = sum_i xi_i d_i phi_j - eta_i d_i th_j
                     + (phi_i d_j xi_i - xi_i d_j phi_i - th_i d_j eta_i + eta_i d_j th_i)/2

Every term of these sums has a factor xi_i or eta_i, so the sums run over the
nonzero components of the vector fields only; the variable counts of all the
operands are checked first, so a zero component never hides a mismatch.

Under the halved pairing the ideal identity for the image of D reads
x . D f = D(rho(x) f) = 2 D<x, D f>; the un-halved convention would absorb
the factor 2. All checks here use the halved forms exactly. Every Poly is
stored in a canonical form, so lhs - rhs is zero exactly when lhs == rhs: the
checks compare their two sides with == and subtract nothing.

In coordinates a vector field and a 1-form are both one polynomial per
variable, and a bivector and a 2-form both an antisymmetric polynomial matrix,
so each pair is one class under two names: VectorField is OneForm, and
Bivector is TwoForm. The slot a value fills says which one it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .linalg import Q, Scalar
from .poly import Poly, _contract


# -- graded pieces ------------------------------------------------------------

def _dot(nvars: int, ps: Sequence[Poly], qs: Sequence[Poly]) -> Poly:
    """sum_i p_i q_i, one contraction: the interior products and sharp."""
    return _contract(nvars, [(1, p, q, None) for p, q in zip(ps, qs)])


def _support(nvars: int, field: "OneForm", *others) -> list[int]:
    """The indices of field's nonzero components, after checking that field and the
    others live over nvars variables, so that no skipped zero component hides a mismatch."""
    if field.nvars != nvars or any(f.nvars != nvars for f in others):
        raise ValueError("variable count mismatch")
    return [i for i, p in enumerate(field.components) if p.nums]


def _field(nvars: int, items: Callable[[int], list]) -> "OneForm":
    """The field whose k-th component is the contraction of the items items(k)."""
    comps = tuple(_contract(nvars, items(k)) for k in range(nvars))
    field = object.__new__(OneForm)  # checked as built: each _contract is a Poly in nvars variables
    field.__dict__.update(nvars=nvars, components=comps)
    return field


@dataclass(frozen=True)
class OneForm:
    """One polynomial per variable: a 1-form, or a vector field (VectorField)."""

    nvars: int
    components: tuple[Poly, ...]

    @staticmethod
    def zero(nvars: int) -> "OneForm":
        return OneForm(nvars, tuple(Poly.zero(nvars) for _ in range(nvars)))

    def __post_init__(self) -> None:
        if len(self.components) != self.nvars or any(p.nvars != self.nvars for p in self.components):
            raise ValueError("vector field or 1-form needs one polynomial per variable")

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.nvars, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.nvars, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "OneForm":
        return OneForm(self.nvars, tuple(-a for a in self.components))

    def scale(self, f: "Poly | Scalar") -> "OneForm":
        return OneForm(self.nvars, tuple(c * f for c in self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def derive(self, p: Poly) -> Poly:
        """Directional derivative rho(xi) p = sum_i xi_i d_i p."""
        return _contract(self.nvars, [(1, a, p, i) for i, a in enumerate(self.components)])


VectorField = OneForm


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric matrix of coefficient polynomials, omega_ij = -omega_ji.

    Read as a bivector pi^{ij} (Bivector), sharp maps 1-forms to vector fields.
    """

    nvars: int
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        n = self.nvars
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("2-form or bivector needs an n x n coefficient matrix")
        if any(not isinstance(p, Poly) or p.nvars != n for r in self.entries for p in r):
            raise ValueError(f"2-form or bivector coefficients must be Polys in {n} variables")
        if any(self.entries[i][j] != -self.entries[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("2-form or bivector coefficients must be antisymmetric")

    @staticmethod
    def from_upper(nvars: int, upper: dict[tuple[int, int], Poly]) -> "TwoForm":
        rows = [[Poly.zero(nvars) for _ in range(nvars)] for _ in range(nvars)]
        for (i, j), p in upper.items():
            if not 0 <= i < j < nvars:
                raise ValueError(f"upper-triangular index expected, got ({i}, {j})")
            if not isinstance(p, Poly) or p.nvars != nvars:
                raise ValueError(f"entry ({i}, {j}) is not a Poly in {nvars} variables")
            rows[i][j], rows[j][i] = p, -p
        form = object.__new__(TwoForm)  # checked and antisymmetric as built
        form.__dict__.update(nvars=nvars, entries=tuple(tuple(r) for r in rows))
        return form

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)

    def sharp(self, theta: OneForm) -> VectorField:
        return VectorField(self.nvars, tuple(_dot(self.nvars, row, theta.components)
                                             for row in self.entries))


Bivector = TwoForm


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
    n, c = theta.nvars, theta.components
    return TwoForm.from_upper(n, {(i, j): c[j].partial(i) - c[i].partial(j)
                                  for i in range(n) for j in range(i + 1, n)})


def interior_one_form(xi: VectorField, theta: OneForm) -> Poly:
    return _dot(xi.nvars, xi.components, theta.components)


def interior_two_form(xi: VectorField, omega: TwoForm) -> OneForm:
    """(i_xi omega)_j = sum_i xi_i omega_ij."""
    return OneForm(xi.nvars, tuple(_dot(xi.nvars, xi.components, column)
                                   for column in zip(*omega.entries)))


def vf_bracket(a: VectorField, b: VectorField) -> VectorField:
    n, u, v = a.nvars, a.components, b.components
    su, sv = _support(n, a, b), _support(n, b)
    return _field(n, lambda k: [(1, u[i], v[k], i) for i in su] + [(-1, v[i], u[k], i) for i in sv])


def lie_derivative_one_form(xi: VectorField, theta: OneForm) -> OneForm:
    n, a, t = xi.nvars, xi.components, theta.components
    support = _support(n, xi, theta)
    return _field(n, lambda j: [u for i in support
                                for u in ((1, a[i], t[j], i), (1, t[i], a[i], j))])


def _i_d(nvars: int, *terms: tuple[int, VectorField, OneForm]) -> OneForm:
    """sum w i_xi d th over the terms (w, xi, th), by the coordinate formula
    (i_xi d th)_j = sum_i xi_i d_i th_j - xi_i d_j th_i."""
    comps = [(w, xi.components, th.components, _support(nvars, xi, th)) for w, xi, th in terms]
    return _field(nvars, lambda j: [u for w, a, t, support in comps for i in support
                                    for u in ((w, a[i], t[j], i), (-w, a[i], t[i], j))])


# -- pairing, D, and the two brackets -----------------------------------------

def pairing(x: Section, y: Section) -> Poly:
    return (interior_one_form(x.vf, y.form) + interior_one_form(y.vf, x.form)) * Q(1, 2)


def d_section(f: Poly) -> Section:
    return Section(VectorField.zero(f.nvars), d_function(f))


def courant_bracket(x: Section, y: Section) -> Section:
    """[x, y], its 1-form by the courant form_j of the module docstring."""
    n, h, mh = x.nvars, Q(1, 2), Q(-1, 2)
    sx, sy = _support(n, x.vf, x.form, y.vf, y.form), _support(n, y.vf)
    xi, th, eta, phi = (f.components for f in (x.vf, x.form, y.vf, y.form))

    def items(j: int) -> list:  # the terms with a factor xi_i, then those with a factor eta_i
        return ([t for i in sx for t in ((1, xi[i], phi[j], i), (h, phi[i], xi[i], j),
                                         (mh, xi[i], phi[i], j))]
                + [t for i in sy for t in ((-1, eta[i], th[j], i), (mh, th[i], eta[i], j),
                                           (h, eta[i], th[i], j))])
    return Section(vf_bracket(x.vf, y.vf), _field(n, items))


def dorfman_product(x: Section, y: Section) -> Section:
    """x . y = ([xi, eta], L_xi phi - i_eta dth) for x = (xi, th) and y = (eta, phi)."""
    form = lie_derivative_one_form(x.vf, y.form) - _i_d(x.nvars, (1, y.vf, x.form))
    return Section(vf_bracket(x.vf, y.vf), form)


def _t_value(x: Section, y: Section, z: Section, xy: Section, yz: Section, zx: Section) -> Poly:
    return (pairing(xy, z) + pairing(yz, x) + pairing(zx, y)) * Q(1, 3)


def t_function(x: Section, y: Section, z: Section) -> Poly:
    return _t_value(x, y, z, courant_bracket(x, y), courant_bracket(y, z), courant_bracket(z, x))


def courant_ternary(x: Section, y: Section, z: Section) -> Section:
    """-(x . y) . z / 4 for the Dorfman product."""
    return dorfman_product(dorfman_product(x, y), z).scale(Q(-1, 4))


# -- axiom and identity suites ------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: Any = None  # the first failure, as "case k" or as data
    value: Any = None  # a reported value, shown next to the verdict


def _first_failure(name: str, cases: Iterable[tuple], holds: Callable[..., bool]) -> CheckResult:
    """Run holds(*case) over the cases in order, stopping at the first that fails."""
    bad = next((i for i, case in enumerate(cases) if not holds(*case)), None)
    return CheckResult(name, bad is None, None if bad is None else f"case {bad}")


def _once(product: Callable[[Section, Section], Section]) -> Callable[[Section, Section], Section]:
    """product, once per pair of live sections, keyed by identity: a Section hashes slowly."""
    seen: dict[tuple[int, int], Section] = {}
    return lambda u, v: (seen[key] if (key := (id(u), id(v))) in seen
                         else seen.setdefault(key, product(u, v)))


def _with_funcs(triples: Sequence[tuple], funcs: Sequence[tuple]) -> list[tuple]:
    if not funcs:
        raise ValueError("at least one sampled function pair is required")
    return [(*t, *funcs[i % len(funcs)]) for i, t in enumerate(triples)]


def axiom_suite(triples: Sequence[tuple[Section, Section, Section]],
                funcs: Sequence[tuple[Poly, Poly]]) -> list[CheckResult]:
    """The five structure axioms, each checked exactly up to its first failing case,
    with each bracket of two given sections computed once per call: 7 per triple.

    axiom1  cyclic [[x,y],z] sums to D T(x,y,z)
    axiom2  anchor is bracket preserving
    axiom3  Leibniz scaling of the skew bracket with correction terms
    axiom4  D lands in the anchor kernel and is isotropic
    axiom5  pairing is invariant for the Dorfman product
    """
    br = _once(courant_bracket)

    def ax1(x, y, z):
        xy, yz, zx = br(x, y), br(y, z), br(z, x)
        lhs = courant_bracket(xy, z) + courant_bracket(yz, x) + courant_bracket(zx, y)
        return lhs == d_section(_t_value(x, y, z, xy, yz, zx))

    def ax2(x, y, _z):
        return br(x, y).vf == vf_bracket(x.vf, y.vf)

    def ax3(x, y, _z, f, _g):
        lhs = courant_bracket(x, y.scale(f))
        rhs = (br(x, y).scale(f)
               + y.scale(x.vf.derive(f))
               - d_section(f).scale(pairing(x, y)))
        return lhs == rhs

    def ax4(f, g):
        return pairing(d_section(f), d_section(g)).is_zero() and d_section(f).vf.is_zero()

    def ax5(x, y, z):
        lhs = x.vf.derive(pairing(y, z))
        rhs = (pairing(dorfman_product(x, y), z) + pairing(y, dorfman_product(x, z)))
        return lhs == rhs

    return [_first_failure("axiom1", triples, ax1),
            _first_failure("axiom2", triples, ax2),
            _first_failure("axiom3", _with_funcs(triples, funcs), ax3),
            _first_failure("axiom4", funcs, ax4),
            _first_failure("axiom5", triples, ax5)]


def dorfman_checks(triples: Sequence[tuple[Section, Section, Section]],
                   funcs: Sequence[tuple[Poly, Poly]]) -> list[CheckResult]:
    """Dorfman Leibniz rule, the skew/symmetric decomposition, and the D-ideal identity."""
    x_dot_y = _once(dorfman_product)  # read by the first two: 9 products per triple

    def leibniz(x, y, z):
        lhs = dorfman_product(x, dorfman_product(y, z))
        rhs = (dorfman_product(x_dot_y(x, y), z)
               + dorfman_product(y, dorfman_product(x, z)))
        return lhs == rhs

    def decomposition(x, y, _z):
        xy, yx, br, dxy = (x_dot_y(x, y), dorfman_product(y, x),
                           courant_bracket(x, y), d_section(pairing(x, y)))
        return xy == br + dxy and br == (xy - yx).scale(Q(1, 2)) and xy + yx == dxy.scale(2)

    def d_image_ideal(x, _y, _z, f, _g):
        df = d_section(f)
        left = dorfman_product(x, df)
        return (left == d_section(x.vf.derive(f)) and left == d_section(pairing(x, df)).scale(2)
                and dorfman_product(df, x).is_zero())

    return [_first_failure("dorfman_leibniz", triples, leibniz),
            _first_failure("skew_symmetric_decomposition", triples, decomposition),
            _first_failure("d_image_ideal", _with_funcs(triples, funcs), d_image_ideal)]


# -- graphs -------------------------------------------------------------------

def graph_section_poisson(pi: Bivector, theta: OneForm) -> Section:
    return Section(pi.sharp(theta), theta)


def graph_section_twoform(omega: TwoForm, xi: VectorField) -> Section:
    return Section(xi, interior_two_form(xi, omega))


_GRAPHS = {
    "poisson": (graph_section_poisson, lambda pi, s: s.vf - pi.sharp(s.form)),
    "twoform": (graph_section_twoform, lambda omega, s: s.form - interior_two_form(s.vf, omega)),
}


def _graph_kind(kind: str) -> tuple[Callable, Callable]:
    if not isinstance(kind, str) or kind not in _GRAPHS:
        raise ValueError(f"unknown graph kind {kind!r}")
    return _GRAPHS[kind]


def graph_section(kind: str, data: TwoForm, u: OneForm) -> Section:
    """The point of the graph over u: (pi# u, u) for kind "poisson", (u, i_u omega) for "twoform"."""
    return _graph_kind(kind)[0](data, u)


def graph_residual(kind: str, data: TwoForm, s: Section) -> OneForm:
    """How far s is off the graph, zero exactly on it: the vector field
    s.vf - pi# s.form for "poisson", the 1-form s.form - i_(s.vf) omega for "twoform"."""
    return _graph_kind(kind)[1](data, s)


def graph_closure_check(kind: str, data: "Bivector | TwoForm",
                        inputs: Sequence) -> tuple[bool, tuple[int, int] | None]:
    """Close the graph under the Courant bracket over all input pairs.

    For a bivector the graph holds (pi# theta, theta); closure fails exactly
    when pi is not Poisson. For a 2-form the graph holds (xi, i_xi omega);
    closure fails exactly when the form is not closed. Returns the first
    failing input pair as witness. An unknown kind is a ValueError, inputs or not.
    Only the pairs i < j are bracketed: [y, x] = -[x, y] exactly and the residuals
    are linear, so (j, i) fails exactly when (i, j) does, and [x, x] = 0; so the
    first failing pair of the full row-major scan has i < j.
    """
    section, residual = _graph_kind(kind)
    sections = [section(data, u) for u in inputs]
    bad = next(((i, j) for i, x in enumerate(sections) for j in range(i + 1, len(sections))
                if not residual(data, courant_bracket(x, sections[j])).is_zero()), None)
    return bad is None, bad


# -- quotient by exact forms and the double semidirect product ----------------

def homotopy_quotient(theta: OneForm) -> tuple[OneForm, Poly]:
    """(canonical representative, potential) for the class of theta mod exact forms.

    The potential integrates along rays from the origin: a component term
    c x^alpha in slot i contributes c x^alpha x_i / (|alpha| + 1). The
    representative theta - d(potential) vanishes exactly on exact forms and is
    a projection.
    """
    terms: dict = {}
    for i, comp in enumerate(theta.components):
        for mono, coeff in comp.terms:
            lifted, c = mono[:i] + (mono[i] + 1,) + mono[i + 1:], coeff / (sum(mono) + 1)
            terms[lifted] = terms[lifted] + c if lifted in terms else c
    potential = Poly.from_dict(theta.nvars, terms)  # exponents made here, so validated
    return theta - d_function(potential), potential


def form_class(theta: OneForm) -> OneForm:
    return homotopy_quotient(theta)[0]


HElement = tuple[VectorField, OneForm]  # second slot: canonical class representative
DoubleElement = tuple[HElement, Section]


def h_bracket(a: HElement, b: HElement) -> HElement:
    """Bracket of the vector-fields-with-form-classes Lie algebra: the Courant form's class."""
    (xi1, phi1), (xi2, phi2) = a, b
    return (vf_bracket(xi1, xi2), form_class(_i_d(xi1.nvars, (1, xi1, phi2), (-1, xi2, phi1))))


def h_act(a: HElement, e: Section) -> Section:
    """Action on a plain section: the Dorfman product of (xi, phi) with it."""
    return dorfman_product(Section(*a), e)


def double_bracket(a: DoubleElement, b: DoubleElement) -> DoubleElement:
    """Semidirect bracket on (X ltimes Omega^1/dC) ltimes (X x Omega^1)."""
    return (h_bracket(a[0], b[0]), h_act(a[0], b[1]) - h_act(b[0], a[1]))


def double_equal(a: DoubleElement, b: DoubleElement) -> bool:
    """Slot by slot, a mismatch of variable counts a ValueError; stored forms are
    canonical, so p == q is p - q == 0."""
    for p, q in zip((*a[0], a[1]), (*b[0], b[1])):
        if p.nvars != q.nvars:
            raise ValueError("variable count mismatch")
        if p != q:
            return False
    return True


def sigma_double(s: Scalar, x: Section) -> DoubleElement:
    return ((x.vf.scale(s), form_class(x.form.scale(s))), x)


def double_recovery_check(x: Section, y: Section) -> bool:
    """The E part of the sigma_(1/2) bracket, h_act(a, y) - h_act(b, x), is [x, y]."""
    (a, _), (b, _) = sigma_double(Q(1, 2), x), sigma_double(Q(1, 2), y)
    return h_act(a, y) - h_act(b, x) == courant_bracket(x, y)
