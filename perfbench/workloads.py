"""The four benchmark workloads, each a seeded list of cases with known answers.

A case is one public call that returns a verdict, as a library or CLI user
makes it. Every known answer comes from the mathematics of Kinyon-Weinstein
(arXiv math/0006022), not from running the library:

* every hemisemidirect product is Leibniz, and never Lie when the action is
  nonzero, so its graph is closed but not a Lie subalgebra;
* the demisemidirect products on gl(2) x Q^2 and gl(3) x Q^3 are not Leibniz;
* every Leibniz algebra carries a Lie-Yamaguti structure, a lambda envelope
  and a canonical envelope with exact s = 1/2 recovery and s-scaling;
* the left-loop laws hold when every left multiplication is nilpotent;
* the Courant axioms hold on every sample, so(3)* is Poisson, a 2-form on
  Q^2 is closed, and the non-Jacobi bivector and x3 dx1^dx2 are not;
* the loop product x + exp(s lambda(x)) y is a finite series when lambda(x)
  is nilpotent, and on so(3) exp(s lambda(x)) is a rotation about x.

The one exception is the random algebras of omni_tensor: there the known
answer for graph_criterion is the verdict of check_leibniz/check_lie, an
independent code path for the same theorem.

Builders take the imported package, so that importing it is part of set-up,
and make every input from Pcg32 streams derived from the workload seed.
Call targets are looked up on the package when a case runs, never bound at
set-up, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Callable

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Case:
    group: str
    run: Callable[..., Any]       # the timed public call
    verdict: Callable[[Any], Any]  # output -> comparable verdict, untimed
    expected: Any                 # the known answer
    args: Callable[[], tuple] = tuple  # fresh inputs for each attempt, untimed
    reject: bool = False          # the known answer is a rejection


def _stream(lf, seed: int, name: str):
    """An independent Pcg32 stream per input family, derived from the seed."""
    h = 1469598103934665603
    for ch in name.encode():
        h = ((h ^ ch) * 1099511628211) & _MASK64
    return lf.Pcg32((seed * 0x9E3779B97F4A7C15 + h) & _MASK64)


def _fresh(lf, a):
    """A new StructureAlgebra with the same constants and no cached verdicts."""
    return lf.StructureAlgebra(a.dim, a.c, a.basis_names, a.name)


DRAWS = 4


def _density(a) -> float:
    cells = [x for row in a.c for cell in row for x in cell]
    return sum(1 for x in cells if x != 0) / len(cells)


def _scale(count: int, smoke: bool) -> int:
    return 1 if smoke else count


# -- small algebras named by the paper's examples ----------------------------

def _leibniz2(lf):
    return lf.StructureAlgebra.from_products(2, {(1, 1): {0: 1}}, name="leibniz2")


def _so3(lf):
    return lf.StructureAlgebra.from_products(
        3, {(0, 1): {2: 1}, (1, 0): {2: -1}, (1, 2): {0: 1},
            (2, 1): {0: -1}, (2, 0): {1: 1}, (0, 2): {1: -1}}, name="so3")


def _n2_hemi(lf):
    n2 = lf.StructureAlgebra.abelian(1, name="n2")
    act = lf.ModuleAction(n2, (lf.Matrix.from_rows([[0, 1], [0, 0]]),))
    return lf.hemisemidirect(n2, act, name="n2_hemi")


def _so3_hemi(lf):
    so3 = _so3(lf)
    mats = tuple(so3.left_mul(lf.linalg.basis_vec(3, i)) for i in range(3))
    return lf.hemisemidirect(so3, lf.ModuleAction(so3, mats), name="so3_hemi")


def _nl3(lf):
    # e1.e1 = e2, e2.e2 = e3 fails Leibniz at (e2, e1, e1): e2.(e1.e1) = e3, the
    # right side is 0
    return lf.StructureAlgebra.from_products(
        3, {(0, 0): {1: 1}, (1, 1): {2: 1}}, name="nl3")


# -- loop_laws ------------------------------------------------------------------

_LOOP_LAWS = (True,) * 6


def build_loop_laws(lf, seed: int, smoke: bool, workdir: str):
    """loop_context (the gate) then loop_property_check at s = 1/2, as `loop verify`."""
    half = Q(1, 2)
    seeds = _stream(lf, seed, "loop.sample_seeds")
    algs = _stream(lf, seed, "loop.algebras")
    cases: list[Case] = []

    def laws(group, a, mode, samples, count, tol=1e-9):
        for _ in range(_scale(count, smoke)):
            sample_seed = seeds.next_u32()
            cases.append(Case(
                group,
                lambda alg, sd=sample_seed: _check_loop(lf, alg, half, tol, samples, sd),
                lambda out: (out[0].mode, tuple(c.ok for c in out[1].checks)),
                (mode, _LOOP_LAWS),
                lambda a=a: (_fresh(lf, a),)))

    # Counts place the median inside the cheap E12-slice operations and the
    # 90th percentile inside the dense nilp3 cases, so that neither sits on a
    # gap between groups, and keep one pass near three seconds.
    laws("leibniz2", _leibniz2(lf), "exact", 2, 4)
    laws("so3", _so3(lf), "float", 2, 4, tol=1e-8)
    laws("n2_hemi", _n2_hemi(lf), "exact", 1, 10)
    laws("so3_hemi", _so3_hemi(lf), "float", 1, 4, tol=1e-8)
    nilps = []
    for dim, samples, count in ((2, 2, 4), (3, 1, 10), (4, 1, 1), (5, 1, 1)):
        for _ in range(_scale(count, smoke)):
            nilps.append(_dense_nilpotent(lf, algs, dim))
            laws(f"nilp{dim}", nilps[-1], "exact", samples, 1)
    laws("nilp4_s15", lf.random_nilpotent_leibniz(lf.Pcg32(15), 4), "exact", 1, 1)
    cases += _e12_slice_cases(lf, _stream(lf, seed, "loop.slice"), smoke)

    dens = [_density(a) for a in nilps]
    props = {"algebra_dims": [2, 3, 4, 5, 6], "s": "1/2", "float_tol": 1e-8,
             "nilp_density": [round(min(dens), 3), round(max(dens), 3)]}
    return cases, props


def _check_loop(lf, alg, s, tol, samples, sample_seed):
    ctx = lf.loop_context(alg, s=s, tol=tol)
    return ctx, lf.loop_property_check(ctx, samples=samples, seed=sample_seed)


def _dense_nilpotent(lf, rng, dim):
    """The densest of DRAWS seeded nilpotent Leibniz algebras.

    Dense structure constants are what make exact loop arithmetic work hard;
    the corpus examples nilp3_s12 .. nilp4_s15 are 61-89% nonzero. A fixed
    number of draws keeps set-up time independent of the seed.
    """
    return max((lf.random_nilpotent_leibniz(rng, dim) for _ in range(DRAWS)), key=_density)


def _e12_slice_cases(lf, rng, smoke):
    """Exact loop on the E12 slice of omni_hemi(2), through a direct LoopContext.

    On gl(2) x Q^2, lambda(aE12, x) = a diag(ad E12, E12) and E12^2 = 0, so
    for (xi, x) = (aE12, x) and (eta, y) = (bE12, y) at s = 1/2:
    (xi, x) <> (eta, y) = (xi + eta, x + y + s a (y2, 0)), the left inverse is
    (-xi, -x + s a (x2, 0)), the left division is
    (eta - xi, (y - x) - s a (y2 - x2, 0)), and all lambdas commute, so every
    inner mapping is the identity.
    """
    half = Q(1, 2)
    omni = lf.omni_algebras(2)[0]
    ident = lf.Matrix.identity(6)

    def ctx():
        return (lf.LoopContext(_fresh(lf, omni), half, "exact"),)

    def point():
        a = rng.rational_nonzero()
        return a, (Q(0), a, Q(0), Q(0)) + lf.random_vector(rng, 2)

    cases = []
    for _ in range(_scale(19, smoke)):
        (a, u), (b, v) = point(), point()
        x, y = u[4:], v[4:]
        want = (Q(0), a + b, Q(0), Q(0), x[0] + y[0] + half * a * y[1], x[1] + y[1])
        cases.append(Case("omni2_e12", lambda c, u=u, v=v: lf.loop_product(c, u, v),
                          tuple, want, ctx))
    for _ in range(_scale(19, smoke)):
        a, u = point()
        x = u[4:]
        want = (Q(0), -a, Q(0), Q(0), -x[0] + half * a * x[1], -x[1])
        cases.append(Case("omni2_e12", lambda c, u=u: lf.left_inverse(c, u),
                          tuple, want, ctx))
    for _ in range(_scale(19, smoke)):
        (a, u), (b, v) = point(), point()
        x, y = u[4:], v[4:]
        want = (Q(0), b - a, Q(0), Q(0),
                y[0] - x[0] - half * a * (y[1] - x[1]), y[1] - x[1])
        cases.append(Case("omni2_e12", lambda c, u=u, v=v: lf.left_divide(c, u, v),
                          tuple, want, ctx))
    for _ in range(_scale(6, smoke)):
        (_, u), (_, v) = point(), point()
        cases.append(Case("omni2_e12", lambda c, u=u, v=v: lf.left_inner_mapping(c, u, v),
                          lambda m: m, ident, ctx))
    return cases


# -- omni_tensor ----------------------------------------------------------------

def build_omni_tensor(lf, seed: int, smoke: bool, workdir: str):
    """Structure checks on the sparse omni algebras: full scans and early exits."""
    hemi2, demi2 = lf.omni_algebras(2)
    hemi3, demi3 = lf.omni_algebras(3)
    ly2 = lf.ly_from_leibniz(_fresh(lf, hemi2))
    ly3 = lf.ly_from_leibniz(_fresh(lf, hemi3))
    cases: list[Case] = []

    def on(a):
        return lambda: (_fresh(lf, a),)

    def envelope_of(a):
        def make():
            b = _fresh(lf, a)
            return (lf.canonical_envelope(b, lf.squares_ideal(b)),)
        return make

    def graph(r):
        return r.graph_closed_under_leibniz, r.graph_is_lie_subalgebra

    def built(out):
        return out is not None

    def leibniz(out):
        return out[0]

    def ly_report(r):
        return r.ok, r.axiom, r.at

    # Full accepting scans on omni_hemi(2); on omni_hemi(3) only check_leibniz,
    # since its other full scans take seconds each and would leave too few
    # passes in a run.
    cases += [
        Case("hemi2.check_leibniz", lambda b: b.check_leibniz(), leibniz, True, on(hemi2)),
        Case("hemi2.graph_criterion", lambda b: lf.graph_criterion(b), graph, (True, False),
             on(hemi2)),
        Case("hemi2.validate_ly", lambda b: lf.validate_ly(lf.ly_from_leibniz(b)), ly_report,
             (True, None, None), on(hemi2)),
        Case("hemi2.lambda_envelope", lambda b: lf.lambda_envelope(b), built, True, on(hemi2)),
        Case("hemi3.check_leibniz", lambda b: b.check_leibniz(), leibniz, True, on(hemi3)),
    ]
    cases += [
        Case("hemi2.canonical_envelope",
             lambda b: lf.canonical_envelope(b, lf.squares_ideal(b)), built, True, on(hemi2)),
        Case("hemi2.recovery_check", lambda t: lf.recovery_check(t), bool, True,
             envelope_of(hemi2)),
        Case("hemi2.scaling_check", lambda t: lf.scaling_check(t), tuple, (True, None),
             envelope_of(hemi2)),
        Case("hemi2.sigma_one_embed_check", lambda t: lf.sigma_one_embed_check(t), bool, True,
             envelope_of(hemi2)),
        Case("hemi2.ly_envelope", lambda ly: lf.ly_envelope(ly), built, True, lambda: (ly2,)),
    ]

    for _ in range(_scale(2, smoke)):
        for a in (demi2, demi3):
            cases += [
                Case("demi.check_leibniz", lambda b: b.check_leibniz(), leibniz, False, on(a),
                     reject=True),
                Case("demi.graph_criterion", lambda b: lf.graph_criterion(b), graph,
                     (False, False), on(a), reject=True),
            ]

    rng = _stream(lf, seed, "omni.random_algebras")
    random_dims = []
    for dim in (3, 4, 5, 6):
        for _ in range(_scale(4, smoke)):
            a = lf.random_algebra(rng, dim)
            want = (_fresh(lf, a).check_leibniz()[0], _fresh(lf, a).check_lie())
            random_dims.append(dim)
            cases.append(Case(f"random{dim}.graph_criterion", lambda b: lf.graph_criterion(b),
                              graph, want, on(a), reject=not want[0]))

    # Every perturbed tensor of one size fails at the same scan depth, so that
    # the median (inside the 42 omni2 cases) and the 90th percentile (inside
    # the 24 omni3 cases) do not move with the seed.
    rng = _stream(lf, seed, "omni.perturbations")
    for tag, ly, depth, count in (("ly2", ly2, 1, 42), ("ly3", ly3, 2, 24)):
        for _ in range(_scale(count, smoke)):
            bad, witness = _perturb_ly(lf, rng, ly, depth)
            cases.append(Case(f"{tag}.perturbed", lambda t: lf.validate_ly(t), ly_report,
                              (False, "LY3", witness), lambda t=bad: (t,), reject=True))

    props = {"dims": {"omni2": 6, "omni3": 12, "random": sorted(set(random_dims))},
             "density": {"omni_hemi2": round(_density(hemi2), 4),
                         "omni_hemi3": round(_density(hemi3), 4),
                         "omni_demi3": round(_density(demi3), 4)}}
    return cases, props


def _perturb_ly(lf, rng, ly, p):
    """Shift one skew pair of ternary entries of a valid LY tensor.

    With i, j, k a seeded ordering of p, p + 1, p + 2, adding delta e_l at
    (i, j, k) and -delta e_l at (j, i, k) keeps LY1 and LY2, and changes the
    LY3 cyclic sum by +-delta e_l on exactly the six orderings of
    {p, p + 1, p + 2}; the first of those in the lexicographic scan is
    (p, p + 1, p + 2), which is the witness, whatever the seed.
    """
    n = ly.dim
    triple = [p, p + 1, p + 2]
    i, j, kk = (triple.pop(rng.randrange(len(triple))) for _ in range(3))
    l = rng.randrange(n)
    delta = rng.rational_nonzero()
    t = [list(list(row) for row in plane) for plane in ly.t]
    for a, b, dl in ((i, j, delta), (j, i, -delta)):
        cell = list(t[a][b][kk])
        cell[l] += dl
        t[a][b][kk] = tuple(cell)
    tt = tuple(tuple(tuple(row) for row in plane) for plane in t)
    return lf.LieYamaguti(n, ly.b, tt), (p, p + 1, p + 2)


# -- courant_poly ---------------------------------------------------------------

def build_courant_poly(lf, seed: int, smoke: bool, workdir: str):
    """Axiom batches, single brackets, graph closure and double recovery.

    Counts place the median inside the single degree-3 brackets, which have a
    fixed shape, and the 90th percentile inside the 3-variable axiom batches.
    """
    P = lf.Poly
    cases: list[Case] = []
    seeds = _stream(lf, seed, "courant.sample_seeds")

    def batch(suite, nvars, count, copies):
        for _ in range(_scale(copies, smoke)):
            s = lf.courant_samples(seeds.next_u32(), nvars, count)
            cases.append(Case(f"{suite}.v{nvars}",
                              lambda t, f: getattr(lf, suite)(t, f),
                              lambda rs: tuple(r.ok for r in rs),
                              (True,) * (5 if suite == "axiom_suite" else 3),
                              lambda s=s: (s.triples, s.funcs)))

    batch("axiom_suite", 2, 4, 4)
    batch("dorfman_checks", 2, 4, 4)
    batch("dorfman_checks", 3, 3, 4)
    batch("axiom_suite", 3, 4, 18)

    rng = _stream(lf, seed, "courant.sections")
    for _ in range(_scale(40, smoke)):
        x, y = _section(lf, rng, 3, 3), _section(lf, rng, 3, 3)
        # the Courant bracket is the skew part of the Dorfman product:
        # [x, y] = x o y - D<x, y>
        cases.append(Case("courant_bracket.v3",
                          lambda u, v: lf.courant_bracket(u, v),
                          lambda br, x=x, y=y: (br - lf.dorfman_product(x, y)
                                                + lf.d_section(lf.pairing(x, y))).is_zero(),
                          True, lambda x=x, y=y: (x, y)))
    for nvars in (2, 3):
        for _ in range(_scale(16 if nvars == 2 else 8, smoke)):
            x, y = lf.random_section(rng, nvars, 2), lf.random_section(rng, nvars, 2)
            cases.append(Case(f"double_recovery.v{nvars}",
                              lambda u, v: lf.double_recovery_check(u, v), bool, True,
                              lambda x=x, y=y: (x, y)))

    x1, x2, x3 = (P.var(3, i) for i in range(3))
    graphs = (
        ("so3_lie_poisson", "poisson", 3,
         lf.Bivector.from_upper(3, {(0, 1): x3, (0, 2): x2 * Q(-1), (1, 2): x1}), True, 4),
        ("constant_bivector", "poisson", 2,
         lf.Bivector.from_upper(2, {(0, 1): P.const(2, 1)}), True, 4),
        ("x1_dx1dx2", "twoform", 2, lf.TwoForm.from_upper(2, {(0, 1): P.var(2, 0)}), True, 4),
        ("non_jacobi_bivector", "poisson", 3,
         lf.Bivector.from_upper(3, {(0, 1): P.const(3, 1), (0, 2): x1}), False, 6),
        ("x3_dx1dx2", "twoform", 3, lf.TwoForm.from_upper(3, {(0, 1): x3}), False, 6),
    )
    rng = _stream(lf, seed, "courant.graph_inputs")
    for name, kind, n, data, closed, copies in graphs:
        for _ in range(_scale(copies, smoke)):
            # basis forms or fields first: a failing graph then always fails on
            # a pair of them, since the residual is tensorial in the inputs
            if kind == "poisson":
                inputs = [lf.OneForm(n, _unit(P, n, i)) for i in range(n)]
                inputs += [lf.random_one_form(rng, n, max_degree=1) for _ in range(3)]
            else:
                inputs = [lf.VectorField(n, _unit(P, n, i)) for i in range(n)]
                inputs += [lf.random_vector_field(rng, n, max_degree=1) for _ in range(3)]
            cases.append(Case(f"graph.{name}",
                              lambda d, i, kind=kind: lf.graph_closure_check(kind, d, i),
                              lambda out: out[0], closed,
                              lambda d=data, i=inputs: (d, i), reject=not closed))

    props = {"nvars": [2, 3], "degree": {"axiom_batches": 2, "single_brackets": 3,
                                         "double_recovery": 2, "graph_inputs": 1},
             "triples_per_batch": {"axiom_suite": {"v2": 4, "v3": 4},
                                   "dorfman_checks": {"v2": 4, "v3": 3}},
             "single_bracket_terms_per_component": 2}
    return cases, props


def _section(lf, rng, n, degree, terms=2):
    """A section whose 2n components each have exactly `terms` monomials of
    degree 1..`degree`, so that every single bracket does the same work."""
    comps = []
    for _ in range(2 * n):
        monos: set = set()
        while len(monos) < terms:
            e = [0] * n
            for _ in range(rng.randint(1, degree)):
                e[rng.randrange(n)] += 1
            monos.add(tuple(e))
        comps.append(lf.Poly.from_dict(n, {m: rng.rational_nonzero() for m in sorted(monos)}))
    return lf.Section(lf.VectorField(n, tuple(comps[:n])), lf.OneForm(n, tuple(comps[n:])))


def _unit(P, n, i):
    return tuple(P.const(n, 1) if k == i else P.zero(n) for k in range(n))


# -- cli_verdicts ---------------------------------------------------------------

def build_cli_verdicts(lf, seed: int, smoke: bool, workdir: str):
    """leibniz_forge.cli.main(argv) in-process on small files, stdout captured.

    Reports are compared by status and the names of the failing checks, never
    by exit code or witness text. Beyond that, `algebra check` is compared by
    the leibniz/skew/lie values it reports, an `error` check by the kind of
    failure its message names, and each emitting command by properties known
    from the mathematics, which the benchmark checks on the emitted document
    with its own arithmetic (see "checking CLI output" below).
    """
    import leibniz_forge.cli as cli

    rng = _stream(lf, seed, "cli.inputs")
    seeds = _stream(lf, seed, "cli.seeds")
    files: dict[str, str] = {}

    def write(name, doc):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        files[name] = path
        return path

    nilps = [_dense_nilpotent(lf, rng, d) for d in (3, 4, 5)]
    for a in nilps:
        write(f"nilp{a.dim}", cli.algebra_to_doc(a))
    hemi2, demi2 = lf.omni_algebras(2)
    leibniz2 = _leibniz2(lf)
    for name, a in (("leibniz2", leibniz2), ("so3", _so3(lf)), ("nl3", _nl3(lf)),
                    ("demi2", demi2)):
        write(name, cli.algebra_to_doc(a))
    write("ly_nilp4", _ly_doc(lf.ly_from_leibniz(nilps[1])))
    write("ly_hemi2", _ly_doc(lf.ly_from_leibniz(hemi2)))
    write("ly_hemi2_bad", _ly_doc(_perturb_ly(lf, rng, lf.ly_from_leibniz(hemi2), 1)[0]))
    sections = {}
    for nvars in (2, 3):
        names = [f"x{i + 1}" for i in range(nvars)]
        for tag in "xy":
            sections[nvars, tag] = lf.random_section(rng, nvars, 2)
            write(f"sec{nvars}{tag}", cli.section_to_doc(names, sections[nvars, tag]))
    write("so3_star", {"vars": ["x1", "x2", "x3"],
                       "entries": [[0, 1, "x3"], [0, 2, "-x2"], [1, 2, "x1"]]})
    write("non_jacobi", {"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "1"], [0, 2, "x1"]]})
    write("x1_dx1dx2", {"vars": ["x1", "x2"], "entries": [[0, 1, "x1"]]})
    write("x3_dx1dx2", {"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "x3"]]})

    def bracket(nvars):
        # the Courant bracket is the skew part of the Dorfman product:
        # [x, y] = x o y - D<x, y>
        x, y = sections[nvars, "x"], sections[nvars, "y"]

        def holds(doc):
            br = cli.parse_section_text(json.dumps(doc)).section
            return (br - lf.dorfman_product(x, y) + lf.d_section(lf.pairing(x, y))).is_zero()
        return _data(holds)

    half = Q(1, 2)
    nilp3_product = _loop_product(_products(nilps[0]), half, (Q(1), Q(2), Q(3)),
                                  (Q(-1), half, Q(2)))
    so3_product = _so3_loop_product(half, (1.0, 0.0, 2.0), (0.0, 1.0, 1.0))

    ok = ("pass", ())
    f = files
    # Counts place the median inside the `envelope verify` rejections of the
    # fixed demi2 file and the 90th percentile inside `omni --dim 3`, both
    # deterministic, so that neither sits on a gap between verbs.
    templates = [
        # (argv without --format/--seed, verdict of the output document,
        #  expected verdict, copies)
        (["envelope", "build", f["nl3"]], _error_kind, ("fail", ("error",), "not Leibniz"), 5),
        (["envelope", "build", f["leibniz2"], "--ideal", "kernel"], _envelope(leibniz2),
         ("data", True), 3),
        (["envelope", "verify", f["nl3"]], _report, ("fail", ("envelope_conditions",)), 6),
        (["loop", "eval", "--algebra", f["so3"], "--x", "1,0,2", "--y", "0,1,1"],
         _error_kind, ("fail", ("error",), "not nilpotent"), 6),
        (["loop", "verify", "--algebra", f["so3"]], _report, ("fail", ("exact_mode",)), 6),
        # nl3 fails Leibniz at (e1, e1, e2); e1.e1 != 0 in nl3 and e2.e2 != 0
        # in leibniz2, so neither is skew nor Lie
        (["algebra", "check", f["nl3"]], _algebra_values, ok + (_values(False, False),), 3),
        (["algebra", "check", f["leibniz2"]], _algebra_values, ok + (_values(True, False),), 3),
        (["loop", "eval", "--algebra", f["so3"], "--float", "--x", "1,0,2", "--y", "0,1,1"],
         _data(lambda doc: _close(doc["product"], so3_product)), ("data", True), 3),
        (["envelope", "verify", f["demi2"]], _report, ("fail", ("envelope_conditions",)), 30),
        (["loop", "eval", "--algebra", f["nilp3"], "--x", "1,2,3", "--y=-1,1/2,2"],
         _data(lambda doc: tuple(Q(v) for v in doc["product"])), ("data", nilp3_product), 2),
        (["courant", "bracket", f["sec2x"], f["sec2y"]], bracket(2), ("data", True), 1),
        (["courant", "bracket", f["sec3x"], f["sec3y"]], bracket(3), ("data", True), 1),
        # the residual is tensorial: it vanishes on every sampled pair only when
        # all sampled inputs are pairwise proportional, which has probability 0
        (["courant", "graph", "--kind", "poisson", "--data", f["non_jacobi"],
          "--samples", "4"], _report, ("fail", ("graph_closed",)), 2),
        (["courant", "graph", "--kind", "twoform", "--data", f["x3_dx1dx2"],
          "--samples", "4"], _report, ("fail", ("graph_closed",)), 2),
        (["omni", "--dim", "2"], _data(_omni), ("data", _omni_known(2)), 2),
        (["ly", "check", f["ly_hemi2_bad"]], _report, ("fail", ("lie_yamaguti_axioms",)), 4),
        (["courant", "graph", "--kind", "twoform", "--data", f["x1_dx1dx2"],
          "--samples", "3"], _report, ok, 2),
        (["courant", "graph", "--kind", "poisson", "--data", f["so3_star"],
          "--samples", "3"], _report, ok, 1),
        (["ly", "check", f["ly_nilp4"]], _report, ok, 1),
        (["envelope", "build", f["nilp4"]], _envelope(nilps[1]), ("data", True), 1),
        (["envelope", "verify", f["so3"]], _report, ok, 1),
        # the nilp algebras are cyclic nilpotent Leibniz algebras, or sums of
        # two, behind a change of basis: Leibniz, and g.g != 0 for a generator g
        (["algebra", "check", f["nilp5"]], _algebra_values, ok + (_values(True, False),), 2),
        (["loop", "verify", "--algebra", f["so3"], "--float", "--tol", "1e-8",
          "--samples", "3"], _report, ok, 2),
        (["loop", "verify", "--algebra", f["leibniz2"], "--samples", "4"], _report, ok, 2),
        (["courant", "axioms", "--vars", "2", "--samples", "2"], _report, ok, 1),
        (["envelope", "verify", f["nilp4"]], _report, ok, 1),
        (["omni", "--dim", "3"], _data(_omni), ("data", _omni_known(3)), 10),
        (["loop", "verify", "--algebra", f["nilp3"], "--samples", "2"], _report, ok, 4),
        (["ly", "check", f["ly_hemi2"]], _report, ok, 3),
    ]
    cases = []
    for argv, verdict, want, copies in templates:
        of_text = _on_output(verdict)
        for _ in range(_scale(copies, smoke)):
            full = argv + ["--format", "json", "--seed", str(seeds.next_u32())]
            cases.append(Case(" ".join(argv[:2]) if argv[0] != "omni" else "omni",
                              lambda a=full: _run_cli(lf, a), of_text, want,
                              reject=want[0] == "fail"))

    props = {"algebra_dims": [2, 3, 4, 5, 6],
             "nilp_density": [round(_density(a), 3) for a in nilps],
             "poly_nvars": [2, 3], "section_degree": 2}
    return cases, props


def _run_cli(lf, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            lf.cli.main(argv)
    except SystemExit:  # argparse refused the command line: no verdict
        return None
    return out.getvalue()


# -- checking CLI output --------------------------------------------------------
#
# Emitted documents are checked with the benchmark's own sparse arithmetic on
# structure constants, a code path independent of the package's.

def _on_output(verdict):
    """The verdict of captured stdout: None when there is none, else that of
    the parsed document, memoized on the text, of which it is a function."""
    seen: dict[str, Any] = {}

    def of_text(text):
        if not text:
            return None
        if text not in seen:
            seen[text] = verdict(json.loads(text))
        return seen[text]
    return of_text


def _report(doc):
    return doc["status"], tuple(sorted(c["name"] for c in doc["checks"]
                                       if c["status"] == "fail"))


def _values(leibniz, skew):
    return ("leibniz", leibniz), ("lie", leibniz and skew), ("skew", skew)


def _algebra_values(doc):
    return _report(doc) + (tuple(sorted((c["name"], c.get("value")) for c in doc["checks"])),)


def _error_kind(doc):
    """The report and the kind of failure its `error` check names."""
    text = " ".join(str(c.get("witness", "")) for c in doc["checks"]
                    if c["name"] == "error").lower()
    kinds = [kind for kind, word in (("not Leibniz", "leibniz"), ("not nilpotent", "nilpotent"))
             if word in text]
    return _report(doc) + (" and ".join(kinds) or "other",)


def _data(verdict):
    """("data", verdict) of an emitted document, or the report when it is one."""
    def of_doc(doc):
        return _report(doc) if "status" in doc else ("data", verdict(doc))
    return of_doc


def _envelope(a):
    """An envelope of E with ideal I: E is the input, h = E/I and g = h + E
    are Lie, and there is one action matrix and one row of f per dimension of h."""
    def holds(doc):
        h_dim, h = _doc_algebra(doc["h"])
        g_dim, g = _doc_algebra(doc["g"])
        ideal_dim = len(doc["ideal"]["vectors"])
        return (_doc_algebra(doc["e"]) == (a.dim, _products(a))
                and h_dim == a.dim - ideal_dim and g_dim == h_dim + a.dim
                and _is_lie(h_dim, h) and _is_lie(g_dim, g)
                and len(doc["action"]) == h_dim
                and len(doc["f"]) == h_dim and all(len(row) == a.dim for row in doc["f"]))
    return _data(holds)


def _omni_known(n):
    """The omni products on gl(n) x Q^n have dimension n^2 + n; the
    hemisemidirect one is Leibniz and not skew, the demisemidirect one is not
    Leibniz."""
    return (n * n + n, True, False), (n * n + n, False)


def _omni(doc):
    hemi_dim, hemi = _doc_algebra(doc["hemisemidirect"])
    demi_dim, demi = _doc_algebra(doc["demisemidirect"])
    return ((hemi_dim, _is_leibniz(hemi_dim, hemi), _is_skew(hemi_dim, hemi)),
            (demi_dim, _is_leibniz(demi_dim, demi)))


def _doc_algebra(doc):
    """(dim, {(i, j): {k: c}}) of an algebra document, nonzero constants only."""
    index = {name: i for i, name in enumerate(doc["basis"])}
    prods = {}
    for p in doc["products"]:
        cell = {index[k]: Q(v) for k, v in p["result"].items() if Q(v) != 0}
        if cell:
            prods[index[p["left"]], index[p["right"]]] = cell
    return doc["dim"], prods


def _products(a):
    return {(i, j): {k: x for k, x in enumerate(a.c[i][j]) if x != 0}
            for i in range(a.dim) for j in range(a.dim) if any(a.c[i][j])}


def _mul(prods, u, v):
    out: dict[int, Q] = {}
    for i, x in u.items():
        for j, y in v.items():
            for k, c in prods.get((i, j), {}).items():
                out[k] = out.get(k, 0) + x * y * c
    return {k: x for k, x in out.items() if x != 0}


def _add(u, v):
    out = dict(u)
    for k, x in v.items():
        out[k] = out.get(k, 0) + x
    return {k: x for k, x in out.items() if x != 0}


def _is_leibniz(dim, prods):
    """The left Leibniz identity x(yz) = (xy)z + y(xz) on every basis triple."""
    e = [{i: Q(1)} for i in range(dim)]
    return all(_mul(prods, e[i], _mul(prods, e[j], e[k]))
               == _add(_mul(prods, _mul(prods, e[i], e[j]), e[k]),
                       _mul(prods, e[j], _mul(prods, e[i], e[k])))
               for i in range(dim) for j in range(dim) for k in range(dim))


def _is_skew(dim, prods):
    return all(prods.get((i, j), {}) == {k: -x for k, x in prods.get((j, i), {}).items()}
               for i in range(dim) for j in range(i, dim))


def _is_lie(dim, prods):
    # for a skew product the left Leibniz identity is the Jacobi identity
    return _is_skew(dim, prods) and _is_leibniz(dim, prods)


def _loop_product(prods, s, x, y):
    """x <> y = x + exp(s lambda(x)) y; lambda(x) is nilpotent, so the series
    ends by its dim-th term."""
    xs = {i: c for i, c in enumerate(x) if c}
    term = {i: c for i, c in enumerate(y) if c}
    total = _add(xs, term)
    for k in range(1, len(x) + 1):
        term = {i: c * s / k for i, c in _mul(prods, xs, term).items()}
        total = _add(total, term)
    return tuple(total.get(i, Q(0)) for i in range(len(x)))


def _so3_loop_product(s, x, y):
    """On so(3), lambda(x) y is the cross product x * y, so exp(s lambda(x))
    is the rotation by the angle s|x| about x (Rodrigues' formula)."""
    norm = math.sqrt(sum(c * c for c in x))
    u = [c / norm for c in x]
    angle = float(s) * norm
    cross = (u[1] * y[2] - u[2] * y[1], u[2] * y[0] - u[0] * y[2], u[0] * y[1] - u[1] * y[0])
    dot = sum(a * b for a, b in zip(u, y))
    return tuple(x[i] + y[i] * math.cos(angle) + cross[i] * math.sin(angle)
                 + u[i] * dot * (1 - math.cos(angle)) for i in range(3))


def _close(got, want, tol=1e-9):
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def _ly_doc(ly):
    n = ly.dim
    binary = [[i, j, k, str(ly.b[i][j][k])]
              for i in range(n) for j in range(n) for k in range(n) if ly.b[i][j][k] != 0]
    ternary = [[i, j, k, l, str(ly.t[i][j][k][l])]
               for i in range(n) for j in range(n) for k in range(n) for l in range(n)
               if ly.t[i][j][k][l] != 0]
    return {"dim": n, "binary": binary, "ternary": ternary}


WORKLOADS = {
    "loop_laws": build_loop_laws,
    "omni_tensor": build_omni_tensor,
    "courant_poly": build_courant_poly,
    "cli_verdicts": build_cli_verdicts,
}


def build(name: str, lf, seed: int, smoke: bool, workdir: str):
    """The workload's cases in a seeded order that interleaves the groups.

    A burst of load from outside the process then slows a few cases of many
    groups instead of every case of one group, which would move a percentile.
    """
    cases, props = WORKLOADS[name](lf, seed, smoke, workdir)
    rng = _stream(lf, seed, "order")
    for i in range(len(cases) - 1, 0, -1):
        j = rng.randrange(i + 1)
        cases[i], cases[j] = cases[j], cases[i]
    return cases, props
