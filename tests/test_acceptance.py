"""Acceptance gate: one test per shipped criterion, exact unless stated.

Each test prints a single pass/fail line (collected into the terminal summary)
and then asserts, so a red run still reports every criterion it reached.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction as Q

import conftest
from conftest import build_corpus

from leibniz_forge import (
    Bivector,
    DEFAULT_S_VALUES,
    OneForm,
    Pcg32,
    Poly,
    TwoForm,
    VectorField,
    axiom_suite,
    canonical_envelope,
    constant_field,
    courant_samples,
    curvature_field,
    dorfman_checks,
    double_recovery_check,
    gl_action,
    graph_closure_check,
    graph_criterion,
    hemi_loop_closed_form,
    hemisemidirect,
    loop_context,
    loop_product,
    loop_property_check,
    ly_envelope,
    ly_from_decomposition,
    ly_from_leibniz,
    omni_algebras,
    random_algebra,
    random_one_form,
    random_section,
    random_vector,
    random_vector_field,
    recovery_check,
    scaling_check,
    squares_ideal,
    torsion_curvature,
    torsion_field,
    validate_ly,
)
from leibniz_forge.linalg import basis_vec, vscale
from leibniz_forge.loops import LoopContext

CORPUS = build_corpus()


def record(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    conftest.ACCEPTANCE_LINES.append(f"criterion {label}: {status}{suffix}")


def test_criterion_01_recovery():
    start = time.monotonic()
    failures = []
    for name, a in CORPUS.items():
        ok, _ = a.check_leibniz()
        if not ok:
            failures.append(f"{name} not Leibniz")
            continue
        t = canonical_envelope(a, squares_ideal(a))
        if not recovery_check(t):
            failures.append(name)
    elapsed = time.monotonic() - start
    ok = not failures and len(CORPUS) >= 10 and elapsed < 5.0
    record("01 recovery", ok, f"{len(CORPUS)} algebras in {elapsed:.2f}s")
    assert not failures, failures
    assert len(CORPUS) >= 10
    assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_criterion_02_scaling():
    assert DEFAULT_S_VALUES == (Q(1), Q(1, 2), Q(-2), Q(3, 7))
    failures = []
    for name, a in CORPUS.items():
        t = canonical_envelope(a, squares_ideal(a))
        ok, witness = scaling_check(t)
        if not ok:
            failures.append((name, witness))
    record("02 s-scaling", not failures,
           f"every s, decided at s = 1 (the first nonzero default) over {len(CORPUS)} algebras")
    assert not failures, failures


def test_criterion_03_graph_criteria():
    cases = dict(CORPUS)
    for seed in range(50):
        rng = Pcg32(seed)
        cases[f"random{seed}"] = random_algebra(rng, 2 + seed % 3)
    mismatches = []
    negatives = 0
    for name, a in cases.items():
        rep = graph_criterion(a)
        if rep.graph_closed_under_leibniz != a.is_leibniz:
            mismatches.append((name, "leibniz"))
        if rep.graph_is_lie_subalgebra != a.is_lie:
            mismatches.append((name, "lie"))
        if not a.is_leibniz:
            negatives += 1
    ok = not mismatches and negatives > 0
    record("03 graph criteria", ok,
           f"{len(cases)} algebras, {negatives} non-Leibniz negatives")
    assert not mismatches, mismatches
    assert negatives > 0


def test_criterion_04_lie_yamaguti():
    start = time.monotonic()
    failures = []
    small = {n: a for n, a in CORPUS.items() if a.dim <= 6}
    small["omni_hemi5"] = omni_algebras(5)[0]  # dim 30
    for name, a in small.items():
        ly = ly_from_leibniz(a)
        rep = validate_ly(ly)
        if not rep.ok:
            failures.append((name, rep.axiom, rep.at))
            continue
        env = ly_envelope(ly)
        gd, hd, md = env.g.dim, env.h_dim, env.m_dim
        back = ly_from_decomposition(
            env.g,
            [basis_vec(gd, t) for t in range(hd)],
            [basis_vec(gd, hd + i) for i in range(md)])
        if back.b != ly.b or back.t != ly.t:
            failures.append((name, "round-trip"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    record("04 lie-yamaguti", ok,
           f"{len(small)} algebras up to dim {max(a.dim for a in small.values())} "
           f"with round-trip in {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"{elapsed:.2f}s"


def test_criterion_05_loops():
    failures = []

    exact_members = ["leibniz2", "n2_hemi", "nilp2_s11", "nilp3_s12",
                     "nilp4_s13", "nilp5_s14", "nilp4_s15"]
    for name in exact_members:
        ctx = loop_context(CORPUS[name], s=Q(1, 2))
        if ctx.mode != "exact":
            failures.append((name, "gate"))
            continue
        rep = loop_property_check(ctx, samples=200, seed=0)
        if not rep.ok:
            failures.append((name, [c.name for c in rep.checks if not c.ok]))

    for name in ("so3", "so3_hemi"):
        ctx = loop_context(CORPUS[name], s=Q(1, 2), tol=1e-8)
        if ctx.mode != "float":
            failures.append((name, "expected float mode"))
            continue
        rep = loop_property_check(ctx, samples=200, seed=0)
        if not rep.ok:
            failures.append((name, [c.name for c in rep.checks if not c.ok]))

    # closed-form hemisemidirect loop against the generic product, exactly:
    # n2_hemi passes the global gate; the omni slice with strictly triangular
    # xi is evaluated through a per-element exact context
    from leibniz_forge import Matrix, ModuleAction, StructureAlgebra
    n2 = StructureAlgebra.abelian(1, name="n2")
    act2 = ModuleAction(n2, (Matrix.from_rows([[0, 1], [0, 0]]),))
    ctx2 = loop_context(CORPUS["n2_hemi"], s=Q(1, 2))
    rng = Pcg32(42)
    for _ in range(50):
        v = random_vector(rng, 3)
        w = random_vector(rng, 3)
        hp, vp = hemi_loop_closed_form(act2, Q(1, 2), v[:1], v[1:], w[:1], w[1:])
        if hp + vp != loop_product(ctx2, v, w):
            failures.append(("n2_hemi closed form", v, w))
            break

    act = gl_action(2)
    omni = hemisemidirect(act.h, act)
    octx = LoopContext(omni, Q(1, 2), "exact")
    for _ in range(50):
        xi = (Q(0), rng.rational(), Q(0), Q(0))  # span of E12: nilpotent slice
        eta = (Q(0), rng.rational(), Q(0), Q(0))
        x = random_vector(rng, 2)
        y = random_vector(rng, 2)
        hp, vp = hemi_loop_closed_form(act, Q(1, 2), xi, x, eta, y)
        if hp + vp != loop_product(octx, xi + x, eta + y):
            failures.append(("omni closed form", xi, x, eta, y))
            break

    record("05 loops", not failures,
           "exact s=1/2 on 7 members, float so(3) pair at 1e-8, closed forms")
    assert not failures, failures


def test_criterion_06_connection():
    failures = []
    s = Q(1, 2)
    for name in ("leibniz2", "aff1_hemi", "omni_hemi1", "n2_hemi"):
        a = CORPUS[name]
        n = a.dim
        ly = ly_from_leibniz(a)
        tb, tt = torsion_curvature(ly)
        for i in range(n):
            xf = constant_field(n, basis_vec(n, i))
            for j in range(n):
                yf = constant_field(n, basis_vec(n, j))
                tor = torsion_field(a, s, xf, yf)
                expected = vscale(-2 * s, a.skew_product(basis_vec(n, i),
                                                         basis_vec(n, j)))
                if expected != tb[i][j]:
                    failures.append((name, "tensor mismatch", i, j))
                for k in range(n):
                    if tor.components[k] != Poly.const(n, expected[k]):
                        failures.append((name, "torsion", i, j, k))
                    zf = constant_field(n, basis_vec(n, k))
                    cur = curvature_field(a, s, xf, yf, zf)
                    want = vscale(s * s, a.product(a.product_basis(i, j),
                                                   basis_vec(n, k)))
                    if want != tt[i][j][k]:
                        failures.append((name, "curv tensor", i, j, k))
                    for m in range(n):
                        if cur.components[m] != Poly.const(n, want[m]):
                            failures.append((name, "curvature", i, j, k, m))
    record("06 connection", not failures, "torsion and curvature at s = 1/2")
    assert not failures, failures


def test_criterion_07_courant_suite():
    start = time.monotonic()
    failures = []
    total = 0
    for nvars, count in ((1, 34), (2, 34), (3, 34)):
        samples = courant_samples(seed=100 + nvars, nvars=nvars, count=count)
        total += len(samples.triples)
        for res in axiom_suite(samples.triples, samples.funcs):
            if not res.ok:
                failures.append((nvars, res.name, res.witness))
        for res in dorfman_checks(samples.triples, samples.funcs):
            if not res.ok:
                failures.append((nvars, res.name, res.witness))
    elapsed = time.monotonic() - start
    ok = not failures and total >= 100 and elapsed < 60.0
    record("07 courant suite", ok, f"{total} triples in {elapsed:.2f}s")
    assert not failures, failures
    assert total >= 100
    assert elapsed < 60.0, f"{elapsed:.2f}s"


def test_criterion_08_graph_closure():
    failures = []

    pi_const = Bivector.from_upper(2, {(0, 1): Poly.const(2, 1)})
    rng = Pcg32(80)
    forms2 = [OneForm(2, (Poly.const(2, 1), Poly.zero(2))),
              OneForm(2, (Poly.zero(2), Poly.const(2, 1)))]
    forms2 += [random_one_form(rng, 2, max_degree=1) for _ in range(4)]
    ok, witness = graph_closure_check("poisson", pi_const, forms2)
    if not ok:
        failures.append(("constant bivector", witness))

    x1, x2, x3 = (Poly.var(3, i) for i in range(3))
    pi_so3 = Bivector.from_upper(3, {(0, 1): x3, (0, 2): x2 * Q(-1), (1, 2): x1})
    forms3 = [OneForm(3, tuple(Poly.const(3, 1) if k == i else Poly.zero(3)
                               for k in range(3))) for i in range(3)]
    forms3 += [random_one_form(rng, 3, max_degree=1) for _ in range(4)]
    ok, witness = graph_closure_check("poisson", pi_so3, forms3)
    if not ok:
        failures.append(("lie-poisson so(3)*", witness))

    omega = TwoForm.from_upper(2, {(0, 1): Poly.var(2, 0)})
    fields2 = [VectorField(2, (Poly.const(2, 1), Poly.zero(2))),
               VectorField(2, (Poly.zero(2), Poly.const(2, 1)))]
    fields2 += [random_vector_field(rng, 2, max_degree=1) for _ in range(4)]
    ok, witness = graph_closure_check("twoform", omega, fields2)
    if not ok:
        failures.append(("x1 dx1^dx2", witness))

    omega_bad = TwoForm.from_upper(3, {(0, 1): x3})
    fields3 = [VectorField(3, tuple(Poly.const(3, 1) if k == i else Poly.zero(3)
                                    for k in range(3))) for i in range(3)]
    ok, witness = graph_closure_check("twoform", omega_bad, fields3)
    if ok or witness is None:
        failures.append(("x3 dx1^dx2 should fail", witness))

    pi_bad = Bivector.from_upper(3, {(0, 1): Poly.const(3, 1), (0, 2): x1})
    ok, witness = graph_closure_check("poisson", pi_bad, forms3)
    if ok or witness is None:
        failures.append(("non-jacobi bivector should fail", witness))

    record("08 graph closure", not failures, "3 closed graphs, 2 witnesses")
    assert not failures, failures


def test_criterion_09_double_recovery():
    rng = Pcg32(90)
    failures = []
    count = 50
    for idx in range(count):
        x = random_section(rng, 2)
        y = random_section(rng, 2)
        if not double_recovery_check(x, y):
            failures.append(idx)
    record("09 double recovery", not failures, f"{count} section pairs")
    assert not failures, failures


def test_criterion_10_cli_determinism(tmp_path):
    leibniz2 = json.dumps({
        "name": "leibniz2", "dim": 2, "basis": ["e1", "e2"],
        "products": [{"left": "e2", "right": "e2", "result": {"e1": "1"}}]})
    apath = tmp_path / "a.json"
    apath.write_text(leibniz2)
    pi = json.dumps({"vars": ["x1", "x2", "x3"],
                     "entries": [[0, 1, "1"], [0, 2, "x1"]]})
    ppath = tmp_path / "pi.json"
    ppath.write_text(pi)

    commands = [
        ["algebra", "check", str(apath), "--format", "json", "--seed", "3"],
        ["envelope", "build", str(apath), "--format", "json"],
        ["envelope", "verify", str(apath), "--format", "json", "--seed", "4"],
        ["loop", "verify", "--algebra", str(apath), "--s", "1/2",
         "--samples", "25", "--seed", "6", "--format", "json"],
        ["omni", "--dim", "2", "--format", "json"],
        ["courant", "axioms", "--vars", "2", "--seed", "8", "--samples", "4",
         "--format", "json"],
        ["courant", "graph", "--kind", "poisson", "--data", str(ppath),
         "--seed", "5", "--samples", "3", "--format", "json"],
    ]
    failures = []
    for cmd in commands:
        full = [sys.executable, "-m", "leibniz_forge.cli"] + cmd
        a = subprocess.run(full, capture_output=True)
        b = subprocess.run(full, capture_output=True)
        if a.stdout != b.stdout or not a.stdout:
            failures.append(cmd[:2])
        json.loads(a.stdout.decode())  # every report is valid json
    record("10 cli determinism", not failures,
           f"{len(commands)} commands run twice")
    assert not failures, failures
