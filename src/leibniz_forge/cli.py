"""Command-line front end: file parsers, the polynomial grammar, and dispatch.

Commands print either a report ({status, checks: [...]}; exit 0 iff pass) or,
for the emitting commands (envelope build, omni, loop eval, courant bracket),
a data document. JSON output is byte-reproducible for fixed inputs and seed;
timing is included only on request so that reports stay comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .algebra import (
    NotAnIdealError,
    StructureAlgebra,
    Subspace,
    kernel_of_lambda,
    squares_ideal,
)
from .courant import (
    Bivector,
    OneForm,
    Section,
    TwoForm,
    VectorField,
    axiom_suite,
    courant_bracket,
    dorfman_checks,
    graph_closure_check,
    interior_two_form,
)
from .envelope import (
    EnvelopeError,
    EnvelopeTriple,
    canonical_envelope,
    recovery_check,
    scaling_check,
    sigma_one_embed_check,
)
from .linalg import (
    Matrix,
    NotNilpotentError,
    Q,
    Vec,
    format_rational,
    parse_rational,
)
from .loops import LoopContext, loop_context, loop_product, loop_property_check
from .poly import Poly
from .products import omni_algebras
from .sampling import Pcg32, courant_samples, random_one_form, random_vector_field
from .yamaguti import LieYamaguti, validate_ly


class CliError(ValueError):
    pass


# -- small serializers --------------------------------------------------------

def _vec_doc(v: Vec) -> list[str]:
    return [format_rational(x) for x in v]


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.entries]


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror or e}") from e


def _load_json(text: str, origin: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{origin}: parse error at line {e.lineno} column {e.colno}: {e.msg}") from e


def _exact_number(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise CliError(f"{where}: exact rational required, got {value!r}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as e:
            raise CliError(f"{where}: {e}") from e
    raise CliError(f"{where}: exact rational required, got {value!r}")


# -- algebra files ------------------------------------------------------------

def parse_algebra_text(text: str, origin: str = "algebra file") -> StructureAlgebra:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict):
        raise CliError(f"{origin}: top level must be an object")
    try:
        dim = doc["dim"]
        basis = doc["basis"]
        entries = doc["products"]
    except KeyError as e:
        raise CliError(f"{origin}: missing field {e.args[0]!r}") from e
    name = doc.get("name", "")
    if not isinstance(dim, int) or dim < 1:
        raise CliError(f"{origin}: dim must be a positive integer")
    if (not isinstance(basis, list) or len(basis) != dim
            or any(not isinstance(b, str) for b in basis) or len(set(basis)) != dim):
        raise CliError(f"{origin}: basis must list {dim} distinct labels")
    index = {label: i for i, label in enumerate(basis)}
    if not isinstance(entries, list):
        raise CliError(f"{origin}: products must be a list")

    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, entry in enumerate(entries):
        where = f"{origin}: products[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "result"}:
            raise CliError(f"{where}: expected keys left, right, result")
        for side in ("left", "right"):
            if entry[side] not in index:
                raise CliError(f"{where}: unknown basis label {entry[side]!r}")
        key = (index[entry["left"]], index[entry["right"]])
        if key in products:
            raise CliError(f"{where}: duplicate product entry for "
                           f"({entry['left']}, {entry['right']})")
        result = entry["result"]
        if not isinstance(result, dict):
            raise CliError(f"{where}: result must map labels to rationals")
        cell: dict[int, Fraction] = {}
        for label, value in result.items():
            if label not in index:
                raise CliError(f"{where}: unknown basis label {label!r}")
            cell[index[label]] = _exact_number(value, where)
        products[key] = cell
    return StructureAlgebra.from_products(dim, products, basis, name)


def algebra_to_doc(a: StructureAlgebra) -> dict:
    products = []
    for i in range(a.dim):
        for j in range(a.dim):
            cell = a.c[i][j]
            if all(x == 0 for x in cell):
                continue
            products.append({
                "left": a.basis_names[i],
                "right": a.basis_names[j],
                "result": {a.basis_names[k]: format_rational(x)
                           for k, x in enumerate(cell) if x != 0},
            })
    return {"name": a.name, "dim": a.dim, "basis": list(a.basis_names),
            "products": products}


def parse_subspace_text(text: str, origin: str = "subspace file") -> Subspace:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict) or "ambient_dim" not in doc or "vectors" not in doc:
        raise CliError(f"{origin}: expected keys ambient_dim, vectors")
    n = doc["ambient_dim"]
    if not isinstance(n, int) or n < 1:
        raise CliError(f"{origin}: ambient_dim must be a positive integer")
    vectors = doc["vectors"]
    if not isinstance(vectors, list):
        raise CliError(f"{origin}: vectors must be a list")
    rows = []
    for pos, row in enumerate(vectors):
        if not isinstance(row, list) or len(row) != n:
            raise CliError(f"{origin}: vectors[{pos}] must have length {n}")
        rows.append(tuple(_exact_number(x, f"{origin}: vectors[{pos}]") for x in row))
    return Subspace.span(n, rows)


# -- Lie-Yamaguti files -------------------------------------------------------

def parse_ly_text(text: str, origin: str = "file") -> LieYamaguti:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict) or "dim" not in doc:
        raise CliError(f"{origin}: expected keys dim, binary, ternary")
    n = doc["dim"]
    if not isinstance(n, int) or n < 1:
        raise CliError(f"{origin}: dim must be a positive integer")
    b = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    t = [[[[Q(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]

    def fill(key: str, arity: int, target) -> None:
        for pos, entry in enumerate(doc.get(key, [])):
            where = f"{origin}: {key}[{pos}]"
            if not isinstance(entry, list) or len(entry) != arity + 1:
                raise CliError(f"{where}: expected {arity} indices and a value")
            idx = entry[:arity]
            if any(not isinstance(i, int) or not 0 <= i < n for i in idx):
                raise CliError(f"{where}: indices must lie in [0, {n - 1}]")
            cursor = target
            for i in idx[:-1]:
                cursor = cursor[i]
            if cursor[idx[-1]] != 0:
                raise CliError(f"{where}: duplicate entry at {idx}")
            cursor[idx[-1]] = _exact_number(entry[arity], where)

    fill("binary", 3, b)
    fill("ternary", 4, t)
    return LieYamaguti.from_tensors(b, t)


# -- polynomial expression grammar -------------------------------------------

_TOKEN_RE = re.compile(r"(?P<rat>\d+/\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise CliError(f"syntax error at position {pos}: "
                           f"unexpected character {text[pos]!r}")
        kind = m.lastgroup or "op"
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


def parse_poly_expr(text: str, names: Sequence[str]) -> Poly:
    """expr := ['+'|'-'] term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := rational | var ['^' nat]. Whitespace is ignored."""
    index = {v: i for i, v in enumerate(names)}
    nvars = len(names)
    tokens = _tokenize(text)
    if not tokens:
        raise CliError("syntax error: empty expression")
    cursor = 0

    def peek() -> tuple[str, str, int] | None:
        return tokens[cursor] if cursor < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal cursor
        tok = peek()
        if tok is None:
            raise CliError(f"syntax error at position {len(text)}: unexpected end of input")
        cursor += 1
        return tok

    def parse_factor() -> tuple[Fraction, tuple[int, ...]]:
        kind, value, pos = take()
        if kind == "rat":
            return Fraction(value), (0,) * nvars
        if kind == "name":
            if value not in index:
                raise CliError(f"unknown variable {value!r} at position {pos}")
            power = 1
            nxt = peek()
            if nxt is not None and nxt[1] == "^":
                take()
                ekind, evalue, epos = take()
                if ekind != "rat" or "/" in evalue:
                    raise CliError(f"syntax error at position {epos}: exponent must be a natural number")
                power = int(evalue)
            expo = tuple(power if i == index[value] else 0 for i in range(nvars))
            return Q(1), expo
        raise CliError(f"syntax error at position {pos}: unexpected {value!r}")

    def parse_term() -> Poly:
        coeff, expo = parse_factor()
        while True:
            nxt = peek()
            if nxt is None or nxt[1] != "*":
                break
            take()
            c2, e2 = parse_factor()
            coeff *= c2
            expo = tuple(a + b for a, b in zip(expo, e2))
        return Poly.monomial(nvars, expo, coeff)

    first = peek()
    sign = Q(1)
    if first is not None and first[1] in "+-":
        take()
        sign = Q(-1) if first[1] == "-" else Q(1)
    result = parse_term() * sign
    while True:
        nxt = peek()
        if nxt is None:
            return result
        if nxt[1] not in "+-":
            raise CliError(f"syntax error at position {nxt[2]}: unexpected {nxt[1]!r}")
        take()
        term = parse_term()
        result = result + term if nxt[1] == "+" else result - term


def poly_to_str(p: Poly, names: Sequence[str]) -> str:
    """Canonical rendering; parse_poly_expr(poly_to_str(p)) reproduces p."""
    if not p.terms:
        return "0"
    pieces = []
    for expo, coeff in p.terms:
        vars_part = "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i]
            for i, e in enumerate(expo) if e > 0)
        mag = abs(coeff)
        if not vars_part:
            body = format_rational(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{format_rational(mag)}*{vars_part}"
        pieces.append((coeff < 0, body))
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


# -- section / bivector / 2-form files ----------------------------------------

@dataclass(frozen=True)
class NamedSection:
    names: tuple[str, ...]
    section: Section


def _parse_vars(doc: Any, origin: str) -> tuple[str, ...]:
    names = doc.get("vars")
    if (not isinstance(names, list) or not names
            or any(not isinstance(v, str) for v in names) or len(set(names)) != len(names)):
        raise CliError(f"{origin}: vars must list distinct variable names")
    return tuple(names)


def _parse_components(doc: Any, key: str, names: Sequence[str], origin: str) -> tuple[Poly, ...]:
    mapping = doc.get(key, {})
    if not isinstance(mapping, dict):
        raise CliError(f"{origin}: {key} must map variables to expressions")
    comps = [Poly.zero(len(names))] * len(names)
    index = {v: i for i, v in enumerate(names)}
    for var, expr in mapping.items():
        if var not in index:
            raise CliError(f"{origin}: {key} uses unknown variable {var!r}")
        if not isinstance(expr, str):
            raise CliError(f"{origin}: {key}[{var!r}] must be an expression string")
        try:
            comps[index[var]] = parse_poly_expr(expr, names)
        except CliError as e:
            raise CliError(f"{origin}: {key}[{var!r}]: {e}") from e
    return tuple(comps)


def parse_section_text(text: str, origin: str = "section file") -> NamedSection:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict):
        raise CliError(f"{origin}: top level must be an object")
    names = _parse_vars(doc, origin)
    vf = VectorField(len(names), _parse_components(doc, "vector_field", names, origin))
    form = OneForm(len(names), _parse_components(doc, "one_form", names, origin))
    return NamedSection(names, Section(vf, form))


def section_to_doc(names: Sequence[str], s: Section) -> dict:
    return {
        "vars": list(names),
        "vector_field": {names[i]: poly_to_str(c, names)
                         for i, c in enumerate(s.vf.components) if not c.is_zero()},
        "one_form": {names[i]: poly_to_str(c, names)
                     for i, c in enumerate(s.form.components) if not c.is_zero()},
    }


def parse_skew_matrix_text(text: str, origin: str) -> tuple[tuple[str, ...], dict]:
    """Shared reader for bivector and 2-form files: {"vars", "entries": [[i,j,expr]]}."""
    doc = _load_json(text, origin)
    if not isinstance(doc, dict):
        raise CliError(f"{origin}: top level must be an object")
    names = _parse_vars(doc, origin)
    n = len(names)
    upper: dict[tuple[int, int], Poly] = {}
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise CliError(f"{origin}: entries must be a list")
    for pos, entry in enumerate(entries):
        where = f"{origin}: entries[{pos}]"
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], int) or not isinstance(entry[1], int)
                or not isinstance(entry[2], str)):
            raise CliError(f"{where}: expected [i, j, expression]")
        i, j = entry[0], entry[1]
        if not 0 <= i < j < n:
            raise CliError(f"{where}: indices must satisfy 0 <= i < j < {n}")
        if (i, j) in upper:
            raise CliError(f"{where}: duplicate entry at ({i}, {j})")
        try:
            upper[(i, j)] = parse_poly_expr(entry[2], names)
        except CliError as e:
            raise CliError(f"{where}: {e}") from e
    return names, upper


def parse_bivector_text(text: str, origin: str = "bivector file") -> tuple[tuple[str, ...], Bivector]:
    names, upper = parse_skew_matrix_text(text, origin)
    return names, Bivector.from_upper(len(names), upper)


def parse_twoform_text(text: str, origin: str = "2-form file") -> tuple[tuple[str, ...], TwoForm]:
    names, upper = parse_skew_matrix_text(text, origin)
    return names, TwoForm.from_upper(len(names), upper)


# -- reports ------------------------------------------------------------------

@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    witness: Any = None
    value: Any = None


def _check_doc(c: Check) -> dict:
    doc: dict[str, Any] = {"name": c.name, "status": c.status}
    if c.witness is not None:
        doc["witness"] = c.witness
    if c.value is not None:
        doc["value"] = c.value
    return doc


def _bool_check(name: str, ok: bool, witness: Any = None) -> Check:
    return Check(name, "pass" if ok else "fail", None if ok else witness)


def _render(kind: str, payload: Any, fmt: str, timing_ms: int | None) -> tuple[str, int]:
    if kind == "data":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    checks: list[Check] = payload
    status = "pass" if all(c.status == "pass" for c in checks) else "fail"
    code = 0 if status == "pass" else 1
    if fmt == "json":
        doc: dict[str, Any] = {"status": status, "checks": [_check_doc(c) for c in checks]}
        if timing_ms is not None:
            doc["timing_ms"] = timing_ms
        return json.dumps(doc, indent=2, sort_keys=True) + "\n", code
    lines = [f"status: {status}"]
    for c in checks:
        line = f"  [{c.status}] {c.name}"
        if c.value is not None:
            line += f" value={json.dumps(c.value, sort_keys=True)}"
        if c.witness is not None:
            line += f" witness={json.dumps(c.witness, sort_keys=True)}"
        lines.append(line)
    if timing_ms is not None:
        lines.append(f"timing: {timing_ms} ms")
    return "\n".join(lines) + "\n", code


# -- command handlers ---------------------------------------------------------

def _cmd_algebra_check(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.file), args.file)
    leib, wit = a.check_leibniz()
    witness = None
    if not leib and wit is not None:
        i, j, k, lhs, rhs = wit
        witness = {"at": [i, j, k], "lhs": _vec_doc(lhs), "rhs": _vec_doc(rhs)}
    return "report", [
        Check("leibniz", "pass", witness, leib),
        Check("skew", "pass", None, a.is_skew),
        Check("lie", "pass", None, a.check_lie()),
    ]


def _resolve_ideal(a: StructureAlgebra, spec: str) -> Subspace:
    if spec == "squares":
        return squares_ideal(a)
    if spec == "kernel":
        return kernel_of_lambda(a)
    return parse_subspace_text(_read_file(spec), spec)


def _build_envelope(a: StructureAlgebra, ideal: Subspace) -> EnvelopeTriple:
    ok, wit = a.check_leibniz()
    if not ok:
        assert wit is not None
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {wit[:3]}")
    return canonical_envelope(a, ideal)


def _cmd_envelope_build(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.file), args.file)
    ideal = _resolve_ideal(a, args.ideal)
    t = _build_envelope(a, ideal)
    return "data", {
        "e": algebra_to_doc(t.e),
        "h": algebra_to_doc(t.h),
        "g": algebra_to_doc(t.g),
        "f": _matrix_doc(t.f),
        "action": [_matrix_doc(m) for m in t.action.mats],
        "ideal": {"ambient_dim": ideal.ambient_dim,
                  "vectors": [_vec_doc(v) for v in ideal.basis]},
    }


def _cmd_envelope_verify(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.file), args.file)
    ideal = _resolve_ideal(a, args.ideal)
    try:
        t = _build_envelope(a, ideal)
    except (EnvelopeError, NotAnIdealError) as e:
        return "report", [Check("envelope_conditions", "fail", str(e))]
    scaling_ok, scaling_wit = scaling_check(t)
    checks = [
        Check("envelope_conditions", "pass"),
        _bool_check("recovery_half", recovery_check(t)),
        _bool_check("s_scaling", scaling_ok,
                    None if scaling_ok else {"s": scaling_wit[0],
                                             "at": [scaling_wit[1], scaling_wit[2]],
                                             "part": scaling_wit[3]}),
        _bool_check("sigma1_embedding", sigma_one_embed_check(t)),
        Check("f_surjective", "pass", None, t.f_surjective),
    ]
    return "report", checks


def _cmd_ly_check(args) -> tuple[str, Any]:
    ly = parse_ly_text(_read_file(args.file), args.file)
    rep = validate_ly(ly)
    witness = None if rep.ok else {"axiom": rep.axiom, "at": list(rep.at)}
    return "report", [_bool_check("lie_yamaguti_axioms", rep.ok, witness)]


def _parse_vec_flag(raw: str, dim: int, flag: str) -> Vec:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != dim:
        raise CliError(f"{flag} must have {dim} comma-separated components")
    try:
        return tuple(parse_rational(p) for p in parts)
    except ValueError as e:
        raise CliError(f"{flag}: {e}") from e


def _cmd_loop_eval(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.algebra), args.algebra)
    x = _parse_vec_flag(args.x, a.dim, "--x")
    y = _parse_vec_flag(args.y, a.dim, "--y")
    mode = "float" if args.float_mode else "exact"
    ctx = LoopContext(a, args.s, mode, args.tol)
    try:
        product = loop_product(ctx, x, y)
    except NotNilpotentError as e:
        raise CliError(str(e)) from e
    return "data", {
        "mode": mode,
        "s": format_rational(args.s),
        "x": _vec_doc(x),
        "y": _vec_doc(y),
        "product": _vec_doc(product) if mode == "exact" else list(product),
    }


def _cmd_loop_verify(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.algebra), args.algebra)
    mode = "float" if args.float_mode else "exact"
    try:
        ctx = loop_context(a, args.s, mode, args.tol)
    except NotNilpotentError as e:
        return "report", [Check("exact_mode", "fail", str(e))]
    rep = loop_property_check(ctx, samples=args.samples, seed=args.seed)
    return "report", [_bool_check(c.name, c.ok, c.witness) for c in rep.checks]


def _cmd_omni(args) -> tuple[str, Any]:
    hemi, demi = omni_algebras(args.dim)
    return "data", {"hemisemidirect": algebra_to_doc(hemi),
                    "demisemidirect": algebra_to_doc(demi)}


def _cmd_courant_bracket(args) -> tuple[str, Any]:
    first = parse_section_text(_read_file(args.x), args.x)
    second = parse_section_text(_read_file(args.y), args.y)
    if first.names != second.names:
        raise CliError("section variable lists differ")
    result = courant_bracket(first.section, second.section)
    return "data", section_to_doc(first.names, result)


def _cmd_courant_axioms(args) -> tuple[str, Any]:
    if args.vars < 1:
        raise CliError("--vars must be at least 1")
    samples = courant_samples(args.seed, args.vars, args.samples)
    results = list(axiom_suite(samples.triples, samples.funcs))
    results += dorfman_checks(samples.triples, samples.funcs)
    return "report", [_bool_check(r.name, r.ok, r.witness) for r in results]


def _cmd_courant_graph(args) -> tuple[str, Any]:
    text = _read_file(args.data)
    rng = Pcg32(args.seed)
    if args.kind == "poisson":
        names, pi = parse_bivector_text(text, args.data)
        inputs = [random_one_form(rng, len(names)) for _ in range(args.samples)]
        closed, pair = graph_closure_check("poisson", pi, inputs)
    else:
        names, omega = parse_twoform_text(text, args.data)
        inputs = [random_vector_field(rng, len(names)) for _ in range(args.samples)]
        closed, pair = graph_closure_check("twoform", omega, inputs)
    witness = None
    if not closed and pair is not None:
        i, j = pair
        if args.kind == "poisson":
            x = Section(pi.sharp(inputs[i]), inputs[i])
            y = Section(pi.sharp(inputs[j]), inputs[j])
            br = courant_bracket(x, y)
            residual = br.vf - pi.sharp(br.form)
            witness = {
                "pair": [i, j],
                "bracket": section_to_doc(names, br),
                "off_graph_vector_field": {names[k]: poly_to_str(c, names)
                                           for k, c in enumerate(residual.components)
                                           if not c.is_zero()},
            }
        else:
            x = Section(inputs[i], interior_two_form(inputs[i], omega))
            y = Section(inputs[j], interior_two_form(inputs[j], omega))
            br = courant_bracket(x, y)
            residual = br.form - interior_two_form(br.vf, omega)
            witness = {
                "pair": [i, j],
                "bracket": section_to_doc(names, br),
                "off_graph_one_form": {names[k]: poly_to_str(c, names)
                                       for k, c in enumerate(residual.components)
                                       if not c.is_zero()},
            }
    return "report", [_bool_check("graph_closed", closed, witness)]


# -- argument parsing and dispatch --------------------------------------------

def _seed_type(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {raw!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _rational_type(raw: str) -> Fraction:
    try:
        return parse_rational(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"exact rational 'p' or 'p/q' required, got {raw!r}")


# Upper bounds on the size arguments. omni --dim d builds a (d^2 + d)-dimensional
# algebra (about 1.5 s at d = 8); a sample costs up to tens of milliseconds.
MAX_OMNI_DIM = 8
MAX_VARS = 8
MAX_SAMPLES = 1000


def _count_type(limit: int):
    """argparse type for an integer in 1..limit."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if not 1 <= value <= limit:
            raise argparse.ArgumentTypeError(f"integer in 1..{limit} required, got {raw!r}")
        return value
    return parse


def _tolerance_type(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"finite positive tolerance required, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (default text)")
    common.add_argument("--seed", type=_seed_type, default=0,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report")

    parser = argparse.ArgumentParser(
        prog="leibniz-forge",
        description="Exact checks for Leibniz algebras, their envelopes, "
                    "Lie-Yamaguti structures, loops, and the Courant bracket.")
    top = parser.add_subparsers(dest="group", required=True)

    algebra = top.add_parser("algebra", help="structure-constant algebra commands")
    algebra_sub = algebra.add_subparsers(dest="verb", required=True)
    p = algebra_sub.add_parser("check", parents=[common],
                               help="report Leibniz/skew/Lie status of an algebra file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_algebra_check)

    envelope = top.add_parser("envelope", help="enveloping Lie algebra commands")
    envelope_sub = envelope.add_subparsers(dest="verb", required=True)
    p = envelope_sub.add_parser("build", parents=[common],
                                help="emit the canonical envelope triple as JSON")
    p.add_argument("file")
    p.add_argument("--ideal", default="squares",
                   help="squares | kernel | path to a subspace file (default squares)")
    p.set_defaults(handler=_cmd_envelope_build)
    p = envelope_sub.add_parser("verify", parents=[common],
                                help="run all envelope invariant checks")
    p.add_argument("file")
    p.add_argument("--ideal", default="squares",
                   help="squares | kernel | path to a subspace file (default squares)")
    p.set_defaults(handler=_cmd_envelope_verify)

    ly = top.add_parser("ly", help="Lie-Yamaguti commands")
    ly_sub = ly.add_subparsers(dest="verb", required=True)
    p = ly_sub.add_parser("check", parents=[common],
                          help="validate the axioms of a Lie-Yamaguti file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_ly_check)

    loop = top.add_parser("loop", help="left-loop commands")
    loop_sub = loop.add_subparsers(dest="verb", required=True)
    p = loop_sub.add_parser("eval", parents=[common], help="evaluate one loop product")
    p.add_argument("--algebra", required=True)
    p.add_argument("--s", type=_rational_type, default=Q(1, 2),
                   help="exact deformation parameter (default 1/2)")
    p.add_argument("--x", required=True, help="comma-separated rational coordinates")
    p.add_argument("--y", required=True, help="comma-separated rational coordinates")
    p.add_argument("--float", dest="float_mode", action="store_true",
                   help="evaluate numerically instead of exactly")
    p.add_argument("--tol", type=_tolerance_type, default=1e-9,
                   help="float-mode tolerance (default 1e-9)")
    p.set_defaults(handler=_cmd_loop_eval)
    p = loop_sub.add_parser("verify", parents=[common],
                            help="check the loop laws on seeded samples")
    p.add_argument("--algebra", required=True)
    p.add_argument("--s", type=_rational_type, default=Q(1, 2),
                   help="exact deformation parameter (default 1/2)")
    p.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=100,
                   help=f"number of seeded samples, at most {MAX_SAMPLES} (default 100)")
    p.add_argument("--float", dest="float_mode", action="store_true",
                   help="check numerically within --tol")
    p.add_argument("--tol", type=_tolerance_type, default=1e-9,
                   help="float-mode tolerance (default 1e-9)")
    p.set_defaults(handler=_cmd_loop_verify)

    p = top.add_parser("omni", parents=[common],
                       help="emit the two omni algebras on gl(d) x R^d")
    p.add_argument("--dim", type=_count_type(MAX_OMNI_DIM), required=True,
                   help=f"d of gl(d) x R^d, at most {MAX_OMNI_DIM}")
    p.set_defaults(handler=_cmd_omni)

    courant = top.add_parser("courant", help="polynomial Courant bracket commands")
    courant_sub = courant.add_subparsers(dest="verb", required=True)
    p = courant_sub.add_parser("bracket", parents=[common],
                               help="bracket of two section files")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_courant_bracket)
    p = courant_sub.add_parser("axioms", parents=[common],
                               help="check the bracket axioms on seeded samples")
    p.add_argument("--vars", type=_count_type(MAX_VARS), required=True,
                   help=f"number of polynomial variables, at most {MAX_VARS}")
    p.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=16,
                   help=f"number of seeded triples, at most {MAX_SAMPLES} (default 16)")
    p.set_defaults(handler=_cmd_courant_axioms)
    p = courant_sub.add_parser("graph", parents=[common],
                               help="close a bivector or 2-form graph under the bracket")
    p.add_argument("--kind", choices=("poisson", "twoform"), required=True)
    p.add_argument("--data", required=True, help="bivector or 2-form file")
    p.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=6,
                   help=f"number of seeded inputs, at most {MAX_SAMPLES} (default 6)")
    p.set_defaults(handler=_cmd_courant_graph)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        kind, payload = args.handler(args)
    except (CliError, EnvelopeError, NotAnIdealError, NotNilpotentError, ValueError) as e:
        kind, payload = "report", [Check("error", "fail", str(e))]
    timing_ms = round((time.perf_counter() - start) * 1000) if args.timing else None
    text, code = _render(kind, payload, args.format, timing_ms)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
