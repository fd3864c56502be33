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
from functools import lru_cache
from typing import Any, Sequence

from .algebra import (
    StructureAlgebra,
    Subspace,
    kernel_of_lambda,
    squares_ideal,
)
from .courant import (
    Bivector,
    CheckResult,
    OneForm,
    Section,
    TwoForm,
    VectorField,
    axiom_suite,
    courant_bracket,
    dorfman_checks,
    graph_closure_check,
    graph_residual,
    graph_section,
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
from .sampling import Pcg32, courant_samples, random_one_form
from .tensor import materialize
from .yamaguti import LieYamaguti, validate_ly


class CliError(ValueError):
    pass


# -- small serializers --------------------------------------------------------

def _rational_text(x: Fraction) -> str:
    try:
        return format_rational(x)
    except ValueError as e:  # beyond Python's int-digit limit
        raise CliError("result too large to print: a coefficient exceeds Python's "
                       f"int-digit limit ({sys.get_int_max_str_digits()} digits)") from e


def _vec_doc(v: Vec) -> list[str]:
    return [_rational_text(x) for x in v]


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[_rational_text(x) for x in row] for row in m.entries]


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
    except ValueError as e:  # an integer literal beyond Python's int-digit limit
        raise CliError(f"{origin}: {e}") from e


def _load_object(text: str, origin: str) -> dict:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict):
        raise CliError(f"{origin}: top level must be an object")
    return doc


def _known_keys(doc: dict, origin: str, *keys: str) -> dict:
    """doc, if each top-level key is one of keys: a misspelled key must not read as empty."""
    unknown = next((key for key in doc if key not in keys), None)
    if unknown is not None:
        raise CliError(f"{origin}: unknown key {unknown!r}; expected {', '.join(keys)}")
    return doc


def _is_int(value: Any) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(doc: dict, key: str, origin: str, limit: int | None = None) -> int:
    value = doc[key]
    if not _is_int(value) or value < 1:
        raise CliError(f"{origin}: {key} must be a positive integer")
    if limit is not None and value > limit:
        raise CliError(f"{origin}: {key} must be at most {limit}")
    return value


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
    doc = _load_object(text, origin)
    for key in ("dim", "basis", "products"):
        if key not in doc:
            raise CliError(f"{origin}: missing field {key!r}")
    dim = _positive_int(doc, "dim", origin, MAX_ALGEBRA_DIM)
    basis, entries = doc["basis"], doc["products"]
    if (not isinstance(basis, list) or len(basis) != dim
            or any(not isinstance(b, str) for b in basis) or len(set(basis)) != dim):
        raise CliError(f"{origin}: basis must list {dim} distinct labels")
    index = {label: i for i, label in enumerate(basis)}
    if not isinstance(entries, list):
        raise CliError(f"{origin}: products must be a list")

    def lookup(label: Any, where: str) -> int:
        if not isinstance(label, str) or label not in index:
            raise CliError(f"{where}: unknown basis label {label!r}")
        return index[label]

    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, entry in enumerate(entries):
        where = f"{origin}: products[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "result"}:
            raise CliError(f"{where}: expected keys left, right, result")
        key = (lookup(entry["left"], where), lookup(entry["right"], where))
        if key in products:
            raise CliError(f"{where}: duplicate product entry for "
                           f"({entry['left']}, {entry['right']})")
        result = entry["result"]
        if not isinstance(result, dict):
            raise CliError(f"{where}: result must map labels to rationals")
        products[key] = {lookup(label, where): _exact_number(value, where)
                         for label, value in result.items()}
    return StructureAlgebra.from_products(dim, products, basis, doc.get("name", ""))


def algebra_to_doc(a: StructureAlgebra) -> dict:
    names = a.basis_names
    # the nonzero cells in row-major (i, j) order, each in ascending k
    products = [{"left": names[i], "right": names[j],
                 "result": {names[k]: _rational_text(x) for k, x in cell.items()}}
                for (i, j), cell in a.sparse.entries.items()]
    return {"name": a.name, "dim": a.dim, "basis": list(names), "products": products}


def parse_subspace_text(text: str, origin: str = "subspace file") -> Subspace:
    doc = _load_json(text, origin)
    if not isinstance(doc, dict) or "ambient_dim" not in doc or "vectors" not in doc:
        raise CliError(f"{origin}: expected keys ambient_dim, vectors")
    n = _positive_int(doc, "ambient_dim", origin)
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
    _known_keys(doc, origin, "dim", "binary", "ternary")
    n = _positive_int(doc, "dim", origin, MAX_LY_DIM)

    def tensor(key: str, arity: int) -> tuple:
        if not isinstance(doc.get(key, []), list):
            raise CliError(f"{origin}: {key} must be a list of entries")
        cells: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for pos, entry in enumerate(doc.get(key, [])):
            where = f"{origin}: {key}[{pos}]"
            if not isinstance(entry, list) or len(entry) != arity + 1:
                raise CliError(f"{where}: expected {arity} indices and a value")
            idx = entry[:arity]
            if any(not _is_int(i) or not 0 <= i < n for i in idx):
                raise CliError(f"{where}: indices must lie in [0, {n - 1}]")
            cell = cells.setdefault(tuple(idx[:-1]), {})  # zero values stay, to catch duplicates
            if idx[-1] in cell:
                raise CliError(f"{where}: duplicate entry at {idx}")
            cell[idx[-1]] = _exact_number(entry[arity], where)
        return materialize(n, arity - 1, cells)

    return LieYamaguti(n, tensor("binary", 3), tensor("ternary", 4))


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

    def number(convert, value: str, pos: int):
        try:
            return convert(value)
        except (ValueError, ZeroDivisionError) as e:  # int-digit limit, zero denominator
            raise CliError(f"bad number at position {pos}: {e}") from e

    def parse_factor() -> tuple[Fraction, tuple[int, ...]]:
        kind, value, pos = take()
        if kind == "rat":
            return number(Fraction, value, pos), (0,) * nvars
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
                power = number(int, evalue, epos)
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
        try:
            return Poly.monomial(nvars, expo, coeff)
        except ValueError as e:  # an exponent of 2**63 or more
            raise CliError(str(e)) from e

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
    out = ""
    for expo, coeff in p.terms:
        vars_part = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                             for i, e in enumerate(expo) if e > 0)
        mag = "" if vars_part and abs(coeff) == 1 else _rational_text(abs(coeff))
        sign = (" - " if coeff < 0 else " + ") if out else ("-" if coeff < 0 else "")
        out += sign + "*".join(filter(None, (mag, vars_part)))
    return out or "0"


# -- section / bivector / 2-form files ----------------------------------------

@dataclass(frozen=True)
class NamedSection:
    names: tuple[str, ...]
    section: Section


def _parse_vars(doc: dict, origin: str) -> tuple[str, ...]:
    names = doc.get("vars")
    if (not isinstance(names, list) or not names
            or any(not isinstance(v, str) for v in names) or len(set(names)) != len(names)):
        raise CliError(f"{origin}: vars must list distinct variable names")
    return tuple(names)


def _parse_components(doc: dict, key: str, names: Sequence[str], origin: str) -> tuple[Poly, ...]:
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
    doc = _known_keys(_load_object(text, origin), origin, "vars", "vector_field", "one_form")
    names = _parse_vars(doc, origin)
    vf = VectorField(len(names), _parse_components(doc, "vector_field", names, origin))
    form = OneForm(len(names), _parse_components(doc, "one_form", names, origin))
    return NamedSection(names, Section(vf, form))


def _components_doc(names: Sequence[str], f: OneForm) -> dict:
    """The nonzero components of a vector field or 1-form, by variable name."""
    return {names[i]: poly_to_str(c, names) for i, c in enumerate(f.components)
            if not c.is_zero()}


def section_to_doc(names: Sequence[str], s: Section) -> dict:
    return {"vars": list(names), "vector_field": _components_doc(names, s.vf),
            "one_form": _components_doc(names, s.form)}


def parse_skew_matrix_text(text: str, origin: str) -> tuple[tuple[str, ...], dict]:
    """Shared reader for bivector and 2-form files: {"vars", "entries": [[i,j,expr]]}."""
    doc = _known_keys(_load_object(text, origin), origin, "vars", "entries")
    names = _parse_vars(doc, origin)
    n = len(names)
    upper: dict[tuple[int, int], Poly] = {}
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise CliError(f"{origin}: entries must be a list")
    for pos, entry in enumerate(entries):
        where = f"{origin}: entries[{pos}]"
        if (not isinstance(entry, list) or len(entry) != 3
                or not _is_int(entry[0]) or not _is_int(entry[1])
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

def _check_doc(c: CheckResult) -> dict:
    doc: dict[str, Any] = {"name": c.name, "status": "pass" if c.ok else "fail"}
    if c.witness is not None:
        doc["witness"] = c.witness
    if c.value is not None:
        doc["value"] = c.value
    return doc


def _render(kind: str, payload: Any, fmt: str, timing_ms: int | None) -> tuple[str, int]:
    if kind == "data":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", 0
    checks = [_check_doc(c) for c in payload]
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    code = 0 if status == "pass" else 1
    if fmt == "json":
        doc: dict[str, Any] = {"status": status, "checks": checks}
        if timing_ms is not None:
            doc["timing_ms"] = timing_ms
        return json.dumps(doc, indent=2, sort_keys=True) + "\n", code
    lines = [f"status: {status}"]
    for c in checks:
        lines.append(f"  [{c['status']}] {c['name']}" + "".join(
            f" {key}={json.dumps(c[key], sort_keys=True)}"
            for key in ("value", "witness") if key in c))
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
    # reported as values: a non-Leibniz algebra still passes, with its witness
    return "report", [
        CheckResult("leibniz", True, witness, leib),
        CheckResult("skew", True, value=a.is_skew),
        CheckResult("lie", True, value=a.check_lie()),
    ]


def _envelope(args) -> tuple[Subspace, EnvelopeTriple]:
    """The ideal and the envelope of the algebra file. Both files are read first, so a
    file error is reported before anything else; a non-Leibniz algebra is rejected
    before the squares or kernel ideal is built."""
    a = parse_algebra_text(_read_file(args.file), args.file)
    ideal = (None if args.ideal in ("squares", "kernel")
             else parse_subspace_text(_read_file(args.ideal), args.ideal))
    ok, wit = a.check_leibniz()
    if not ok:
        raise EnvelopeError(f"not a Leibniz algebra: first failing triple {wit[:3]}")
    if ideal is None:
        ideal = squares_ideal(a) if args.ideal == "squares" else kernel_of_lambda(a)
    return ideal, canonical_envelope(a, ideal)


def _cmd_envelope_build(args) -> tuple[str, Any]:
    ideal, t = _envelope(args)
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
    try:
        t = _envelope(args)[1]
    except EnvelopeError as e:
        return "report", [CheckResult("envelope_conditions", False, str(e))]
    scaling_ok, wit = scaling_check(t)
    return "report", [
        CheckResult("envelope_conditions", True),
        CheckResult("recovery_half", recovery_check(t)),
        CheckResult("s_scaling", scaling_ok,
                    None if scaling_ok else {"s": wit[0], "at": [wit[1], wit[2]], "part": wit[3]}),
        CheckResult("sigma1_embedding", sigma_one_embed_check(t)),
        CheckResult("f_surjective", True, value=t.f_surjective),
    ]


def _cmd_ly_check(args) -> tuple[str, Any]:
    ly = parse_ly_text(_read_file(args.file), args.file)
    rep = validate_ly(ly)
    witness = None if rep.ok else {"axiom": rep.axiom, "at": list(rep.at)}
    return "report", [CheckResult("lie_yamaguti_axioms", rep.ok, witness)]


def _parse_vec_flag(raw: str, dim: int, flag: str) -> Vec:
    parts = raw.split(",")
    if len(parts) != dim:
        raise CliError(f"{flag} must have {dim} comma-separated components")
    return tuple(_exact_number(p.strip(), flag) for p in parts)


def _cmd_loop_eval(args) -> tuple[str, Any]:
    a = parse_algebra_text(_read_file(args.algebra), args.algebra)
    x = _parse_vec_flag(args.x, a.dim, "--x")
    y = _parse_vec_flag(args.y, a.dim, "--y")
    mode = "float" if args.float_mode else "exact"
    product = loop_product(LoopContext(a, args.s, mode, args.tol), x, y)
    return "data", {
        "mode": mode,
        "s": _rational_text(args.s),
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
        return "report", [CheckResult("exact_mode", False, str(e))]
    rep = loop_property_check(ctx, samples=args.samples, seed=args.seed)
    return "report", rep.checks


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
    samples = courant_samples(args.seed, args.vars, args.samples)
    return "report", (axiom_suite(samples.triples, samples.funcs)
                      + dorfman_checks(samples.triples, samples.funcs))


# the residual's slot in a graph witness, by graph kind
_OFF_GRAPH_KEY = {"poisson": "off_graph_vector_field", "twoform": "off_graph_one_form"}


def _cmd_courant_graph(args) -> tuple[str, Any]:
    parse = parse_bivector_text if args.kind == "poisson" else parse_twoform_text
    names, data = parse(_read_file(args.data), args.data)
    rng = Pcg32(args.seed)
    # the inputs are 1-forms for a bivector and vector fields for a 2-form: one
    # polynomial per variable either way
    inputs = [random_one_form(rng, len(names)) for _ in range(args.samples)]
    closed, pair = graph_closure_check(args.kind, data, inputs)
    witness = None
    if pair is not None:
        i, j = pair
        br = courant_bracket(graph_section(args.kind, data, inputs[i]),
                             graph_section(args.kind, data, inputs[j]))
        residual = graph_residual(args.kind, data, br)
        witness = {"pair": [i, j], "bracket": section_to_doc(names, br),
                   _OFF_GRAPH_KEY[args.kind]: _components_doc(names, residual)}
    return "report", [CheckResult("graph_closed", closed, witness)]


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
# algebra (about 0.6 s at d = 8); a sample costs up to tens of milliseconds.
MAX_OMNI_DIM = 8
MAX_VARS = 8
MAX_SAMPLES = 1000
# Upper bounds on dim in input files. An algebra file is read into its nonzero cells,
# but the envelope checks hold dense dim x dim action matrices (envelope verify on one
# product at dim 128: 3.2 s on 2 vCPUs), and every LY check walks the dim^3 ternary cells.
# They admit omni --dim 8 (dim 72) and the LY structure of omni_hemi(6) (ly check: 0.45 s).
MAX_ALGEBRA_DIM = 128
MAX_LY_DIM = 42


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


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every call returns the
    same shared parser, so callers must not mutate it."""
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

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="verb", required=True)

    def verb(sub, name: str, help: str, handler, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    algebra = group("algebra", "structure-constant algebra commands")
    verb(algebra, "check", "report Leibniz/skew/Lie status of an algebra file",
         _cmd_algebra_check).add_argument("file")

    envelope_input = argparse.ArgumentParser(add_help=False)
    envelope_input.add_argument("file")
    envelope_input.add_argument("--ideal", default="squares",
                                help="squares | kernel | path to a subspace file (default squares)")
    envelope = group("envelope", "enveloping Lie algebra commands")
    verb(envelope, "build", "emit the canonical envelope triple as JSON",
         _cmd_envelope_build, envelope_input)
    verb(envelope, "verify", "run all envelope invariant checks",
         _cmd_envelope_verify, envelope_input)

    ly = group("ly", "Lie-Yamaguti commands")
    verb(ly, "check", "validate the axioms of a Lie-Yamaguti file",
         _cmd_ly_check).add_argument("file")

    # Both loop verbs take --algebra and --s before their own flags and --float
    # and --tol after them, the order their usage lines have always shown.
    loop = group("loop", "left-loop commands")
    evaluate = verb(loop, "eval", "evaluate one loop product", _cmd_loop_eval)
    verify = verb(loop, "verify", "check the loop laws on seeded samples", _cmd_loop_verify)
    for p in (evaluate, verify):
        p.add_argument("--algebra", required=True)
        p.add_argument("--s", type=_rational_type, default=Q(1, 2),
                       help="exact deformation parameter (default 1/2)")
    evaluate.add_argument("--x", required=True, help="comma-separated rational coordinates")
    evaluate.add_argument("--y", required=True, help="comma-separated rational coordinates")
    verify.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=100,
                        help=f"number of seeded samples, at most {MAX_SAMPLES} (default 100)")
    for p in (evaluate, verify):
        p.add_argument("--float", dest="float_mode", action="store_true",
                       help="compute numerically within --tol instead of exactly")
        p.add_argument("--tol", type=_tolerance_type, default=1e-9,
                       help="float-mode tolerance (default 1e-9)")

    verb(top, "omni", "emit the two omni algebras on gl(d) x R^d", _cmd_omni).add_argument(
        "--dim", type=_count_type(MAX_OMNI_DIM), required=True,
        help=f"d of gl(d) x R^d, at most {MAX_OMNI_DIM}")

    courant = group("courant", "polynomial Courant bracket commands")
    p = verb(courant, "bracket", "bracket of two section files", _cmd_courant_bracket)
    p.add_argument("x")
    p.add_argument("y")
    p = verb(courant, "axioms", "check the bracket axioms on seeded samples", _cmd_courant_axioms)
    p.add_argument("--vars", type=_count_type(MAX_VARS), required=True,
                   help=f"number of polynomial variables, at most {MAX_VARS}")
    p.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=16,
                   help=f"number of seeded triples, at most {MAX_SAMPLES} (default 16)")
    p = verb(courant, "graph", "close a bivector or 2-form graph under the bracket",
             _cmd_courant_graph)
    p.add_argument("--kind", choices=("poisson", "twoform"), required=True)
    p.add_argument("--data", required=True, help="bivector or 2-form file")
    p.add_argument("--samples", type=_count_type(MAX_SAMPLES), default=6,
                   help=f"number of seeded inputs, at most {MAX_SAMPLES} (default 6)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        kind, payload = args.handler(args)
    except ValueError as e:  # CliError and every library input error are ValueErrors
        kind, payload = "report", [CheckResult("error", False, str(e))]
    timing_ms = round((time.perf_counter() - start) * 1000) if args.timing else None
    text, code = _render(kind, payload, args.format, timing_ms)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
