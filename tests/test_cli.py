"""CLI parsing, dispatch, report shapes, and deterministic output."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from leibniz_forge.cli import (
    MAX_OMNI_DIM,
    MAX_SAMPLES,
    MAX_VARS,
    CliError,
    algebra_to_doc,
    build_parser,
    main,
    parse_algebra_text,
    parse_bivector_text,
    parse_ly_text,
    parse_poly_expr,
    parse_section_text,
    parse_subspace_text,
    parse_twoform_text,
    poly_to_str,
)
from leibniz_forge.poly import Poly

LEIBNIZ2 = """{
  "name": "leibniz2", "dim": 2, "basis": ["e1", "e2"],
  "products": [{"left": "e2", "right": "e2", "result": {"e1": "1"}}]
}"""

SECTION_X = """{
  "vars": ["x1", "x2"],
  "vector_field": {"x1": "1"},
  "one_form": {}
}"""

SECTION_Z = """{
  "vars": ["x1", "x2"],
  "vector_field": {},
  "one_form": {"x1": "x1"}
}"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)
    return write


class TestAlgebraFormat:
    def test_round_trip(self):
        a = parse_algebra_text(LEIBNIZ2)
        doc = algebra_to_doc(a)
        b = parse_algebra_text(json.dumps(doc))
        assert b.c == a.c and b.basis_names == a.basis_names

    def test_unknown_label(self):
        bad = LEIBNIZ2.replace('"left": "e2"', '"left": "e9"')
        with pytest.raises(CliError, match="e9"):
            parse_algebra_text(bad)

    def test_duplicate_product(self):
        doc = json.loads(LEIBNIZ2)
        doc["products"].append({"left": "e2", "right": "e2", "result": {"e2": "3"}})
        with pytest.raises(CliError, match="duplicate"):
            parse_algebra_text(json.dumps(doc))

    def test_float_rejected(self):
        doc = json.loads(LEIBNIZ2)
        doc["products"][0]["result"]["e1"] = 0.5
        with pytest.raises(CliError, match="exact rational"):
            parse_algebra_text(json.dumps(doc))

    def test_bool_rejected(self):
        doc = json.loads(LEIBNIZ2)
        doc["products"][0]["result"]["e1"] = True
        with pytest.raises(CliError, match="exact rational"):
            parse_algebra_text(json.dumps(doc))

    def test_basis_count_mismatch(self):
        doc = json.loads(LEIBNIZ2)
        doc["basis"] = ["e1"]
        with pytest.raises(CliError, match="basis"):
            parse_algebra_text(json.dumps(doc))

    def test_json_error_carries_position(self):
        with pytest.raises(CliError, match="line"):
            parse_algebra_text("{", origin="broken.json")


class TestOtherFormats:
    def test_subspace(self):
        s = parse_subspace_text('{"ambient_dim": 3, "vectors": [[1, 0, "1/2"]]}')
        assert s.ambient_dim == 3 and s.dim == 1

    def test_subspace_bad_length(self):
        with pytest.raises(CliError):
            parse_subspace_text('{"ambient_dim": 3, "vectors": [[1, 0]]}')

    def test_ly_round_values(self):
        ly = parse_ly_text(
            '{"dim": 2, "binary": [[0, 1, 0, "1"], [1, 0, 0, "-1"]], "ternary": []}')
        assert ly.b[0][1] == (Q(1), Q(0))
        assert ly.b[1][0] == (Q(-1), Q(0))

    def test_ly_index_range(self):
        with pytest.raises(CliError, match="indices must lie"):
            parse_ly_text('{"dim": 2, "binary": [[0, 2, 0, "1"]], "ternary": []}')

    def test_ly_duplicate(self):
        with pytest.raises(CliError, match="duplicate"):
            parse_ly_text(
                '{"dim": 2, "binary": [[0, 1, 0, "1"], [0, 1, 0, "2"]], "ternary": []}')

    def test_section(self):
        named = parse_section_text(SECTION_Z)
        assert named.names == ("x1", "x2")
        assert named.section.form.components[0] == Poly.var(2, 0)

    def test_bivector_and_twoform(self):
        names, pi = parse_bivector_text(
            '{"vars": ["x1", "x2"], "entries": [[0, 1, "x1"]]}')
        assert names == ("x1", "x2")
        assert pi.entries[0][1] == Poly.var(2, 0)
        assert pi.entries[1][0] == Poly.var(2, 0) * Q(-1)
        _, om = parse_twoform_text(
            '{"vars": ["x1", "x2"], "entries": [[0, 1, "2"]]}')
        assert om.entries[0][1] == Poly.const(2, 2)

    def test_skew_entry_order_enforced(self):
        with pytest.raises(CliError):
            parse_bivector_text('{"vars": ["x1", "x2"], "entries": [[1, 0, "1"]]}')
        with pytest.raises(CliError, match="duplicate"):
            parse_bivector_text(
                '{"vars": ["x1", "x2"], "entries": [[0, 1, "1"], [0, 1, "2"]]}')


class TestPolyGrammar:
    NAMES = ("x1", "x2")

    def test_values(self):
        p = parse_poly_expr("2*x1^2 - x2 + 1/3", self.NAMES)
        x1, x2 = Poly.var(2, 0), Poly.var(2, 1)
        assert p == x1 * x1 * 2 - x2 + Poly.const(2, Q(1, 3))

    def test_leading_sign(self):
        assert parse_poly_expr("-x1", self.NAMES) == Poly.var(2, 0) * -1
        assert parse_poly_expr("+x1", self.NAMES) == Poly.var(2, 0)

    def test_print_parse_identity(self):
        for expr in ("0", "1", "-1/2", "x1", "3*x1*x2 - x2^4 + 1",
                     "x1^2 - 2*x1*x2 + x2^2"):
            p = parse_poly_expr(expr, self.NAMES)
            assert parse_poly_expr(poly_to_str(p, self.NAMES), self.NAMES) == p

    def test_error_position(self):
        with pytest.raises(CliError, match="position 5"):
            parse_poly_expr("x1 + * 2", self.NAMES)

    def test_unknown_variable(self):
        with pytest.raises(CliError, match="y"):
            parse_poly_expr("x1 + y", self.NAMES)

    def test_bad_exponent(self):
        with pytest.raises(CliError):
            parse_poly_expr("x1^", self.NAMES)
        with pytest.raises(CliError):
            parse_poly_expr("x1^x2", self.NAMES)

    def test_zero_prints_as_zero(self):
        assert poly_to_str(Poly.zero(2), self.NAMES) == "0"


class TestDispatch:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_algebra_check_pass_semantics(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "algebra", "check", path, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["leibniz"]["value"] is True
        assert by_name["lie"]["value"] is False

    def test_algebra_check_non_leibniz_still_exits_zero(self, files, capsys):
        nl3 = json.dumps({
            "name": "nl3", "dim": 3, "basis": ["e1", "e2", "e3"],
            "products": [
                {"left": "e1", "right": "e1", "result": {"e2": "1"}},
                {"left": "e2", "right": "e2", "result": {"e3": "1"}},
            ]})
        path = files("nl3.json", nl3)
        code, out = self.run(capsys, "algebra", "check", path, "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["leibniz"]["value"] is False
        assert by_name["leibniz"]["witness"]["at"] == [0, 0, 1]

    def test_missing_file_is_error_report(self, capsys):
        code, out = self.run(capsys, "algebra", "check", "/nonexistent.json",
                             "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["checks"][0]["name"] == "error"

    def test_envelope_build_and_verify(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "envelope", "build", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["h"]["dim"] == 1 and doc["g"]["dim"] == 3
        code, out = self.run(capsys, "envelope", "verify", path, "--format", "json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == ["envelope_conditions", "recovery_half", "s_scaling",
                         "sigma1_embedding", "f_surjective"]

    def test_envelope_verify_non_leibniz_fails(self, files, capsys):
        idem = json.dumps({"name": "i", "dim": 1, "basis": ["e1"],
                           "products": [{"left": "e1", "right": "e1",
                                         "result": {"e1": "1"}}]})
        path = files("idem.json", idem)
        code, out = self.run(capsys, "envelope", "verify", path, "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["checks"][0]["name"] == "envelope_conditions"

    def test_envelope_ideal_file(self, files, capsys):
        apath = files("a.json", LEIBNIZ2)
        ipath = files("ideal.json",
                      '{"ambient_dim": 2, "vectors": [[1, 0]]}')
        code, _ = self.run(capsys, "envelope", "verify", apath,
                           "--ideal", ipath, "--format", "json")
        assert code == 0

    def test_ly_check(self, files, capsys):
        path = files("ly.json",
                     '{"dim": 1, "binary": [], "ternary": []}')
        code, out = self.run(capsys, "ly", "check", path, "--format", "json")
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_loop_eval_exact(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "loop", "eval", "--algebra", path,
                             "--s", "1/2", "--x", "1,2", "--y", "3,4",
                             "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["mode"] == "exact" and doc["product"] == ["8", "6"]

    def test_loop_eval_wrong_length(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "loop", "eval", "--algebra", path,
                             "--s", "1/2", "--x", "1", "--y", "3,4",
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_loop_verify_float_fallback(self, files, capsys):
        so3 = json.dumps({
            "name": "so3", "dim": 3, "basis": ["e1", "e2", "e3"],
            "products": [
                {"left": "e1", "right": "e2", "result": {"e3": "1"}},
                {"left": "e2", "right": "e1", "result": {"e3": "-1"}},
                {"left": "e2", "right": "e3", "result": {"e1": "1"}},
                {"left": "e3", "right": "e2", "result": {"e1": "-1"}},
                {"left": "e3", "right": "e1", "result": {"e2": "1"}},
                {"left": "e1", "right": "e3", "result": {"e2": "-1"}},
            ]})
        path = files("so3.json", so3)
        code, out = self.run(capsys, "loop", "verify", "--algebra", path,
                             "--float", "--tol", "1e-8", "--samples", "20",
                             "--seed", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize("verb", ["eval", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "tiny"])
    def test_loop_tol_must_be_finite_and_positive(self, files, capsys, verb, tol):
        path = files("a.json", LEIBNIZ2)
        args = ["--x", "1,2", "--y", "3,5"] if verb == "eval" else []
        with pytest.raises(SystemExit) as exc:
            main(["loop", verb, "--algebra", path, "--float", f"--tol={tol}", *args])
        assert exc.value.code == 2
        assert "finite positive tolerance required" in capsys.readouterr().err

    def test_loop_eval_accepts_small_tol(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "loop", "eval", "--algebra", path, "--float",
                             "--tol", "1e-9", "--x", "1,2", "--y", "3,5", "--format", "json")
        assert code == 0 and "status" not in json.loads(out)

    def test_loop_verify_exact_mode_refused_for_so3(self, files, capsys):
        so3 = json.dumps({
            "name": "so3", "dim": 3, "basis": ["e1", "e2", "e3"],
            "products": [
                {"left": "e1", "right": "e2", "result": {"e3": "1"}},
                {"left": "e2", "right": "e1", "result": {"e3": "-1"}},
                {"left": "e2", "right": "e3", "result": {"e1": "1"}},
                {"left": "e3", "right": "e2", "result": {"e1": "-1"}},
                {"left": "e3", "right": "e1", "result": {"e2": "1"}},
                {"left": "e1", "right": "e3", "result": {"e2": "-1"}},
            ]})
        path = files("so3.json", so3)
        code, out = self.run(capsys, "loop", "verify", "--algebra", path,
                             "--format", "json")
        doc = json.loads(out)
        assert code == 1
        assert doc["checks"][0]["name"] == "exact_mode"

    def test_omni(self, capsys):
        code, out = self.run(capsys, "omni", "--dim", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["hemisemidirect"]["dim"] == 2
        assert doc["demisemidirect"]["dim"] == 2

    def test_courant_bracket(self, files, capsys):
        a = files("x.json", SECTION_X)
        b = files("z.json", SECTION_Z)
        code, out = self.run(capsys, "courant", "bracket", a, b,
                             "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["one_form"] == {"x1": "1/2"}
        assert doc["vector_field"] == {}

    def test_courant_bracket_var_mismatch(self, files, capsys):
        a = files("x.json", SECTION_X)
        b = files("y.json", SECTION_Z.replace('"x1", "x2"', '"y1", "y2"')
                  .replace('"x1": "x1"', '"y1": "y1"'))
        code, out = self.run(capsys, "courant", "bracket", a, b,
                             "--format", "json")
        assert code == 1

    def test_courant_axioms(self, capsys):
        code, out = self.run(capsys, "courant", "axioms", "--vars", "2",
                             "--seed", "7", "--samples", "6", "--format", "json")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == ["axiom1", "axiom2", "axiom3", "axiom4", "axiom5",
                         "dorfman_leibniz", "skew_symmetric_decomposition",
                         "d_image_ideal"]

    def test_courant_graph_witness(self, files, capsys):
        pi = files("pi.json",
                   '{"vars": ["x1", "x2", "x3"],'
                   ' "entries": [[0, 1, "1"], [0, 2, "x1"]]}')
        code, out = self.run(capsys, "courant", "graph", "--kind", "poisson",
                             "--data", pi, "--seed", "3", "--samples", "4",
                             "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        witness = doc["checks"][0]["witness"]
        assert "pair" in witness and "off_graph_vector_field" in witness

    def test_text_format(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        code, out = self.run(capsys, "algebra", "check", path)
        assert code == 0
        assert out.startswith("status: pass")
        assert "[pass] leibniz" in out

    def test_timing_opt_in(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        _, out = self.run(capsys, "algebra", "check", path, "--format", "json")
        assert "timing_ms" not in json.loads(out)
        _, out = self.run(capsys, "algebra", "check", path, "--timing",
                          "--format", "json")
        assert "timing_ms" in json.loads(out)


class TestSizeLimits:
    """Size arguments are checked by the parser alone; nothing here runs a command."""

    LIMITS = [
        (["omni"], "--dim", MAX_OMNI_DIM),
        (["courant", "axioms", "--samples", "1"], "--vars", MAX_VARS),
        (["courant", "axioms", "--vars", "1"], "--samples", MAX_SAMPLES),
        (["courant", "graph", "--kind", "poisson", "--data", "p.json"], "--samples", MAX_SAMPLES),
        (["loop", "verify", "--algebra", "a.json"], "--samples", MAX_SAMPLES),
    ]

    @pytest.mark.parametrize("argv, flag, limit", LIMITS)
    def test_bound_is_accepted(self, argv, flag, limit):
        args = build_parser().parse_args([*argv, flag, str(limit)])
        assert getattr(args, flag.removeprefix("--")) == limit

    @pytest.mark.parametrize("argv, flag, limit", LIMITS)
    @pytest.mark.parametrize("over", [1, 10 ** 6])
    def test_above_bound_is_a_usage_error(self, capsys, argv, flag, limit, over):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, flag, str(limit + over)])
        assert exc.value.code == 2
        assert f"integer in 1..{limit} required" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["0", "-3", "2.5", "many"])
    def test_non_positive_or_non_integer_is_a_usage_error(self, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["omni", "--dim", raw])
        assert exc.value.code == 2

    def test_defaults_within_bounds(self):
        parser = build_parser()
        assert parser.parse_args(["loop", "verify", "--algebra", "a.json"]).samples == 100
        assert parser.parse_args(["courant", "axioms", "--vars", "2"]).samples == 16
        assert parser.parse_args(["courant", "graph", "--kind", "poisson",
                                  "--data", "p.json"]).samples == 6


class TestDeterminism:
    def test_repeat_runs_identical_in_process(self, files, capsys):
        path = files("a.json", LEIBNIZ2)
        outs = []
        for _ in range(2):
            code = main(["envelope", "verify", path, "--format", "json",
                         "--seed", "9"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_seeded_axioms_identical_in_subprocess(self, tmp_path):
        cmd = [sys.executable, "-m", "leibniz_forge.cli", "courant", "axioms",
               "--vars", "2", "--seed", "11", "--samples", "4",
               "--format", "json"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.endswith(b"\n")
