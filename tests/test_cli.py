"""CLI parsing, dispatch, report shapes, and deterministic output."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Q

import pytest

from leibniz_forge import cli, ly_from_leibniz, squares_ideal, validate_ly
from leibniz_forge.cli import (
    MAX_ALGEBRA_DIM,
    MAX_LY_DIM,
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
    section_to_doc,
)
from leibniz_forge.courant import (
    Section,
    TwoForm,
    courant_bracket,
    graph_closure_check,
    interior_two_form,
)
from leibniz_forge.poly import Poly
from leibniz_forge.products import omni_algebras
from leibniz_forge.sampling import Pcg32, random_vector_field

from conftest import make_nl3

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

    @pytest.mark.parametrize("side, label", [("left", ["e1"]), ("right", {"e": 1})])
    def test_unhashable_label_is_unknown(self, files, capsys, side, label):
        # a JSON list or object as a label used to crash with "unhashable type"
        doc = json.loads(LEIBNIZ2)
        doc["products"][0][side] = label
        with pytest.raises(CliError, match="unknown basis label"):
            parse_algebra_text(json.dumps(doc))
        assert main(["algebra", "check", files("a.json", json.dumps(doc)),
                     "--format", "json"]) == 1
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["name"] == "error" and "unknown basis label" in check["witness"]

    def test_dim_true_is_not_an_integer(self):
        doc = json.loads(LEIBNIZ2)
        doc.update(dim=True, basis=["e1"], products=[])
        with pytest.raises(CliError, match="dim must be a positive integer"):
            parse_algebra_text(json.dumps(doc))


class TestOtherFormats:
    def test_subspace(self):
        s = parse_subspace_text('{"ambient_dim": 3, "vectors": [[1, 0, "1/2"]]}')
        assert s.ambient_dim == 3 and s.dim == 1

    def test_subspace_bad_length(self):
        with pytest.raises(CliError):
            parse_subspace_text('{"ambient_dim": 3, "vectors": [[1, 0]]}')

    def test_subspace_ambient_dim_true_rejected(self):
        with pytest.raises(CliError, match="ambient_dim must be a positive integer"):
            parse_subspace_text('{"ambient_dim": true, "vectors": [[1]]}')

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

    def test_ly_duplicate_after_a_zero(self):
        with pytest.raises(CliError, match=r"binary\[1\]: duplicate entry at \[0, 1, 0\]"):
            parse_ly_text(
                '{"dim": 2, "binary": [[0, 1, 0, "0"], [0, 1, 0, "2"]], "ternary": []}')
        with pytest.raises(CliError, match=r"ternary\[1\]: duplicate"):
            parse_ly_text('{"dim": 1, "ternary": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]}')

    @pytest.mark.parametrize("text, message", [
        ('{"dim": true, "binary": [], "ternary": []}', "dim must be a positive integer"),
        ('{"dim": 2, "binary": [[0, true, 0, "1"]]}', "indices must lie"),
        ('{"dim": 2, "ternary": [[false, 1, 0, 0, "1"]]}', "indices must lie"),
    ])
    def test_ly_true_false_are_not_integers(self, text, message):
        with pytest.raises(CliError, match=message):
            parse_ly_text(text)

    @pytest.mark.parametrize("key", ["binary", "ternary"])
    @pytest.mark.parametrize("value", [5, '"0010"', '{"0": [0, 0, 0, 1]}'])
    def test_ly_field_must_be_a_list(self, files, capsys, key, value):
        # an int used to end in a TypeError traceback, and a string was
        # walked character by character
        text = f'{{"dim": 2, "{key}": {value}}}'
        with pytest.raises(CliError, match=f"^ly.json: {key} must be a list of entries$"):
            parse_ly_text(text, origin="ly.json")
        assert main(["ly", "check", files("ly.json", text), "--format", "json"]) == 1
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert check["name"] == "error"
        assert check["witness"].endswith(f"{key} must be a list of entries")

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

    @pytest.mark.parametrize("parse", [parse_bivector_text, parse_twoform_text])
    def test_skew_indices_true_false_rejected(self, parse):
        with pytest.raises(CliError, match=r"expected \[i, j, expression\]"):
            parse('{"vars": ["x1", "x2"], "entries": [[false, true, "1"]]}')


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

    def test_envelope_of_abelian_with_kernel_ideal(self, files, capsys):
        path = files("ab.json", '{"dim": 2, "basis": ["a", "b"], "products": []}')
        message = "h = E/M is zero, and the 0 x 2 map f has no Matrix form"
        code, out = self.run(capsys, "envelope", "build", path, "--ideal", "kernel",
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "error", "status": "fail", "witness": message}]
        code, out = self.run(capsys, "envelope", "verify", path, "--ideal", "kernel",
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "envelope_conditions", "status": "fail", "witness": message}]

    def test_envelope_ideal_file(self, files, capsys):
        apath = files("a.json", LEIBNIZ2)
        ipath = files("ideal.json",
                      '{"ambient_dim": 2, "vectors": [[1, 0]]}')
        code, _ = self.run(capsys, "envelope", "verify", apath,
                           "--ideal", ipath, "--format", "json")
        assert code == 0

    @pytest.mark.parametrize("verb", ["build", "verify"])
    def test_envelope_files_are_read_before_the_leibniz_check(self, files, capsys, tmp_path,
                                                               verb):
        """On nl3, which is not Leibniz, a missing ideal file is the one error check;
        a readable ideal of the wrong dimension gives the report without --ideal."""
        apath = files("nl3.json", json.dumps(algebra_to_doc(make_nl3())))
        missing = str(tmp_path / "missing.json")
        code, out = self.run(capsys, "envelope", verb, apath, "--ideal", missing,
                             "--format", "json")
        assert code == 1
        [check] = json.loads(out)["checks"]
        assert check["name"] == "error" and check["witness"].startswith(f"cannot read {missing}")
        ipath = files("ideal2.json", '{"ambient_dim": 2, "vectors": [[1, 0]]}')
        with_ideal = self.run(capsys, "envelope", verb, apath, "--ideal", ipath, "--format", "json")
        assert with_ideal == self.run(capsys, "envelope", verb, apath, "--format", "json")

    def test_non_leibniz_builds_no_ideal(self, files, capsys, monkeypatch):
        """nl3 and demi2 are rejected before the squares or kernel ideal is built."""
        paths = [files(f"{a.name}.json", json.dumps(algebra_to_doc(a)))
                 for a in (make_nl3(), omni_algebras(2)[1])]
        argvs = [["envelope", verb, path, "--format", fmt, *ideal]
                 for verb in ("build", "verify") for path in paths for fmt in ("json", "text")
                 for ideal in ([], ["--ideal", "kernel"])]
        expected = [self.run(capsys, *argv) for argv in argvs]

        def forbidden(*args):
            raise AssertionError("an ideal was built")

        monkeypatch.setattr(cli, "squares_ideal", forbidden)
        monkeypatch.setattr(cli, "kernel_of_lambda", forbidden)
        assert [self.run(capsys, *argv) for argv in argvs] == expected
        assert all(code == 1 for code, _ in expected)

    @pytest.mark.parametrize("verb", ["build", "verify"])
    def test_one_squares_ideal_per_envelope(self, files, capsys, monkeypatch, verb):
        """The default ideal is built once: canonical_envelope decides that it holds
        the squares ideal on the squares themselves."""
        from leibniz_forge import envelope

        built = []

        def counted(a):
            built.append(a)
            return squares_ideal(a)

        monkeypatch.setattr(cli, "squares_ideal", counted)
        monkeypatch.setattr(envelope, "squares_ideal", counted)
        path = files("hemi2.json", json.dumps(algebra_to_doc(omni_algebras(2)[0])))
        assert self.run(capsys, "envelope", verb, path, "--format", "json")[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize("verb, ideal", [("verify", "squares"), ("verify", "kernel"),
                                             ("build", "kernel")])
    def test_envelope_of_omni_hemi4(self, files, capsys, verb, ideal):
        """omni_hemi(4), dim 20: five passing sigma_s checks; with M = ker lambda,
        h of dim 16, an ideal of 4 vectors and g of dim 36."""
        path = files("hemi4.json", json.dumps(algebra_to_doc(omni_algebras(4)[0])))
        code, out = self.run(capsys, "envelope", verb, path, "--ideal", ideal, "--format", "json")
        doc = json.loads(out)
        assert code == 0
        if verb == "verify":
            assert [c["status"] for c in doc["checks"]] == ["pass"] * 5
        else:
            assert (doc["h"]["dim"], len(doc["ideal"]["vectors"]), doc["g"]["dim"]) == (16, 4, 36)

    @pytest.mark.parametrize("vectors, message", [
        ([[0, 1]], "ideal does not contain the squares ideal"),  # e2.e2 = e1 leaves span(e2)
        ([[1, 0, 0]], "ideal is not contained in ker lambda"),  # [e2, e1] = -e3 leaves span(e1)
    ])
    def test_envelope_non_ideal_file(self, files, capsys, vectors, message):
        algebra = (LEIBNIZ2 if len(vectors[0]) == 2 else
                   '{"dim": 3, "basis": ["e1", "e2", "e3"], "products": ['
                   '{"left": "e1", "right": "e2", "result": {"e3": "1"}}, '
                   '{"left": "e2", "right": "e1", "result": {"e3": "-1"}}]}')
        apath = files("a.json", algebra)
        ipath = files("ideal.json", json.dumps({"ambient_dim": len(vectors[0]),
                                                "vectors": vectors}))
        code, out = self.run(capsys, "envelope", "verify", apath, "--ideal", ipath,
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "envelope_conditions", "status": "fail", "witness": message}]

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

    @pytest.mark.parametrize("c, entry", [(3198, "inf"), (108, "nan")])
    def test_loop_verify_float_overflow_is_an_error_check(self, files, capsys, c, entry):
        # a squaring of exp(s lambda) leaves the float range: an OverflowError traceback
        # for 3198, and an error check "-inf + inf in fsum" for 108, before
        path = files("big.json", json.dumps({
            "dim": 2, "basis": ["e1", "e2"],
            "products": [{"left": "e1", "right": "e2", "result": {"e1": str(c)}},
                         {"left": "e2", "right": "e1", "result": {"e2": str(c)}}]}))
        code, out = self.run(capsys, "loop", "verify", "--algebra", path, "--float",
                             "--s", "2/3", "--samples", "3", "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "error", "status": "fail", "witness": f"non-finite entry {entry}"}]

    @pytest.mark.parametrize("verb, args, what", [
        ("eval", ["--x", "9" * 401 + ",0,0", "--y", "0,1,1"], "vector entry"),
        ("verify", ["--s", "9" * 401, "--samples", "2"], "s"),
    ])
    def test_loop_float_value_beyond_the_float_range_is_an_error_check(self, files, capsys,
                                                                      verb, args, what):
        # float() of a 401-digit --x or --s ended in an OverflowError traceback before
        path = files("so3.json", json.dumps({
            "dim": 3, "basis": ["e1", "e2", "e3"],
            "products": [{"left": f"e{l}", "right": f"e{r}", "result": {f"e{k}": sign}}
                         for a, b, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
                         for l, r, sign in ((a, b, "1"), (b, a, "-1"))]}))
        code, out = self.run(capsys, "loop", verb, "--algebra", path, "--float", *args,
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "error", "status": "fail", "witness": f"non-finite {what}: beyond the float range"}]

    @pytest.mark.parametrize("s", ["1" + "0" * 307, "1" + "0" * 308], ids=["1e307", "1e308"])
    def test_loop_eval_float_with_s_lambda_past_the_float_range_is_a_report(self, files,
                                                                            capsys, s):
        # at 10^308 the row sums of s lambda_x overflow: an OverflowError traceback before
        path = files("so3.json", json.dumps({
            "dim": 3, "basis": ["e1", "e2", "e3"],
            "products": [{"left": f"e{l}", "right": f"e{r}", "result": {f"e{k}": sign}}
                         for a, b, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
                         for l, r, sign in ((a, b, "1"), (b, a, "-1"))]}))
        code, out = self.run(capsys, "loop", "eval", "--algebra", path, "--float", "--s", s,
                             "--x", "1,1,1", "--y", "0,1,1", "--format", "json")
        [check] = json.loads(out)["checks"]
        assert code == 1 and check["name"] == "error" and check["status"] == "fail"
        assert check["witness"].startswith("non-finite entry ")

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

    def test_courant_graph_twoform_witness(self, files, capsys):
        # x3 dx1 ^ dx2 is not closed, so its graph is not closed under the bracket
        omega_file = files("omega.json",
                           '{"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "x3"]]}')
        code, out = self.run(capsys, "courant", "graph", "--kind", "twoform",
                             "--data", omega_file, "--seed", "3", "--samples", "4",
                             "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        witness = doc["checks"][0]["witness"]
        names = ("x1", "x2", "x3")
        omega = TwoForm.from_upper(3, {(0, 1): Poly.var(3, 2)})
        rng = Pcg32(3)
        xis = [random_vector_field(rng, 3) for _ in range(4)]
        closed, pair = graph_closure_check("twoform", omega, xis)
        assert not closed and witness["pair"] == list(pair)
        i, j = pair
        br = courant_bracket(Section(xis[i], interior_two_form(xis[i], omega)),
                             Section(xis[j], interior_two_form(xis[j], omega)))
        residual = br.form - interior_two_form(br.vf, omega)
        assert witness["bracket"] == section_to_doc(names, br)
        assert witness["off_graph_one_form"] == {
            names[k]: poly_to_str(c, names)
            for k, c in enumerate(residual.components) if not c.is_zero()}
        assert witness["off_graph_one_form"] and "off_graph_vector_field" not in witness

    def test_courant_graph_exit_codes(self, files, capsys):
        """0 when every check passes; 1 when a check fails or the input is
        rejected (the report then has an error check); 2 for a usage error."""
        closed = files("closed.json", '{"vars": ["x1", "x2"], "entries": [[0, 1, "x1"]]}')
        not_closed = files("open.json",
                           '{"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "x3"]]}')
        lower = files("lower.json", '{"vars": ["x1", "x2"], "entries": [[1, 0, "x1"]]}')

        def graph(path):
            code, out = self.run(capsys, "courant", "graph", "--kind", "twoform",
                                 "--data", path, "--format", "json")
            doc = json.loads(out)
            return code, doc["status"], [c["name"] for c in doc["checks"]]

        assert graph(closed) == (0, "pass", ["graph_closed"])
        assert graph(not_closed) == (1, "fail", ["graph_closed"])
        assert graph(lower) == (1, "fail", ["error"])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["courant", "graph", "--kind", "symplectic",
                                       "--data", closed])
        assert exc.value.code == 2

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


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_leak_between_calls(self, files, capsys):
        # --float and --tol of one call must not carry over to the next
        path = files("a.json", LEIBNIZ2)
        float_cmd = ["loop", "verify", "--algebra", path, "--float", "--tol", "1e-8",
                     "--samples", "4"]
        exact_cmd = ["loop", "verify", "--algebra", path, "--samples", "4"]
        outs = []
        for argv in (float_cmd, exact_cmd, float_cmd):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2]
        fresh = subprocess.run([sys.executable, "-m", "leibniz_forge.cli", *exact_cmd],
                               capture_output=True, check=True, text=True)
        assert outs[1] == fresh.stdout


@pytest.fixture
def digit_limit():
    """Python's int-digit limit, set to its default while the test runs if it is off."""
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        sys.set_int_max_str_digits(4300)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)


class TestIntDigitLimit:
    """A number beyond Python's int-digit limit is an input error that names
    the file, the entry and the position."""

    def error_witness(self, capsys, argv):
        code = main([*argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [c["name"] for c in doc["checks"]] == ["error"]
        return doc["checks"][0]["witness"]

    def test_exponent(self, files, capsys, digit_limit):
        path = files("s.json", json.dumps({"vars": ["x1", "x2"], "one_form": {},
                                           "vector_field": {"x1": "x2^" + "7" * (digit_limit + 1)}}))
        witness = self.error_witness(capsys, ["courant", "bracket", path, path])
        assert witness.startswith(f"{path}: vector_field['x1']: bad number at position 3: ")

    def test_coefficient(self, files, capsys, digit_limit):
        path = files("s.json", json.dumps({"vars": ["x1", "x2"], "vector_field": {},
                                           "one_form": {"x2": "x1 - " + "9" * (digit_limit + 1)}}))
        witness = self.error_witness(capsys, ["courant", "bracket", path, path])
        assert witness.startswith(f"{path}: one_form['x2']: bad number at position 5: ")

    def test_zero_denominator(self, files, capsys):
        path = files("s.json", json.dumps({"vars": ["x1"], "one_form": {},
                                           "vector_field": {"x1": "x1 + 1/0"}}))
        witness = self.error_witness(capsys, ["courant", "bracket", path, path])
        assert witness.startswith(f"{path}: vector_field['x1']: bad number at position 5: ")

    def test_result_too_large_to_print(self, files, capsys, digit_limit):
        # both inputs are within the limit; the bracket's coefficients, products
        # of two of them, are not
        big = "7" * (digit_limit - 300)
        x = files("x.json", json.dumps({"vars": ["x1", "x2"], "one_form": {},
                                        "vector_field": {"x1": f"{big}*x2"}}))
        y = files("y.json", json.dumps({"vars": ["x1", "x2"], "one_form": {},
                                        "vector_field": {"x2": f"{big}*x1"}}))
        witness = self.error_witness(capsys, ["courant", "bracket", x, y])
        assert witness == ("result too large to print: a coefficient exceeds Python's "
                           f"int-digit limit ({digit_limit} digits)")

    def test_algebra_file_integer(self, files, capsys, digit_limit):
        doc = LEIBNIZ2.replace('"1"', "1" * (digit_limit + 1))
        path = files("a.json", doc)
        witness = self.error_witness(capsys, ["algebra", "check", path])
        assert witness.startswith(f"{path}: ") and "digits" in witness


class TestExponentBound:
    """Exponents are bounded below 2**63: a larger one in a file, or one that a
    bracket would make, is an input error reported as one error check."""

    def test_file_exponent_at_the_bound(self, files, capsys):
        big = files("big.json", json.dumps({"vars": ["x1", "x2"],
                                            "vector_field": {"x1": "x1^9223372036854775808"}}))
        ok = files("ok.json", json.dumps({"vars": ["x1", "x2"],
                                           "vector_field": {"x2": "x1^9223372036854775807"}}))
        code = main(["courant", "bracket", big, ok, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        assert json.loads(captured.out)["checks"] == [{
            "name": "error", "status": "fail",
            "witness": f"{big}: vector_field['x1']: bad exponent tuple (9223372036854775808, 0) "
                       "for 2 variables"}]
        assert main(["courant", "bracket", ok, ok, "--format", "json"]) == 0

    def test_bracket_exponent_past_the_bound(self, files, capsys):
        # [xi, eta]_2 = xi_2 d_2 eta_2 = x1^(2^63): each input exponent is 2^62
        half = "x1^4611686018427387904"
        x = files("x.json", json.dumps({"vars": ["x1", "x2"], "vector_field": {"x2": half}}))
        y = files("y.json", json.dumps({"vars": ["x1", "x2"], "vector_field": {"x2": f"{half}*x2"}}))
        code = main(["courant", "bracket", x, y, "--format", "json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["checks"] == [{
            "name": "error", "status": "fail",
            "witness": "bad exponent tuple (9223372036854775808, 0) for 2 variables"}]


class TestUnknownKeys:
    """A top-level key a reader does not know is an input error that names the
    file and the key. A misspelled key used to read as an absent field, so a
    misspelled bivector was the zero bivector and passed, and a misspelled
    section bracketed as zero."""

    NON_JACOBI = {"vars": ["x1", "x2", "x3"], "entrys": [[0, 1, "1"], [0, 2, "x1"]]}

    def error_witness(self, capsys, argv):
        code = main([*argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(c["name"], c["status"]) for c in doc["checks"]] == [("error", "fail")]
        return doc["checks"][0]["witness"]

    @pytest.mark.parametrize("kind", ["poisson", "twoform"])
    def test_graph_data(self, files, capsys, kind):
        path = files("pi.json", json.dumps(self.NON_JACOBI))
        witness = self.error_witness(capsys, ["courant", "graph", "--kind", kind, "--data", path])
        assert witness == f"{path}: unknown key 'entrys'; expected vars, entries"

    def test_spelled_right_the_bivector_fails(self, files, capsys):
        doc = {"vars": self.NON_JACOBI["vars"], "entries": self.NON_JACOBI["entrys"]}
        path = files("pi.json", json.dumps(doc))
        assert main(["courant", "graph", "--kind", "poisson", "--data", path]) == 1
        assert "[fail] graph_closed" in capsys.readouterr().out

    @pytest.mark.parametrize("slot", [0, 1])
    def test_section_files(self, files, capsys, slot):
        good = files("good.json", SECTION_Z)
        bad = files("bad.json", json.dumps({"vars": ["x1", "x2"], "vf": {"x1": "x2"},
                                            "form": {"x2": "x1"}}))
        argv = ["courant", "bracket", *((bad, good) if slot == 0 else (good, bad))]
        witness = self.error_witness(capsys, argv)
        assert witness == f"{bad}: unknown key 'vf'; expected vars, vector_field, one_form"

    def test_ly_file(self, files, capsys):
        path = files("ly.json", '{"dim": 2, "binary": [], "ternery": [[0, 1, 0, 1, "1"]]}')
        witness = self.error_witness(capsys, ["ly", "check", path])
        assert witness == f"{path}: unknown key 'ternery'; expected dim, binary, ternary"

    @pytest.mark.parametrize("parse, text, key", [
        (parse_section_text, '{"vars": ["x"], "one_form": {}, "name": "s"}', "name"),
        (parse_bivector_text, '{"vars": ["x"], "entries": [], "Entries": []}', "Entries"),
        (parse_twoform_text, '{"entries": [], "var": ["x"]}', "var"),
        (parse_ly_text, '{"dim": 1, "binary": [], "": []}', ""),
    ])
    def test_readers(self, parse, text, key):
        with pytest.raises(CliError, match=f"^f.json: unknown key {key!r}; expected "):
            parse(text, "f.json")

    def test_known_keys_may_be_left_out(self):
        assert parse_section_text('{"vars": ["x"]}').section.is_zero()
        assert parse_bivector_text('{"vars": ["x"]}')[1].is_zero()
        assert parse_ly_text('{"dim": 1}').dim == 1


def algebra_dim_text(dim: int) -> str:
    return json.dumps({"dim": dim, "basis": [f"e{i}" for i in range(dim)], "products": []})


def ly_dim_text(dim: int) -> str:
    return json.dumps({"dim": dim, "binary": [], "ternary": []})


class TestFileDimBounds:
    """dim in an input file is bounded before any tensor is allocated: the
    algebra reader fills dim^3 cells, and every LY check walks dim^3 cells."""

    @pytest.mark.parametrize("verb, text, bound", [
        ("algebra", algebra_dim_text(MAX_ALGEBRA_DIM + 1), MAX_ALGEBRA_DIM),
        ("ly", ly_dim_text(MAX_LY_DIM + 1), MAX_LY_DIM),
        ("ly", ly_dim_text(10 ** 6), MAX_LY_DIM),
    ])
    def test_above_bound_is_an_error_report(self, files, capsys, verb, text, bound):
        path = files("big.json", text)
        assert main([verb, "check", path, "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["checks"] == [
            {"name": "error", "status": "fail", "witness": f"{path}: dim must be at most {bound}"}]

    def test_bound_is_accepted(self, monkeypatch):
        # small bounds stand in for the real ones; an algebra at the bound takes seconds
        monkeypatch.setattr(cli, "MAX_ALGEBRA_DIM", 3)
        monkeypatch.setattr(cli, "MAX_LY_DIM", 2)
        assert parse_algebra_text(algebra_dim_text(3)).dim == 3
        assert parse_ly_text(ly_dim_text(2)).dim == 2
        with pytest.raises(CliError, match="^f.json: dim must be at most 3$"):
            parse_algebra_text(algebra_dim_text(4), origin="f.json")
        with pytest.raises(CliError, match="^f.json: dim must be at most 2$"):
            parse_ly_text(ly_dim_text(3), origin="f.json")

    def test_empty_ly_file_at_the_bound_is_small(self):
        # the LY reader stores zero cells once, so an empty dim-42 structure costs
        # kilobytes and its check walks dim^3 cells, not dim^4 entries
        tracemalloc.start()
        try:
            report = validate_ly(parse_ly_text(ly_dim_text(MAX_LY_DIM)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and peak < 8 * 2 ** 20

    def test_bounds_admit_the_largest_documented_inputs(self, files, capsys):
        # omni --dim 8 emits a dim-72 algebra; omni_hemi(6) has dim 42, and the LY
        # structure of omni_hemi(6), at the bound, passes ly check
        assert MAX_ALGEBRA_DIM >= 8 * 8 + 8 and MAX_LY_DIM >= 6 * 6 + 6
        ly = ly_from_leibniz(omni_algebras(6)[0])
        doc = {"dim": ly.dim, **{key: [[*k, l, str(x)] for k, cell in s.entries.items()
                                       for l, x in cell.items()]
                                 for key, s in zip(("binary", "ternary"), ly.sparse())}}
        path = files("hemi6_ly.json", json.dumps(doc))
        assert ly.dim == MAX_LY_DIM and main(["ly", "check", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"


def _algebra(**changes) -> str:
    return json.dumps({"dim": 2, "basis": ["e1", "e2"], "products": [], **changes})


def _section(**fields) -> str:
    return json.dumps({"vars": ["x1"], **fields})


_ALGEBRA = ["algebra", "check", "{f}"]
_SECTION = ["courant", "bracket", "{f}", "{f}"]
_GRAPH = ["courant", "graph", "--kind", "poisson", "--data", "{f}"]
_IDEAL = ["envelope", "verify", "{a}", "--ideal", "{f}"]

# (argv with the file at {f} and a valid algebra file at {a}, file text, exit code, message);
# a report's message is its one error check's witness, an argparse message is on stderr
REJECTIONS = {
    "top_level_not_an_object": (_ALGEBRA, "[]", 1, "{f}: top level must be an object"),
    "non_numeric_rational": (
        _ALGEBRA, _algebra(products=[{"left": "e1", "right": "e2", "result": {"e1": None}}]),
        1, "{f}: products[0]: exact rational required, got None"),
    "missing_algebra_field": (_ALGEBRA, json.dumps({"dim": 2, "basis": ["e1", "e2"]}),
                              1, "{f}: missing field 'products'"),
    "products_not_a_list": (_ALGEBRA, _algebra(products={}), 1, "{f}: products must be a list"),
    "bad_product_keys": (_ALGEBRA, _algebra(products=[{"left": "e1", "right": "e2"}]),
                         1, "{f}: products[0]: expected keys left, right, result"),
    "result_not_an_object": (
        _ALGEBRA, _algebra(products=[{"left": "e1", "right": "e2", "result": ["e1"]}]),
        1, "{f}: products[0]: result must map labels to rationals"),
    "subspace_keys": (_IDEAL, '{"vectors": []}', 1, "{f}: expected keys ambient_dim, vectors"),
    "vectors_not_a_list": (_IDEAL, '{"ambient_dim": 2, "vectors": {}}',
                           1, "{f}: vectors must be a list"),
    "unexpected_character": (
        _SECTION, _section(vector_field={"x1": "x1 $ 2"}),
        1, "{f}: vector_field['x1']: syntax error at position 3: unexpected character '$'"),
    "empty_expression": (_SECTION, _section(vector_field={"x1": " "}),
                         1, "{f}: vector_field['x1']: syntax error: empty expression"),
    "stray_token": (_SECTION, _section(one_form={"x1": "x1 x1"}),
                    1, "{f}: one_form['x1']: syntax error at position 3: unexpected 'x1'"),
    "bad_vars": (_SECTION, _section(vars=["x1", "x1"]),
                 1, "{f}: vars must list distinct variable names"),
    "component_map_not_an_object": (_SECTION, _section(one_form=["x1"]),
                                    1, "{f}: one_form must map variables to expressions"),
    "unknown_component_variable": (_SECTION, _section(vector_field={"y": "1"}),
                                   1, "{f}: vector_field uses unknown variable 'y'"),
    "non_string_expression": (_SECTION, _section(vector_field={"x1": 1}),
                              1, "{f}: vector_field['x1'] must be an expression string"),
    "entries_not_a_list": (_GRAPH, json.dumps({"vars": ["x1", "x2"], "entries": {}}),
                           1, "{f}: entries must be a list"),
    "bad_entry_expression": (
        _GRAPH, json.dumps({"vars": ["x1", "x2"], "entries": [[0, 1, "x1 +"]]}),
        1, "{f}: entries[0]: syntax error at position 4: unexpected end of input"),
    "timing_in_text_format": (_ALGEBRA + ["--timing"], _algebra(), 0, r"timing: \d+ ms"),
    "non_integer_seed": (_ALGEBRA + ["--seed", "1.5"], _algebra(),
                         2, "argument --seed: seed must be an integer, got '1.5'"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_paths(files, capsys, case):
    """Each input the readers, the grammar or the flags turn away, with its
    exit code and its message; and the text report's timing line."""
    argv, text, code, message = REJECTIONS[case]
    paths = {"f": files("f.json", text), "a": files("a.json", _algebra())}
    argv = [arg.format(**paths) for arg in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    elif code == 0:
        assert main(argv) == 0
        assert re.fullmatch(message, capsys.readouterr().out.splitlines()[-1])
    else:
        assert main(argv + ["--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["checks"] == [
            {"name": "error", "status": "fail", "witness": message.format(**paths)}]
