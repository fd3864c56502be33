"""Golden CLI outputs: stdout and exit code of every verb in both formats,
compared byte for byte with tests/golden/cli.json. For usage errors only the
CLI's own part of stderr is pinned: the verb it names on the usage line and
the final `error:` line. How argparse wraps the usage line changes between
Python versions (3.13 keeps an option and its metavar together), so the
lines between are not compared.

The input files are built here from fixed seeds and the conftest corpus. The
temporary directory they live in is written as <tmp> in the golden file.
Regenerate the golden file (only for an intended output change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from leibniz_forge import Pcg32, ly_from_leibniz, omni_algebras, random_nilpotent_leibniz
from leibniz_forge.cli import build_parser, main, poly_to_str
from leibniz_forge.linalg import format_rational
from leibniz_forge.sampling import random_section

from conftest import make_leibniz2, make_nl3, make_so3

GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def _algebra_file(a) -> dict:
    products = [{"left": a.basis_names[i], "right": a.basis_names[j],
                 "result": {a.basis_names[k]: format_rational(x)
                            for k, x in enumerate(a.c[i][j]) if x}}
                for i in range(a.dim) for j in range(a.dim) if any(a.c[i][j])]
    return {"name": a.name, "dim": a.dim, "basis": list(a.basis_names), "products": products}


def _ly_file(ly) -> dict:
    n = ly.dim
    return {"dim": n,
            "binary": [[i, j, k, format_rational(ly.b[i][j][k])]
                       for i in range(n) for j in range(n) for k in range(n) if ly.b[i][j][k]],
            "ternary": [[i, j, k, m, format_rational(ly.t[i][j][k][m])]
                        for i in range(n) for j in range(n) for k in range(n)
                        for m in range(n) if ly.t[i][j][k][m]]}


def _section_file(names, s) -> dict:
    return {"vars": list(names),
            "vector_field": {names[i]: poly_to_str(c, names)
                             for i, c in enumerate(s.vf.components) if not c.is_zero()},
            "one_form": {names[i]: poly_to_str(c, names)
                         for i, c in enumerate(s.form.components) if not c.is_zero()}}


def write_inputs(d: str) -> dict[str, str]:
    nilp4 = random_nilpotent_leibniz(Pcg32(13), 4)
    ly_bad = _ly_file(ly_from_leibniz(nilp4))
    ly_bad["binary"][0][-1] = "7"
    rng = Pcg32(21)
    x2, y2 = random_section(rng, 2), random_section(rng, 2)
    docs = {
        "leibniz2": _algebra_file(make_leibniz2()),
        "nl3": _algebra_file(make_nl3()),
        "so3": _algebra_file(make_so3()),
        "nilp4": _algebra_file(nilp4),
        "demi2": _algebra_file(omni_algebras(2)[1]),
        "bad_label": {"dim": 1, "basis": ["e1"],
                      "products": [{"left": "e1", "right": "e7", "result": {}}]},
        "ideal": {"ambient_dim": 2, "vectors": [[1, 0]]},
        "ly_nilp4": _ly_file(ly_from_leibniz(nilp4)),
        "ly_bad": ly_bad,
        "ly_range": {"dim": 2, "binary": [[0, 1, 2, "1"]]},
        "sec_x": _section_file(("x1", "x2"), x2),
        "sec_y": _section_file(("x1", "x2"), y2),
        "sec_z": _section_file(("z1", "z2"), y2),
        "so3_star": {"vars": ["x1", "x2", "x3"],
                     "entries": [[0, 1, "x3"], [0, 2, "-x2"], [1, 2, "x1"]]},
        "non_jacobi": {"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "1"], [0, 2, "x1"]]},
        "x1_dx1dx2": {"vars": ["x1", "x2"], "entries": [[0, 1, "x1"]]},
        "x3_dx1dx2": {"vars": ["x1", "x2", "x3"], "entries": [[0, 1, "x3"]]},
    }
    paths = {"missing": os.path.join(d, "missing.json")}
    for name, doc in docs.items():
        paths[name] = os.path.join(d, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def reports(f: dict[str, str]) -> list[list[str]]:
    """Commands without --format; each runs once per format."""
    return [
        ["algebra", "check", f["leibniz2"]],
        ["algebra", "check", f["nl3"]],
        ["algebra", "check", f["missing"]],
        ["algebra", "check", f["bad_label"]],
        ["envelope", "build", f["leibniz2"]],
        ["envelope", "build", f["leibniz2"], "--ideal", "kernel"],
        ["envelope", "build", f["nl3"]],
        ["envelope", "verify", f["leibniz2"], "--ideal", f["ideal"]],
        ["envelope", "verify", f["nilp4"]],
        ["envelope", "verify", f["nl3"]],
        ["envelope", "verify", f["demi2"]],
        ["ly", "check", f["ly_nilp4"]],
        ["ly", "check", f["ly_bad"]],
        ["ly", "check", f["ly_range"]],
        ["loop", "eval", "--algebra", f["nilp4"], "--x", "1,2,3,4", "--y=-1,1/2,0,2"],
        ["loop", "eval", "--algebra", f["so3"], "--x", "1,0,2", "--y", "0,1,1"],
        ["loop", "eval", "--algebra", f["so3"], "--float", "--x", "1,0,2", "--y", "0,1,1"],
        ["loop", "eval", "--algebra", f["so3"], "--x", "1,0", "--y", "0,1,1"],
        ["loop", "eval", "--algebra", f["so3"], "--x", "1,0,2", "--y", "0,1/0,1"],
        ["loop", "verify", "--algebra", f["nilp4"], "--samples", "3", "--seed", "4"],
        ["loop", "verify", "--algebra", f["so3"]],
        ["loop", "verify", "--algebra", f["so3"], "--float", "--tol", "1e-8", "--samples", "3"],
        ["omni", "--dim", "1"],
        ["omni", "--dim", "2"],
        ["courant", "bracket", f["sec_x"], f["sec_y"]],
        ["courant", "bracket", f["sec_x"], f["sec_z"]],
        ["courant", "axioms", "--vars", "2", "--samples", "2", "--seed", "5"],
        ["courant", "graph", "--kind", "poisson", "--data", f["so3_star"], "--samples", "3"],
        ["courant", "graph", "--kind", "poisson", "--data", f["non_jacobi"],
         "--samples", "4", "--seed", "3"],
        ["courant", "graph", "--kind", "twoform", "--data", f["x1_dx1dx2"], "--samples", "3"],
        ["courant", "graph", "--kind", "twoform", "--data", f["x3_dx1dx2"],
         "--samples", "4", "--seed", "3"],
    ]


def usage_errors(f: dict[str, str]) -> list[list[str]]:
    return [
        ["algebra"],
        ["envelope", "build"],
        ["loop", "eval", "--algebra", f["so3"], "--x", "1,0,2"],
        ["loop", "verify", "--algebra", f["so3"], "--float", "--tol", "nan"],
        ["loop", "verify", "--algebra", f["so3"], "--s", "half"],
        ["omni", "--dim", "9"],
        ["courant", "graph", "--kind", "twoform", "--data", f["x1_dx1dx2"], "--samples", "0"],
        ["courant", "axioms", "--vars", "2", "--seed", "-1"],
    ]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if result["stderr"]:
        # "usage: leibniz-forge <verb>" and the last line; argparse wraps the rest
        usage = re.match(r"usage: leibniz-forge(?: [a-z]+)*", result["stderr"])
        result["stderr"] = {"usage": usage and usage.group(),
                            "error": result["stderr"].splitlines()[-1]}
    return result


def record(d: str) -> list[dict]:
    """Every golden run, with the temporary directory written as <tmp>."""
    f = write_inputs(d)
    argvs = [argv + ["--format", fmt] for argv in reports(f) for fmt in ("json", "text")]
    argvs += usage_errors(f)
    runs = []
    for argv in argvs:
        result = run(argv)
        runs.append({key: value.replace(d, "<tmp>") if isinstance(value, str) else value
                     for key, value in {"argv": " ".join(argv), **result}.items()})
    return runs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return record(str(tmp_path_factory.mktemp("golden")))


GOLDEN_RUNS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


@pytest.mark.parametrize("index", range(len(GOLDEN_RUNS)),
                         ids=[r["argv"].replace("<tmp>/", "") for r in GOLDEN_RUNS])
def test_golden_output(runs, index):
    assert runs[index] == GOLDEN_RUNS[index]


def test_golden_covers_every_run(runs):
    assert [r["argv"] for r in runs] == [r["argv"] for r in GOLDEN_RUNS]


# every verb's own flags, as `--help` must list them
VERB_FLAGS = {
    ("algebra", "check"): ["file"],
    ("envelope", "build"): ["file", "--ideal"],
    ("envelope", "verify"): ["file", "--ideal"],
    ("ly", "check"): ["file"],
    ("loop", "eval"): ["--algebra", "--s", "--x", "--y", "--float", "--tol"],
    ("loop", "verify"): ["--algebra", "--s", "--samples", "--float", "--tol"],
    ("omni",): ["--dim"],
    ("courant", "bracket"): ["x", "y"],
    ("courant", "axioms"): ["--vars", "--samples"],
    ("courant", "graph"): ["--kind", "--data", "--samples"],
}


@pytest.mark.parametrize("verb", VERB_FLAGS, ids=" ".join)
def test_help_lists_the_verb_flags(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*verb, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: leibniz-forge {' '.join(verb)} ")
    for flag in VERB_FLAGS[verb] + ["--format", "--seed", "--timing"]:
        assert f"\n  {flag}" in out, flag


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        runs_now = record(d)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs_now, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(runs_now)} runs to {GOLDEN}")
